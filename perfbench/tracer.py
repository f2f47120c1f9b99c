"""Per-module span tracer for the gatedbias package, installed from outside it.

The tracer replaces module attributes that the pipeline calls with wrappers
that record one span per call: name, start, end, parent span and op id.
Spans stay in memory until the run writes them out. Nothing under src/
changes; `uninstall` puts every original back.

A wrapped name that no longer exists raises TracerError naming it, so a
refactor that moves or deletes a function breaks the benchmark visibly
instead of silently dropping a layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
import tracemalloc
from contextlib import contextmanager

# (module, attribute) pairs; "Class.method" patches the method on the class.
TARGETS = (
    ("gatedbias.pipeline", "load_triples"),
    ("gatedbias.pipeline", "train_backbone"),
    ("gatedbias.pipeline", "load_embeddings"),
    ("gatedbias.pipeline", "save_embeddings"),
    ("gatedbias.pipeline", "build_universe"),
    ("gatedbias.pipeline", "build_gates"),
    ("gatedbias.pipeline", "load_interactions"),
    ("gatedbias.pipeline", "build_profile"),
    ("gatedbias.bias_head", "train_head"),
    ("gatedbias.bias_head", "train_patientnode"),
    ("gatedbias.bias_head", "compute_bias"),
    ("gatedbias.bias_head", "save_head"),
    ("gatedbias.bias_head", "load_head"),
    ("gatedbias.bias_head", "save_patientnode"),
    ("gatedbias.bias_head", "load_patientnode"),
    ("gatedbias.evaluator", "compute_rank_table"),
    ("gatedbias.evaluator", "alignment_per_query"),
    ("gatedbias.evaluator", "alignment_delta_test"),
    ("gatedbias.evaluator", "counterfactual_responsiveness"),
    ("gatedbias.evaluator", "placebo_validation"),
    ("gatedbias.evaluator", "compute_bias"),
    ("gatedbias.backbone", "EmbeddingTable.score_all_tails"),
)

OP_SPAN = "cli.main"


class TracerError(RuntimeError):
    pass


def span_name(module: str, attr: str) -> str:
    """"evaluator.compute_bias" for a function, "EmbeddingTable.score_all_tails" for a method."""
    return attr if "." in attr else f"{module.rsplit('.', 1)[-1]}.{attr}"


# Work counts taken from each call's result and, where named in BIND, from
# its arguments bound to parameter names (binding costs too much per score call).
def _load_triples_work(args, store):
    return {"triples": sum(int(store.split(s).shape[0]) for s in ("train", "valid", "test"))}


def _train_backbone_work(args, _):
    n, cfg = int(args["store"].train.shape[0]), args["cfg"]
    return {"batches": cfg.epochs * math.ceil(n / cfg.batch_size), "triples": cfg.epochs * n}


def _train_head_work(args, _):
    cfg = args["cfg"]
    return {"pairs": cfg.epochs * int(args["store"].train.shape[0]) * cfg.negatives_per_positive}


def _score_work(args, scores):
    return {"cells": int(scores.size), "bytes": int(scores.nbytes)}


WORK = {
    "pipeline.load_triples": _load_triples_work,
    "pipeline.train_backbone": _train_backbone_work,
    "bias_head.train_head": _train_head_work,
    "bias_head.train_patientnode": _train_head_work,
    "EmbeddingTable.score_all_tails": _score_work,
}
BIND = {"pipeline.train_backbone", "bias_head.train_head", "bias_head.train_patientnode"}
PEAK_MEMORY = {"evaluator.alignment_delta_test"}


class Tracer:
    """Records spans as [name, start, end, parent index, op id, work dict]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op_id = -1

    def install(self) -> None:
        if self._saved:
            raise TracerError("tracer is already installed")
        resolved = []
        for module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
                if owner is None:
                    raise TracerError(f"cannot trace {module_name}.{attr}: {part} no longer exists")
            original = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
            if not callable(original):
                raise TracerError(f"cannot trace {module_name}.{attr}: attribute no longer exists")
            resolved.append((owner, leaf, original, span_name(module_name, attr)))
        for owner, leaf, original, name in resolved:
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op_id, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        if self._stack.pop() != index:
            raise TracerError(f"span {self.spans[index][0]} closed out of order")

    def _wrap(self, fn, name: str):
        work = WORK.get(name)
        signature = inspect.signature(fn) if name in BIND else None
        peak = name in PEAK_MEMORY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            span = self.spans[index]
            if peak:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if peak:
                    span[5] = {"peak_bytes": tracemalloc.get_traced_memory()[1]}
                    tracemalloc.stop()
                self._close(index)
            if work:
                bound = signature.bind(*args, **kwargs).arguments if signature else None
                span[5] = work(bound, result)
            return result

        return wrapper

    @contextmanager
    def op(self):
        """Span of one whole command; every wrapped call inside is its descendant."""
        self.op_id += 1
        index = self._open(OP_SPAN)
        self.spans[index][1] = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._close(index)

    def write(self, path: str) -> None:
        columns = ("name", "start", "end", "parent", "op", "work")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({c: [s[i] for s in self.spans] for i, c in enumerate(columns)}, fh)


class OpSpans:
    """Durations, self times, counts and work totals of one op's spans."""

    def __init__(self, spans: list[list], op_id: int):
        child_time: dict[int, float] = {}
        self.duration: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.work: dict[str, dict[str, float]] = {}
        self.peak: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        mine = [(i, s) for i, s in enumerate(spans) if s[4] == op_id]
        for _, (_, start, end, parent, _, _) in mine:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for i, (name, start, end, _, _, work) in mine:
            dur = end - start
            self.duration[name] = self.duration.get(name, 0.0) + dur
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child_time.get(i, 0.0)
            self.calls[name] = self.calls.get(name, 0) + 1
            for key, value in (work or {}).items():
                if key == "peak_bytes":
                    self.peak[name] = max(self.peak.get(name, 0), value)
                else:
                    self.work.setdefault(name, {})
                    self.work[name][key] = self.work[name].get(key, 0) + value

    def total(self, *names: str) -> float:
        return sum(self.duration.get(n, 0.0) for n in names)

    def count(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def sum_work(self, key: str, *names: str) -> float:
        return sum(self.work.get(n, {}).get(key, 0) for n in names)
