"""The benchmark's span tracer (perfbench/tracer.py) wraps named module
attributes of the package and binds the `store` and `cfg` arguments of the
trainers to count their work. These checks resolve every traced name and run
a tiny traced `run`, so a refactor that renames or moves a traced function or
one of those parameters fails here, not only in the benchmark's own
self-check. They also pin the engine's work, one score call per distinct
test (h, r) and sweep, and compare's one body: one read of the triples, one
backbone training and one checkpoint read for all three methods."""

import importlib
import math
import os

import pytest

from gatedbias import pipeline
from gatedbias.config import config_from_dict
from gatedbias.kg_store import load_grouping, load_triples

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracer(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(REPO, "perfbench"))
    return importlib.import_module("tracer")


def test_tracer_resolves_every_traced_name(monkeypatch):
    t = load_tracer(monkeypatch).Tracer()
    try:
        t.install()
    finally:
        t.uninstall()


@pytest.mark.parametrize("method,trainer", [("patientnode", "bias_head.train_patientnode"),
                                            ("gatedbias", "bias_head.train_head")])
def test_tracer_counts_trainer_work(method, trainer, monkeypatch, tmp_path):
    cfg = config_from_dict({
        "data": {"synthetic": {"n_items": 20, "n_attrs_per_group": 5, "n_users": 10,
                               "seed": 0}},
        "backbone": {"dim": 8, "epochs": 3, "learning_rate": 0.5, "batch_size": 16},
        "head": {"batch_size": 16, "learning_rate": 0.1, "epochs": 2,
                 "negatives_per_positive": 2, "patientnode_hidden": 4},
        "eval": {"seeds": [0], "n_shuffles": 2},
        "method": method,
    })
    t = load_tracer(monkeypatch).Tracer()
    t.install()
    try:
        pipeline.run_pipeline(cfg, str(tmp_path))
    finally:
        t.uninstall()
    work = {name: span_work for name, *_, span_work in t.spans if span_work}

    dataset = tmp_path / "dataset"
    store = load_triples(str(dataset / "triples"))
    head_store = pipeline.task_train_store(store, load_grouping(str(dataset / "grouping.yaml"),
                                                                store))
    n = store.train.shape[0]
    assert work["pipeline.train_backbone"] == {"batches": 3 * math.ceil(n / 16),
                                               "triples": 3 * n}
    assert work[trainer] == {"pairs": 2 * head_store.train.shape[0] * 2}


def test_tracer_counts_one_score_call_per_key_and_sweep(monkeypatch, tmp_path):
    """A gated seed makes two sweeps (rank table, alignment), each scoring
    every distinct test (h, r) once: scoring per query would fail here."""
    cfg = config_from_dict({
        "data": {"synthetic": {"n_items": 30, "n_attrs_per_group": 5, "n_users": 10,
                               "seed": 1}},
        "backbone": {"dim": 8, "epochs": 2, "learning_rate": 0.5, "batch_size": 32},
        "head": {"batch_size": 32, "learning_rate": 0.1, "epochs": 1,
                 "negatives_per_positive": 1},
        "eval": {"seeds": [0, 1], "n_shuffles": 2},
        "method": "gatedbias",
    })
    t = load_tracer(monkeypatch).Tracer()
    t.install()
    try:
        pipeline.run_pipeline(cfg, str(tmp_path))
    finally:
        t.uninstall()
    score_calls = sum(name == "EmbeddingTable.score_all_tails" for name, *_ in t.spans)

    store = load_triples(str(tmp_path / "dataset" / "triples"))
    keys = {(h, r) for h, r, _ in store.test.tolist()}
    assert len(keys) < store.test.shape[0]
    assert score_calls == 2 * 2 * len(keys)


def test_traced_compare_prepares_data_and_backbone_once(monkeypatch, tmp_path):
    """compare runs its three methods through one body: the triples are read,
    the backbone trained and its checkpoint read back once each, and every
    span the benchmark's compare-desk workload requires is recorded."""
    monkeypatch.syspath_prepend(os.path.join(REPO, "perfbench"))
    required = importlib.import_module("run").WORKLOADS["compare-desk"].required
    cfg = config_from_dict({
        "data": {"synthetic": {"n_items": 20, "n_attrs_per_group": 5, "n_users": 10,
                               "seed": 0}},
        "backbone": {"dim": 8, "epochs": 2, "learning_rate": 0.5, "batch_size": 32},
        "head": {"batch_size": 32, "learning_rate": 0.1, "epochs": 1,
                 "patientnode_hidden": 4},
        "eval": {"seeds": [0, 1], "n_shuffles": 2},
    })
    t = load_tracer(monkeypatch).Tracer()
    t.install()
    try:
        pipeline.run_compare(cfg, str(tmp_path))
    finally:
        t.uninstall()
    names = [name for name, *_ in t.spans]
    assert [names.count(n) for n in ("pipeline.load_triples", "pipeline.train_backbone",
                                     "pipeline.load_embeddings")] == [1, 1, 1]
    assert required <= set(names), sorted(required - set(names))
