"""Benchmark of the gatedbias command line, run from the repository root.

    python3 perfbench/run.py --workload eval-gated --seed 0 --seconds 25 --trace 0

Load shape: closed loop, one client, one op at a time. Each op is a fresh
`python -m gatedbias.cli` process, so its wall time, CPU time and peak RSS
include interpreter start and package import, as a user pays them. The
workload seed is the `synth --seed`; the program sees only generated files.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 instead
runs the command in this process, alternately untraced and under the span
tracer (tracer.py), and prints the per-layer metrics; the traced-minus-
untraced op time is the tracing overhead. Both check outputs:
every op of a run must produce identical digests, equal to the recorded
reference for seed 0 (reference.json), and train-base ranks must match an
independent numpy rank oracle. Any mismatch counts as a failed op, and the
run then exits 1 after printing its result line.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import checks
from tracer import OP_SPAN, OpSpans, Tracer, TracerError

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 3           # set-up repeats per run; setup_s is their median
TRACED_OPS = 2       # traced (and untraced) ops per --trace 1 run; counts must agree
IMPORT_SAMPLES = 3   # fresh-interpreter imports timed for cli.import_s
OP_TIMEOUT_S = 150
MIB = 1024 * 1024
COUNT_UNITS = ("count", "calls/query")


@dataclass(frozen=True)
class Workload:
    n_items: int                 # synth --n-items
    command: tuple[str, ...]     # gatedbias subcommand and flags
    outputs: tuple[str, ...]     # files digested, relative to the op's --out
    write_checkpoints: bool      # set-up runs `run` to write backbone and heads
    required: frozenset[str]     # spans the op must record at least once
    rank_oracle: bool = False    # check ranks.tsv against checks.oracle_ranks


EVALUATOR = frozenset({
    "evaluator.compute_rank_table", "evaluator.alignment_per_query",
    "evaluator.alignment_delta_test", "evaluator.counterfactual_responsiveness",
    "evaluator.placebo_validation", "evaluator.compute_bias",
    "EmbeddingTable.score_all_tails"})
GATES = frozenset({"pipeline.load_triples", "pipeline.build_universe", "pipeline.build_gates",
                   "pipeline.load_interactions", "pipeline.build_profile",
                   "bias_head.compute_bias"})
COMPARE_OUTPUTS = ("compare.json", "compare.tsv") + tuple(
    f"{m}/{f}" for m in ("base", "patientnode", "gatedbias") for f in ("report.json", "ranks.tsv"))

WORKLOADS = {
    "eval-gated": Workload(
        n_items=1000, command=("eval",), outputs=("report.json", "ranks.tsv"),
        write_checkpoints=True,
        required=EVALUATOR | GATES | {"pipeline.load_embeddings", "bias_head.load_head"}),
    "train-base": Workload(
        n_items=1000, command=("run", "--method", "base"), outputs=("report.json", "ranks.tsv"),
        write_checkpoints=False,
        required=frozenset({"pipeline.load_triples", "pipeline.train_backbone",
                            "pipeline.save_embeddings", "evaluator.compute_rank_table",
                            "EmbeddingTable.score_all_tails"}),
        rank_oracle=True),
    "compare-desk": Workload(
        n_items=200, command=("compare",), outputs=COMPARE_OUTPUTS, write_checkpoints=False,
        required=EVALUATOR | GATES | {
            "pipeline.train_backbone", "pipeline.save_embeddings", "pipeline.load_embeddings",
            "bias_head.train_head", "bias_head.train_patientnode", "bias_head.save_head",
            "bias_head.save_patientnode"}),
}


class BenchError(RuntimeError):
    pass


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    rss_mib: float
    digest: str | None


# ---------------------------------------------------------------------------
# Host record
# ---------------------------------------------------------------------------

def _blas_threads() -> int | None:
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_info(seed: int) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(), "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def _child_env(src: str) -> dict:
    env = dict(os.environ)
    # Pin glibc's mmap threshold at its 128 KiB default. Left dynamic, it
    # rises after the first large free and peak RSS then flips between two
    # modes (66 or 79 MiB on compare-desk) with allocator history; pinned,
    # peak RSS follows the memory the program actually holds.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(args: list[str], src: str, log_path: str) -> tuple[float, float, float]:
    """Run `python -m gatedbias.cli ARGS` to completion; return wall seconds,
    CPU seconds (user + sys, from the child's rusage) and peak RSS in MiB."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "gatedbias.cli", *args],
                                stdout=subprocess.DEVNULL, stderr=log, env=_child_env(src))

        caught = []

        def kill(signum, frame):  # op timeout, or this run is being stopped
            caught.append(signum)
            proc.kill()

        previous = {sig: signal.signal(sig, kill) for sig in (signal.SIGALRM, signal.SIGTERM)}
        signal.alarm(OP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            for sig, handler in previous.items():
                signal.signal(sig, handler)
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if signal.SIGTERM in caught:
        raise SystemExit(128 + signal.SIGTERM)
    if code != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"gatedbias {' '.join(args)} exited {code}:\n{tail}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def import_seconds(src: str) -> float:
    """Seconds to import gatedbias.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import gatedbias.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(src), check=True,
                         capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    return float(out.stdout.strip())


# ---------------------------------------------------------------------------
# Workload steps
# ---------------------------------------------------------------------------

@dataclass
class Prepared:
    config: str      # config.yaml emitted by synth, unmodified
    out: str         # the op's --out directory
    digest: str      # of everything the set-up wrote


def set_up(wl: Workload, seed: int, root: str, src: str) -> tuple[Prepared, float]:
    """Generate the dataset (and for eval-gated the checkpoints); timed."""
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    data, out = os.path.join(root, "data"), os.path.join(root, "out")
    log = os.path.join(root, "setup.log")
    start = time.perf_counter()
    run_cli(["synth", "--out", data, "--n-items", str(wl.n_items), "--seed", str(seed)], src, log)
    config = os.path.join(data, "config.yaml")
    if wl.write_checkpoints:
        # n_shuffles only changes placebo reruns, not the checkpoints written
        run_cli(["run", config, "--out", out, "--n-shuffles", "1"], src, log)
    elapsed = time.perf_counter() - start
    os.remove(log)
    return Prepared(config=config, out=out, digest=checks.tree_digest(root)), elapsed


def _clear_outputs(wl: Workload, out: str) -> None:
    """Remove the previous op's outputs so a failed op cannot pass on stale files."""
    if wl.write_checkpoints:
        for rel in wl.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out, rel))
    else:
        shutil.rmtree(out, ignore_errors=True)


def op_argv(wl: Workload, prep: Prepared) -> list[str]:
    return [wl.command[0], prep.config, "--out", prep.out, *wl.command[1:]]


def check_outputs(wl: Workload, prep: Prepared, first: str | None, reference: str | None,
                  problems: list[str]) -> str | None:
    """Digest the op's outputs and append any check failure to problems.

    The first op of a run (first is None) is held to the reference digest and
    the rank oracle; later ops must match the first op's digest.
    """
    try:
        digest = checks.output_digest(prep.out, list(wl.outputs))
        if first is not None:
            if digest != first:
                problems.append("outputs differ from the first op")
            return digest
        if reference is not None and digest != reference:
            problems.append(f"output digest {digest[:16]} != recorded reference {reference[:16]}")
        if wl.rank_oracle:
            expected = checks.oracle_ranks(os.path.join(os.path.dirname(prep.config), "triples"),
                                           os.path.join(prep.out, "backbone.kge"))
            problems.extend(checks.check_ranks_tsv(os.path.join(prep.out, "ranks.tsv"),
                                                   expected)[:5])
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"outputs unreadable: {exc!r}")
        return None
    return digest


# ---------------------------------------------------------------------------
# Measured run (--trace 0)
# ---------------------------------------------------------------------------

def measure(name: str, wl: Workload, seed: int, seconds: float, work: str, src: str,
            reference: str | None) -> tuple[dict, int, int, list[str], dict]:
    """Run fresh-process ops until they add up to `seconds`; set up before
    each of the first SETUPS ops, so that set-ups sample the same stretch of
    time as the ops do."""
    setups: list[float] = []
    digests = set()

    def set_up_once() -> Prepared:
        prep, elapsed = set_up(wl, seed, os.path.join(work, "setup"), src)
        setups.append(elapsed)
        digests.add(prep.digest)
        return prep

    problems: list[str] = []
    ops: list[Op] = []
    attempted = failed = 0
    first = None
    while not ops or sum(o.wall_s for o in ops) < seconds:
        if len(setups) < SETUPS:
            prep = set_up_once()
        attempted += 1
        _clear_outputs(wl, prep.out)
        op_problems: list[str] = []
        try:
            wall, cpu, rss = run_cli(op_argv(wl, prep), src, os.path.join(work, "op.log"))
        except BenchError as exc:
            op_problems.append(str(exc))
        else:
            digest = check_outputs(wl, prep, first, reference, op_problems)
            first = first or digest
            ops.append(Op(wall, cpu, rss, digest))
        failed += bool(op_problems)
        problems.extend(op_problems)
        if not ops and attempted >= 3:
            raise BenchError("no op succeeded:\n" + "\n".join(problems))
    while len(setups) < SETUPS:
        set_up_once()
    if len(digests) != 1:
        problems.append("set-up outputs differ between repeats")

    metrics = {
        "op_s.p50": (statistics.median(o.wall_s for o in ops), "s"),
        "cpu_s.p50": (statistics.median(o.cpu_s for o in ops), "s"),
        "peak_rss_mb": (max(o.rss_mib for o in ops), "MiB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    record = {"setup_s": setups, "ops": [vars(o) for o in ops]}
    return metrics, attempted, failed, problems, record


# ---------------------------------------------------------------------------
# Traced run (--trace 1)
# ---------------------------------------------------------------------------

def _in_process(argv: list[str]) -> float:
    from gatedbias import cli
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise BenchError(f"gatedbias {' '.join(argv)} returned {code}")
    return time.perf_counter() - start


def layer_metrics(s: OpSpans, n_queries: int, n_seeds: int) -> dict[str, tuple[float, str]]:
    train_s = s.total("pipeline.train_backbone")
    head_s = s.total("bias_head.train_head", "bias_head.train_patientnode")
    op_s = s.total(OP_SPAN)
    return {
        "evaluator.rank_table_s": (s.total("evaluator.compute_rank_table"), "s"),
        "evaluator.rank_table_calls": (s.count("evaluator.compute_rank_table"), "count"),
        "evaluator.alignment_s": (s.total("evaluator.alignment_per_query"), "s"),
        "evaluator.alignment_calls": (s.count("evaluator.alignment_per_query"), "count"),
        "evaluator.cr_self_s": (s.self_time.get("evaluator.counterfactual_responsiveness", 0.0), "s"),
        "evaluator.placebo_self_s": (s.self_time.get("evaluator.placebo_validation", 0.0), "s"),
        "evaluator.delta_test_s": (s.total("evaluator.alignment_delta_test"), "s"),
        "evaluator.delta_test_peak_mb":
            (s.peak.get("evaluator.alignment_delta_test", 0) / MIB, "MiB"),
        "evaluator.scored_cells": (s.sum_work("cells", "EmbeddingTable.score_all_tails"), "count"),
        "evaluator.score_mb_computed":
            (s.sum_work("bytes", "EmbeddingTable.score_all_tails") / MIB, "MiB"),
        "backbone.train_s": (train_s, "s"),
        "backbone.train_batches": (s.sum_work("batches", "pipeline.train_backbone"), "count"),
        "backbone.train_triples_per_s":
            (s.sum_work("triples", "pipeline.train_backbone") / train_s if train_s else 0.0, "1/s"),
        "backbone.load_s": (s.total("pipeline.load_embeddings"), "s"),
        "backbone.save_s": (s.total("pipeline.save_embeddings"), "s"),
        "backbone.score_calls": (s.count("EmbeddingTable.score_all_tails"), "count"),
        "backbone.score_calls_per_query":
            (s.count("EmbeddingTable.score_all_tails") / (n_queries * n_seeds), "calls/query"),
        "bias_head.train_head_s": (s.total("bias_head.train_head"), "s"),
        "bias_head.train_patientnode_s": (s.total("bias_head.train_patientnode"), "s"),
        "bias_head.train_pairs_per_s": (s.sum_work("pairs", "bias_head.train_head",
                                                   "bias_head.train_patientnode") / head_s
                                        if head_s else 0.0, "1/s"),
        "bias_head.compute_bias_calls":
            (s.count("bias_head.compute_bias", "evaluator.compute_bias"), "count"),
        "bias_head.checkpoint_s": (s.total("bias_head.save_head", "bias_head.load_head",
                                           "bias_head.save_patientnode",
                                           "bias_head.load_patientnode"), "s"),
        "kg_store.load_triples_s": (s.total("pipeline.load_triples"), "s"),
        "kg_store.build_universe_s": (s.total("pipeline.build_universe"), "s"),
        "kg_store.build_gates_s": (s.total("pipeline.build_gates"), "s"),
        "kg_store.triples": (s.sum_work("triples", "pipeline.load_triples"), "count"),
        "profile_builder.load_interactions_s": (s.total("pipeline.load_interactions"), "s"),
        "profile_builder.build_profile_s": (s.total("pipeline.build_profile"), "s"),
        "pipeline.self_s": (s.self_time.get(OP_SPAN, 0.0), "s"),
        "op_s.traced": (op_s, "s"),
    }


def _queries_and_seeds(wl: Workload, prep: Prepared) -> tuple[int, int]:
    """Test queries and evaluation seeds, as the op's (first) report states them."""
    report = next(r for r in wl.outputs if r.endswith("report.json"))
    with open(os.path.join(prep.out, report), encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["dataset"]["test"], len(doc["report"]["seeds"])


def _counts(metrics: dict) -> dict:
    return {k: v for k, (v, unit) in metrics.items() if unit in COUNT_UNITS}


def trace(name: str, wl: Workload, seed: int, work: str, src: str, out_dir: str,
          reference: str | None) -> tuple[dict, int, int, list[str], dict]:
    """TRACED_OPS untraced and traced in-process ops, alternating; per-layer metrics."""
    prep, _ = set_up(wl, seed, os.path.join(work, "setup"), src)
    import_s = statistics.median(import_seconds(src) for _ in range(IMPORT_SAMPLES))
    sys.path.insert(0, src)
    argv = op_argv(wl, prep)
    problems: list[str] = []

    tracer = Tracer()
    untraced_s, per_op = [], []
    first = None
    failed = 0
    for _ in range(TRACED_OPS):  # untraced and traced ops alternate
        for traced in (False, True):
            _clear_outputs(wl, prep.out)
            if traced:
                tracer.install()
            try:
                with tracer.op() if traced else contextlib.nullcontext():
                    elapsed = _in_process(argv)
            finally:
                tracer.uninstall()
            op_problems: list[str] = []
            digest = check_outputs(wl, prep, first, reference, op_problems)
            first = first or digest
            failed += bool(op_problems)
            problems.extend(op_problems)
            if not traced:
                untraced_s.append(elapsed)
                continue
            spans = OpSpans(tracer.spans, tracer.op_id)
            missing = sorted(n for n in wl.required if not spans.count(n))
            if missing:
                raise TracerError(f"{name}: required spans recorded no calls: {', '.join(missing)}")
            per_op.append(layer_metrics(spans, *_queries_and_seeds(wl, prep)))
    tracer.write(os.path.join(out_dir, f"trace-{name}-seed{seed}.json"))

    if len({json.dumps(_counts(m), sort_keys=True) for m in per_op}) != 1:
        problems.append(f"counts differ between traced ops: {[_counts(m) for m in per_op]}")
        failed += 1
    # counts repeat exactly (checked above); times are the median over traced ops
    metrics = {k: (v if unit in COUNT_UNITS else statistics.median(m[k][0] for m in per_op), unit)
               for k, (v, unit) in per_op[0].items()}
    traced_s = metrics.pop("op_s.traced")[0]
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.overhead_s"] = (traced_s - statistics.median(untraced_s), "s")
    record = {"untraced_s": untraced_s, "traced_s": [m["op_s.traced"][0] for m in per_op]}
    return metrics, 2 * TRACED_OPS, failed, problems, record


def recorded_digest(name: str, wl: Workload, seed: int, host: dict) -> str | None:
    """Reference output digest for seed 0 at this scale. Floating-point results
    may differ in the last bits under another CPU or BLAS build, so the digest
    applies only on the platform it was recorded on."""
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    entry = ref["digests"].get(name, {})
    if seed != 0 or entry.get("n_items") != wl.n_items:
        return None
    if any(host[k] != v for k, v in ref["platform"].items()):
        print("perfbench: reference digest recorded on another platform; not compared",
              file=sys.stderr)
        return None
    return entry["digest"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="synth --seed for the inputs")
    parser.add_argument("--seconds", type=float, default=25.0, help="how long ops run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced in-process run")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gatedbias", "cli.py")):
        print("perfbench: src/gatedbias not found; run from the repository root",
              file=sys.stderr)
        return 2
    name, wl = args.workload, WORKLOADS[args.workload]
    host = host_info(args.seed)
    print("perfbench host: " + json.dumps(host), file=sys.stderr)
    reference = recorded_digest(name, wl, args.seed, host)
    out_dir = os.path.join(root, ".bench_out")
    work = os.path.join(root, ".bench_work", f"{name}-seed{args.seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        if args.trace:
            metrics, attempted, failed, problems, record = trace(
                name, wl, args.seed, work, src, out_dir, reference)
        else:
            metrics, attempted, failed, problems, record = measure(
                name, wl, args.seed, args.seconds, work, src, reference)
    except (BenchError, TracerError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(out_dir, f"{name}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": name, "n_items": wl.n_items, "host": host, "result": result,
                   "problems": problems, **record}, fh, indent=1)
    for problem in problems:
        print(f"perfbench check failed: {problem}", file=sys.stderr)
    for k, (v, u) in metrics.items():
        print(f"{name} {k}: {v:.6g} {u}", file=sys.stderr)
    print(f"{name} failed_ratio: {failed / attempted:.6g} ({failed} of {attempted} ops)",
          file=sys.stderr)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
