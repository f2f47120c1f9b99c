"""Self-check of the benchmark at a tiny synth size.

    python3 -m pytest perfbench -q

Runs every workload once untraced and once traced and checks that each metric
BENCHMARK.json names is reported with its unit, that outputs pass their
checks, and that the tracer and the checkout check fail loudly.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import run
import tracer

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.chdir(REPO)
    for name, wl in list(run.WORKLOADS.items()):
        monkeypatch.setitem(run.WORKLOADS, name, dataclasses.replace(wl, n_items=20))


def _result(capsys, *args) -> tuple[int, dict | None, str]:
    code = run.main(["--seed", "1", "--seconds", "0.1", *args])
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    return code, json.loads(lines[-1]) if lines else None, captured.err


def test_workloads_match_benchmark_json():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_reported_with_its_unit(tiny, capsys, workload, trace, section):
    code, result, _ = _result(capsys, "--workload", workload, "--trace", str(trace))
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_later_ops_must_match_the_first(tmp_path):
    (tmp_path / "report.json").write_text('{"timestamp": "t0", "x": 1}')
    (tmp_path / "ranks.tsv").write_text("seed\n")
    wl = run.WORKLOADS["eval-gated"]
    prep = run.Prepared(config=str(tmp_path / "config.yaml"), out=str(tmp_path), digest="")
    problems = []
    first = run.check_outputs(wl, prep, None, None, problems)
    assert first and not problems
    (tmp_path / "report.json").write_text('{"timestamp": "t1", "x": 1}')
    assert run.check_outputs(wl, prep, first, None, problems) == first and not problems
    (tmp_path / "ranks.tsv").write_text("seed\n0\n")
    run.check_outputs(wl, prep, first, None, problems)
    assert problems == ["outputs differ from the first op"]


def test_tracer_names_a_missing_attribute(tiny, capsys, monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("gatedbias.pipeline", "gone"),))
    code, result, err = _result(capsys, "--workload", "compare-desk", "--trace", "1")
    assert code != 0 and result is None
    assert "gatedbias.pipeline.gone" in err


def test_fails_outside_a_checkout(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(REPO, "perfbench", "run.py"),
                           "--workload", "train-base", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
