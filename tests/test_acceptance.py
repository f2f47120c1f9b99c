"""Acceptance battery: one test per shipping criterion.

Each test prints a single PASS/FAIL line on the real stdout so the gate is
readable straight off a pytest run, and asserts the stated tolerance or
runtime budget. The planted-signal criteria share one module-scoped fixture
that generates three datasets and runs the full method comparison on each.
"""

import json
import math
import os
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gatedbias import bias_head, evaluator
from gatedbias.cli import main as cli_main
from gatedbias.config import config_from_dict, load_config
from gatedbias.kg_store import build_gates, build_universe, make_grouping
from gatedbias.pipeline import run_compare, run_pipeline
from gatedbias.synth import SynthParams, generate
from helpers import (central_difference, make_features, make_head,
                     random_gates, random_store, random_table, store_from_labels)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"criterion {name}: FAIL", file=sys.__stdout__)
        raise
    else:
        print(f"criterion {name}: PASS", file=sys.__stdout__)


# ---------------------------------------------------------------------------
# shared planted-signal runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """Three planted datasets (skew 1) with the full three-method comparison."""
    root = str(tmp_path_factory.mktemp("planted"))
    t0 = time.perf_counter()
    runs = {}
    for ds_seed in (0, 1, 2):
        ds = os.path.join(root, f"ds{ds_seed}")
        assert cli_main(["synth", "--out", ds, "--seed", str(ds_seed)]) == 0
        cfg = load_config(os.path.join(ds, "config.yaml"))
        cmp_dir = os.path.join(root, f"cmp{ds_seed}")
        comparison = run_compare(cfg, cmp_dir)
        reports = {}
        for method in ("base", "patientnode", "gatedbias"):
            with open(os.path.join(cmp_dir, method, "report.json"),
                      encoding="utf-8") as fh:
                reports[method] = json.load(fh)
        runs[ds_seed] = {"dataset_dir": ds, "comparison": comparison,
                         "reports": reports}
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def skew0_report(tmp_path_factory):
    """One unskewed dataset: profiles saturate uniformly, no planted signal."""
    root = str(tmp_path_factory.mktemp("skew0"))
    ds = os.path.join(root, "ds")
    assert cli_main(["synth", "--out", ds, "--preference-skew", "0",
                     "--seed", "0"]) == 0
    cfg = load_config(os.path.join(ds, "config.yaml"))
    return run_pipeline(cfg, os.path.join(root, "run"))


def aggregate_mean(report, key):
    entry = report["report"]["aggregate"][key]
    assert entry["mean"] is not None, key
    return entry["mean"]


# ---------------------------------------------------------------------------
# 1. constant-bias invariance
# ---------------------------------------------------------------------------

def test_c1_constant_bias_invariance():
    with criterion("1 constant-bias invariance"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        store = random_store(rng, n_entities=100, n_relations=4,
                             n_train=400, n_test=200)
        table = random_table(rng, 100, 4, 16)
        queries = evaluator.query_set(store)
        base, *shifted = evaluator.compute_rank_table(
            queries, table, [np.zeros(100), *(np.full(100, c) for c in (-5.0, 0.3, 10.0))])
        for c, ranks in zip((-5.0, 0.3, 10.0), shifted):
            assert np.array_equal(ranks, base), f"c={c}"
        assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# 2. gradient correctness
# ---------------------------------------------------------------------------

def fd_error(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    return float(np.max(np.abs(analytic - numeric) / denom))


def gated_instance_error(rng):
    n_e, ua, ub, d = 12, 5, 5, 8
    ga, _ = random_gates(rng, n_e, ua)
    gb, _ = random_gates(rng, n_e, ub, group="B")
    table = random_table(rng, n_e, 2, d)
    f_a = make_features(ga, rng.random(ua))
    f_b = make_features(gb, rng.random(ub))
    h = rng.integers(0, n_e, size=6)
    r = rng.integers(0, 2, size=6)
    tp = rng.integers(0, n_e, size=6)
    tn = rng.integers(0, n_e, size=6)
    lam1, lam2 = 3e-4, 1e-4
    x = np.concatenate([rng.uniform(0.1, 0.5, ua + ub) * rng.choice([-1, 1], ua + ub),
                        rng.uniform(0.5, 1.5, 2)])

    def unpack(v):
        return make_head(v[:ua], v[ua:ua + ub], alpha_a=float(v[-2]), alpha_b=float(v[-1]))

    head = unpack(x)
    bias = bias_head.compute_bias(head, ga, gb, f_a, f_b)
    margins = (table.score_triples(h, r, tp) + bias.values[tp]
               - table.score_triples(h, r, tn) - bias.values[tn])
    if np.any(np.abs(1.0 - margins) < 1e-3):
        return None  # hinge kink: central differences straddle a corner

    _, grads = bias_head.head_loss_and_grad(head, table, ga, gb, f_a, f_b,
                                            h, r, tp, tn, lam1, lam2)
    analytic = np.concatenate([grads.w_a, grads.w_b, [grads.alpha_a, grads.alpha_b]])

    def loss_at(v):
        loss, _ = bias_head.head_loss_and_grad(unpack(v), table, ga, gb, f_a, f_b,
                                               h, r, tp, tn, lam1, lam2)
        return loss

    return fd_error(analytic, central_difference(loss_at, x))


def patientnode_instance_error(rng):
    n_e, d, hid = 12, 8, 4
    table = random_table(rng, n_e, 2, d)
    h = rng.integers(0, n_e, size=6)
    r = rng.integers(0, 2, size=6)
    tp = rng.integers(0, n_e, size=6)
    tn = rng.integers(0, n_e, size=6)
    sizes = (hid * d, hid, hid, 1)
    offs = np.cumsum((0,) + sizes)

    def unpack(v):
        return bias_head.PatientNodeHead(
            w1=v[offs[0]:offs[1]].reshape(hid, d).copy(),
            b1=v[offs[1]:offs[2]].copy(),
            w2=v[offs[2]:offs[3]].copy(),
            b2=float(v[offs[3]]))

    x = rng.uniform(0.1, 0.6, int(offs[-1])) * rng.choice([-1, 1], int(offs[-1]))
    head = unpack(x)
    ent = table.entity_emb.astype(np.float64)
    z = np.concatenate([(ent[tp] @ head.w1.T + head.b1).ravel(),
                        (ent[tn] @ head.w1.T + head.b1).ravel()])
    margins = (table.score_triples(h, r, tp) + head.bias_for(ent[tp])
               - table.score_triples(h, r, tn) - head.bias_for(ent[tn]))
    if np.any(np.abs(z) < 1e-3) or np.any(np.abs(1.0 - margins) < 1e-3):
        return None  # ReLU or hinge kink

    _, grads = bias_head.patientnode_loss_and_grad(head, table, h, r, tp, tn,
                                                   lambda1=2e-4, lambda2=1e-4)
    analytic = np.concatenate([grads.w1.ravel(), grads.b1, grads.w2, [grads.b2]])

    def loss_at(v):
        loss, _ = bias_head.patientnode_loss_and_grad(unpack(v), table, h, r, tp, tn,
                                                      lambda1=2e-4, lambda2=1e-4)
        return loss

    return fd_error(analytic, central_difference(loss_at, x))


def test_c2_gradients_match_finite_differences():
    with criterion("2 gradient correctness"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1)
        for instance_error in (gated_instance_error, patientnode_instance_error):
            checked = attempts = 0
            while checked < 50:
                attempts += 1
                assert attempts < 500, "kink guard rejected too many draws"
                err = instance_error(rng)
                if err is None:
                    continue
                assert err < 1e-4
                checked += 1
        assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# 3. sparse bias equals the dense formula
# ---------------------------------------------------------------------------

def test_c3_bias_oracle_equivalence():
    with criterion("3 bias oracle equivalence"):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n_e = int(rng.integers(1, 51))
            ua = int(rng.integers(1, 11))
            ub = int(rng.integers(1, 11))
            ga, da = random_gates(rng, n_e, ua, density=float(rng.uniform(0.1, 0.9)))
            gb, db = random_gates(rng, n_e, ub, density=float(rng.uniform(0.1, 0.9)),
                                  group="B")
            head = make_head(rng.standard_normal(ua), rng.standard_normal(ub),
                             alpha_a=float(rng.normal()), alpha_b=float(rng.normal()))
            f_a = make_features(ga, rng.random(ua))
            f_b = make_features(gb, rng.random(ub))
            bias = bias_head.compute_bias(head, ga, gb, f_a, f_b)
            dense = (head.alpha_a * (da @ (head.w_a * f_a))
                     + head.alpha_b * (db @ (head.w_b * f_b)))
            assert np.max(np.abs(bias.values - dense)) <= 1e-12


# ---------------------------------------------------------------------------
# 4. gates never read valid/test
# ---------------------------------------------------------------------------

def labeled_triples(rng, n, relations):
    out = set()
    while len(out) < n:
        out.add((f"e{rng.integers(20)}", relations[rng.integers(len(relations))],
                 f"e{rng.integers(20)}"))
    return sorted(out)


def test_c4_no_test_leakage_into_gates():
    with criterion("4 no test leakage"):
        rng = np.random.default_rng(3)
        rels = ("ra", "rb", "rt")
        for _ in range(20):
            train = labeled_triples(rng, 40, rels)
            train += [(f"e{i}", "rt", f"e{(i + 1) % 20}") for i in range(20)]
            train += [("e0", "ra", "e1"), ("e2", "rb", "e3")]
            stores = [store_from_labels(train, labeled_triples(rng, 10, rels),
                                        labeled_triples(rng, 10, rels))
                      for _ in range(2)]
            assert stores[0].num_entities == stores[1].num_entities
            for tag in ("A", "B"):
                unis, gates = [], []
                for s in stores:
                    grouping = make_grouping(s, ["ra"], ["rb"])
                    uni = build_universe(s, grouping, tag)
                    unis.append(uni)
                    gates.append(build_gates(s, uni))
                assert np.array_equal(unis[0].attrs, unis[1].attrs)
                assert unis[0].checksum() == unis[1].checksum()
                assert gates[0].indptr.tobytes() == gates[1].indptr.tobytes()
                assert gates[0].indices.tobytes() == gates[1].indices.tobytes()


# ---------------------------------------------------------------------------
# 5-7. planted-signal behavior
# ---------------------------------------------------------------------------

def test_c5_planted_counterfactual_responsiveness(planted):
    with criterion("5 planted-signal CR"):
        for ds_seed, run in planted["runs"].items():
            gated = run["reports"]["gatedbias"]
            cr_a = aggregate_mean(gated, "cr_A")
            cr_b = aggregate_mean(gated, "cr_B")
            assert cr_a < 0.0, f"dataset seed {ds_seed}: cr_A {cr_a}"
            assert abs(cr_b) < abs(cr_a), f"dataset seed {ds_seed}: {cr_b} vs {cr_a}"
        assert planted["elapsed"] < 120.0


def test_c6_placebo_collapse(planted, skew0_report):
    with criterion("6 placebo collapse"):
        for ds_seed, run in planted["runs"].items():
            gated = run["reports"]["gatedbias"]
            real = aggregate_mean(gated, "placebo_real_delta")
            shuffled = aggregate_mean(gated, "placebo_shuffled_delta")
            assert real > 0.0, f"dataset seed {ds_seed}"
            assert real >= 3.0 * abs(shuffled), \
                f"dataset seed {ds_seed}: {real} vs {shuffled}"
        real0 = aggregate_mean(skew0_report, "placebo_real_delta")
        shuffled0 = aggregate_mean(skew0_report, "placebo_shuffled_delta")
        ratio = real0 / shuffled0
        assert 0.3 <= ratio <= 3.0, f"skew-0 ratio {ratio}"


def test_c7_cohort_preservation(planted):
    with criterion("7 cohort preservation"):
        for ds_seed, run in planted["runs"].items():
            base = aggregate_mean(run["reports"]["base"], "mrr")
            gated = aggregate_mean(run["reports"]["gatedbias"], "mrr")
            pn = aggregate_mean(run["reports"]["patientnode"], "mrr")
            assert abs(gated - base) <= 0.01, f"dataset seed {ds_seed}"
            assert abs(pn - base) <= 0.02, f"dataset seed {ds_seed}"


# ---------------------------------------------------------------------------
# 8. metric formulas
# ---------------------------------------------------------------------------

def rank_table_of(ranks):
    return np.asarray(ranks, dtype=np.int64)


def test_c8_metric_formula_checks():
    with criterion("8 metric formula checks"):
        # power-of-two ranks: every term is a dyadic rational, so the means
        # are exact no matter how the summation associates
        m = evaluator.ranking_metrics(
            rank_table_of([1, 1, 1, 16, 16, 32, 32, 64, 64, 64]), ks=[1, 3, 10])
        assert m["mrr"] == (3 + 2 / 16 + 2 / 32 + 3 / 64) / 10
        for k in (1, 3, 10):
            assert m[f"hits@{k}"] == 3 / 10
            assert m[f"ndcg@{k}"] == 3 / 10  # ranks past k gain exactly 0

        # dense ranks 1..10 exercise the log2 discount itself
        m = evaluator.ranking_metrics(rank_table_of(list(range(1, 11))), ks=[1, 3, 10])
        assert abs(m["mrr"] - math.fsum(1.0 / r for r in range(1, 11)) / 10) <= 1e-12
        assert m["hits@1"] == 1 / 10
        assert m["hits@3"] == 3 / 10
        assert m["hits@10"] == 1.0
        assert abs(m["ndcg@3"]
                   - (1.0 + 1.0 / math.log2(3) + 1.0 / math.log2(4)) / 10) <= 1e-12
        assert abs(m["ndcg@10"]
                   - math.fsum(1.0 / math.log2(r + 1) for r in range(1, 11)) / 10) <= 1e-12

        pairs = np.column_stack([np.full(100, 0.5), np.full(100, 0.5)])
        delta, p = evaluator.alignment_delta_test(0.5, 0.5, pairs)
        assert delta == 0.0 and p == 1.0

        rng = np.random.default_rng(4)
        base = rng.random(100)
        delta, p = evaluator.alignment_delta_test(
            float(base.mean()), float(base.mean()) + 0.1,
            np.column_stack([base, base + 0.1]))
        assert p <= 0.001


# ---------------------------------------------------------------------------
# 9. determinism of full runs
# ---------------------------------------------------------------------------

def test_c9_run_determinism(planted, tmp_path):
    with criterion("9 run determinism"):
        cfg_path = os.path.join(planted["runs"][0]["dataset_dir"], "config.yaml")
        reports, rank_bytes = [], []
        for name in ("first", "second"):
            out = str(tmp_path / name)
            assert cli_main(["run", cfg_path, "--out", out]) == 0
            with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
                reports.append(json.load(fh))
            with open(os.path.join(out, "ranks.tsv"), "rb") as fh:
                rank_bytes.append(fh.read())
        for rep in reports:
            rep.pop("timestamp")
        assert reports[0] == reports[1]
        assert rank_bytes[0] == rank_bytes[1]


# ---------------------------------------------------------------------------
# 10. parameter budget
# ---------------------------------------------------------------------------

def test_c10_parameter_budget(planted, tmp_path):
    with criterion("10 parameter budget"):
        gated = planted["runs"][0]["reports"]["gatedbias"]
        uni = gated["universes"]
        assert gated["param_count"] == uni["size_a"] + uni["size_b"] + 2 == 42

        # wide attribute pool capped back down to |U_A|+|U_B| = 290
        ds = str(tmp_path / "wide")
        generate(SynthParams(n_items=200, n_attrs_per_group=300, n_users=50,
                             seed=0), ds)
        cfg = config_from_dict({
            "data": {"triples_dir": os.path.join(ds, "triples"),
                     "interactions_path": os.path.join(ds, "interactions.tsv"),
                     "grouping_path": os.path.join(ds, "grouping.yaml")},
            "backbone": {"dim": 16, "epochs": 3, "learning_rate": 0.5,
                         "batch_size": 256, "margin": 0.5},
            "head": {"batch_size": 256, "learning_rate": 0.1, "epochs": 2},
            "eval": {"seeds": [0], "n_shuffles": 2},
            "gates": {"cap_a": 20, "cap_b": 270},
            "method": "gatedbias",
        })
        report = run_pipeline(cfg, str(tmp_path / "capped"))
        assert report["universes"]["size_a"] == 20
        assert report["universes"]["size_b"] == 270
        assert report["param_count"] == 292
