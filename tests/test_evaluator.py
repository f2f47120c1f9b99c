import dataclasses
import logging
import tracemalloc

import numpy as np
import pytest

from gatedbias import evaluator
from gatedbias.bias_head import compute_bias
from gatedbias.config import EvalSettings
from gatedbias.evaluator import (ALIGNMENT_K, aligned_set, alignment_delta_test,
                                 compute_rank_table, counterfactual_responsiveness,
                                 eval_report, gated_battery, placebo_validation,
                                 query_set, ranking_metrics)
from helpers import (gates_from_dense, make_features, make_head, mask_of, random_gates,
                     random_store, random_table, store_from_labels)
from oracles import (alignment_at_k, alignment_per_query, filtered_rank, query_filters,
                     topk_filtered)


def zero_table(n_entities, n_relations=1, dim=4):
    from gatedbias.backbone import EmbeddingTable
    return EmbeddingTable(np.zeros((n_entities + n_relations, dim), dtype=np.float32),
                          n_entities)


# ---------------------------------------------------------------------------
# filtered_rank / topk_filtered (the per-query oracles of the engine)
# ---------------------------------------------------------------------------

def test_filtered_rank_top_scorer():
    assert filtered_rank(np.array([3.0, 2.0, 1.0]), 0, np.empty(0, dtype=np.int64)) == 1


def test_filtered_rank_drops_filtered_competitors():
    # entity 2 outscores the true tail but is filtered out
    assert filtered_rank(np.array([1.0, 2.0, 3.0]), 0, np.array([2])) == 2


def test_filtered_rank_keeps_true_tail_even_if_filtered():
    assert filtered_rank(np.array([3.0, 1.0, 2.0]), 0, np.array([0, 2])) == 1


def test_filtered_rank_ties_resolve_to_block_middle():
    scores = np.full(5, 7.0)
    # 4 tied competitors: rank = 1 + 0 + 4 // 2
    assert filtered_rank(scores, 2, np.empty(0, dtype=np.int64)) == 3
    assert filtered_rank(np.array([5.0, 5.0]), 0, np.empty(0, dtype=np.int64)) == 1
    assert filtered_rank(np.array([5.0, 5.0, 5.0, 5.0]), 1, np.empty(0, dtype=np.int64)) == 2


def test_filtered_rank_out_of_range_raises():
    with pytest.raises(ValueError, match="out of range"):
        filtered_rank(np.array([1.0, 2.0]), 2, np.empty(0, dtype=np.int64))


def test_filtering_never_hurts_the_true_tail():
    rng = np.random.default_rng(0)
    for _ in range(30):
        scores = rng.standard_normal(20)
        true = int(rng.integers(20))
        filt = rng.choice(20, size=rng.integers(0, 10), replace=False)
        plain = filtered_rank(scores, true, np.empty(0, dtype=np.int64))
        assert filtered_rank(scores, true, filt) <= plain


def test_topk_filtered_ties_by_id_and_drops_filtered():
    scores = np.array([1.0, 1.0, 1.0])
    assert topk_filtered(scores, np.empty(0, dtype=np.int64), 2).tolist() == [0, 1]
    assert topk_filtered(scores, np.array([0]), 2).tolist() == [1, 2]
    assert topk_filtered(scores, np.array([0, 1, 2]), 2).size == 0


# ---------------------------------------------------------------------------
# rank tables and metrics
# ---------------------------------------------------------------------------

def test_compute_rank_table_matches_manual_loop():
    store = store_from_labels(
        train=[("a", "r", "b"), ("a", "r", "c"), ("d", "s", "b"), ("e", "r", "a")],
        valid=[("a", "r", "d")],
        test=[("a", "r", "e"), ("d", "s", "c"), ("e", "r", "b")])
    rng = np.random.default_rng(1)
    table = random_table(rng, store.num_entities, store.num_relations, 4)
    bias = rng.standard_normal(store.num_entities)

    queries = query_set(store)
    got, = compute_rank_table(queries, table, [bias])

    known_tails = {}
    for h, r, t in [*store.train.tolist(), *store.valid.tolist()]:
        known_tails.setdefault((h, r), set()).add(t)
    for i, (h, r, t) in enumerate(store.test):
        scores = table.score_all_tails(int(h), int(r)) + bias
        known = set(known_tails.get((int(h), int(r)), ()))
        known.discard(int(t))
        kept = [j for j in range(store.num_entities) if j not in known]
        s_true = scores[int(t)]
        greater = sum(1 for j in kept if scores[j] > s_true)
        equal = sum(1 for j in kept if scores[j] == s_true) - 1
        assert got[i] == 1 + greater + equal // 2
        key = queries.key_of[i]
        assert (*queries.keys[key], queries.true_tails[i]) == (h, r, t)


def test_compute_rank_table_empty_split_raises():
    store = store_from_labels(train=[("a", "r", "b")])
    table = zero_table(store.num_entities)
    with pytest.raises(ValueError, match="no test triples"):
        compute_rank_table(query_set(store), table)


def test_query_filters_order_and_content():
    store = store_from_labels(train=[("a", "r", "b"), ("a", "r", "c")],
                              test=[("a", "r", "d"), ("b", "r", "a")])
    queries = query_set(store)
    assert len(queries) == 2
    filters = query_filters(store)
    assert filters[0].tolist() == sorted([store.entity_vocab["b"],
                                          store.entity_vocab["c"]])
    assert filters[1].size == 0
    assert queries.filter_indptr.tolist() == [0, 2, 2]
    assert queries.filter_indices.tolist() == filters[0].tolist()
    assert queries.filter_indices.dtype == np.int32
    assert queries.true_tails.tolist() == store.test[:, 2].tolist()


def rank_table_of(ranks):
    return np.asarray(ranks, dtype=np.int64)


def test_ranking_metrics_perfect_ranks():
    m = ranking_metrics(rank_table_of([1, 1, 1]), ks=[1, 3])
    assert m["mrr"] == 1.0
    assert m["hits@1"] == 1.0 and m["hits@3"] == 1.0
    assert m["ndcg@1"] == 1.0 and m["ndcg@3"] == 1.0


def test_ranking_metrics_hand_values():
    m = ranking_metrics(rank_table_of([1, 2]), ks=[1, 3])
    assert m["mrr"] == 0.75
    assert m["hits@1"] == 0.5
    assert m["hits@3"] == 1.0
    assert m["ndcg@1"] == 0.5  # rank-2 item contributes nothing at k=1
    assert np.isclose(m["ndcg@3"], (1.0 + 1.0 / np.log2(3.0)) / 2.0, atol=1e-12)


def test_ranking_metrics_rank_beyond_k():
    m = ranking_metrics(rank_table_of([11]), ks=[10])
    assert m["hits@10"] == 0.0
    assert m["ndcg@10"] == 0.0
    assert np.isclose(m["mrr"], 1.0 / 11.0)


def test_ranking_metrics_bounds_and_monotonicity():
    rng = np.random.default_rng(2)
    table = rank_table_of(rng.integers(1, 40, size=60))
    m = ranking_metrics(table, ks=[1, 3, 10])
    assert 0.0 < m["mrr"] <= 1.0
    assert m["hits@1"] <= m["hits@3"] <= m["hits@10"]
    for k in (1, 3, 10):
        assert m[f"ndcg@{k}"] <= m[f"hits@{k}"]
        assert m[f"ndcg@{k}"] >= m[f"hits@{k}"] / np.log2(k + 1.0) - 1e-12


def test_ranking_metrics_empty_raises():
    with pytest.raises(ValueError, match="empty"):
        ranking_metrics(np.empty(0, dtype=np.int64), ks=[1])


# ---------------------------------------------------------------------------
# aligned set
# ---------------------------------------------------------------------------

def contrib_of(contrib_a, contrib_b):
    """The (2, |E|) group contributions, as compute_bias returns them."""
    return np.array([contrib_a, contrib_b], dtype=np.float64)


def test_aligned_set_single_positive():
    mask, tau = aligned_set(contrib_of([2.0, 0.0, -1.0], [0.0, 0.0, 0.0]), 60)
    assert mask.dtype == bool
    assert mask.tolist() == [True, False, False]
    assert tau == 2.0


def test_aligned_set_no_positives_is_empty(caplog):
    with caplog.at_level(logging.WARNING, logger="gatedbias.evaluator"):
        mask, tau = aligned_set(contrib_of([0.0, -1.0], [0.0, -2.0]), 70)
    assert mask.dtype == bool
    assert mask.tolist() == [False, False]
    assert tau == 0.0
    assert "empty" in caplog.text


def test_aligned_set_nearest_rank_percentile():
    # 10 positives with margins 1..10; ceil(0.7 * 10) = 7 -> tau = 7
    contrib_a = np.arange(1.0, 11.0)
    mask, tau = aligned_set(contrib_of(contrib_a, np.zeros(10)), 70)
    assert tau == 7.0
    assert np.flatnonzero(mask).tolist() == [6, 7, 8, 9]


def test_aligned_set_monotone_in_percentile():
    rng = np.random.default_rng(3)
    contrib = contrib_of(rng.random(40), rng.random(40) * 0.5)
    low, low_tau = aligned_set(contrib, 60)
    high, high_tau = aligned_set(contrib, 80)
    assert not (high & ~low).any()
    assert high_tau >= low_tau


def test_aligned_set_members_satisfy_definition():
    rng = np.random.default_rng(4)
    contrib = contrib_of(rng.standard_normal(30), rng.standard_normal(30))
    mask, tau = aligned_set(contrib, 80)
    positive = np.maximum(contrib[0], contrib[1]) > 0
    margins = np.abs(contrib[0] - contrib[1])
    assert mask.any()
    assert np.array_equal(mask, positive & (margins >= tau))


def test_aligned_set_percentile_validation(caplog):
    # the range of percentile_p is checked by the config (eval.percentile_p)
    contrib = contrib_of([1.0], [0.0])
    with caplog.at_level(logging.WARNING, logger="gatedbias.evaluator"):
        aligned_set(contrib, 50)
    assert "unusual percentile_p" in caplog.text


# ---------------------------------------------------------------------------
# alignment@k
# ---------------------------------------------------------------------------

def scores_by_head(table):
    return lambda h, r: np.asarray(table[h], dtype=np.float64)


def test_alignment_full_and_empty_sets():
    queries = [(0, 0), (1, 0)]
    filters = [np.empty(0, dtype=np.int64)] * 2
    fn = scores_by_head({0: [3.0, 2.0, 1.0, 0.0], 1: [0.0, 1.0, 2.0, 3.0]})
    everyone = np.ones(4, dtype=bool)
    nobody = np.zeros(4, dtype=bool)
    assert alignment_at_k(queries, filters, fn, everyone, k=2) == 1.0
    assert alignment_at_k(queries, filters, fn, nobody, k=2) == 0.0


def test_alignment_hand_enumeration():
    # query 0 top-2 = {0, 1} hits member 0; query 1 top-2 = {2, 3} hits nothing
    queries = [(0, 0), (1, 0)]
    filters = [np.empty(0, dtype=np.int64)] * 2
    fn = scores_by_head({0: [9.0, 8.0, 1.0, 0.0], 1: [0.0, 1.0, 8.0, 9.0]})
    aligned = mask_of([0], 4)
    per_query = alignment_per_query(queries, filters, fn, aligned, k=2)
    assert per_query.tolist() == [0.5, 0.0]
    assert alignment_at_k(queries, filters, fn, aligned, k=2) == 0.25


def test_alignment_respects_filters():
    queries = [(0, 0)]
    fn = scores_by_head({0: [9.0, 8.0, 1.0, 0.0]})
    aligned = mask_of([0], 4)
    unfiltered = alignment_at_k(queries, [np.empty(0, dtype=np.int64)], fn, aligned, k=2)
    filtered = alignment_at_k(queries, [np.array([0])], fn, aligned, k=2)
    assert unfiltered == 0.5
    assert filtered == 0.0


def test_alignment_validation():
    aligned = mask_of([0], 2)
    fn = scores_by_head({0: [1.0, 0.0]})
    with pytest.raises(ValueError, match="at least one query"):
        alignment_at_k([], [], fn, aligned, k=2)
    with pytest.raises(ValueError, match="k must be"):
        alignment_per_query([(0, 0)], [np.empty(0, dtype=np.int64)], fn, aligned, k=0)
    with pytest.raises(ValueError, match="disagree"):
        alignment_per_query([(0, 0)], [], fn, aligned, k=1)


def test_engine_alignment_validation():
    """The library's refusals: k below 1, no query, and an aligned set that
    is not a bool mask over the table's entities. A 1-entity mask would
    broadcast against every score row and count each top-k place a hit."""
    rng = np.random.default_rng(0)
    store = random_store(rng, 30, 3, 60, 12)
    table = random_table(rng, 30, 3, 4)
    queries = query_set(store)
    aligned = mask_of([0], 30)
    with pytest.raises(ValueError, match="k must be >= 1"):
        evaluator.alignment_per_query(queries, table, None, aligned, 0)
    empty = query_set(dataclasses.replace(store, test=store.test[:0]))
    with pytest.raises(ValueError, match="at least one query"):
        evaluator.alignment_per_query(empty, table, None, aligned, 3)
    for bad in (np.ones(1, dtype=bool), np.flatnonzero(aligned)):
        with pytest.raises(ValueError, match="bool mask over the 30 entities"):
            evaluator.alignment_per_query(queries, table, None, bad, 3)
    got = evaluator.alignment_per_query(queries, table, None, aligned, 3)
    assert got.shape == (1, len(queries.keys))
    assert got.max() < 1.0


def test_alignment_delta_test_identical_pairs():
    pairs = np.column_stack([np.full(20, 0.3), np.full(20, 0.3)])
    assert alignment_delta_test(pairs[:, 1] - pairs[:, 0]) == 1.0


def test_alignment_delta_test_detects_shift():
    rng = np.random.default_rng(5)
    base = rng.random(100)
    pairs = np.column_stack([base, base + 0.1])
    assert alignment_delta_test(pairs[:, 1] - pairs[:, 0]) <= 0.001


def test_alignment_delta_test_validation():
    with pytest.raises(ValueError, match="1-D"):
        alignment_delta_test(np.zeros((5, 2)))  # the old (n, 2) pairs
    with pytest.raises(ValueError, match="1-D"):
        alignment_delta_test(np.float64(0.5))
    with pytest.raises(ValueError, match="at least 2"):
        alignment_delta_test(np.zeros(1))
    with pytest.raises(ValueError, match="at least 2"):
        alignment_delta_test(np.zeros(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [0, 1])
def test_alignment_delta_test_refuses_non_finite_pairs(bad, column):
    # a NaN difference never ties the observed statistic, so it read as p ~ 1e-4;
    # a non-finite base or adapted value gives a NaN or ±inf difference
    pairs = np.column_stack([np.zeros(20), np.full(20, 0.1)])
    pairs[3, column] = bad
    diffs = pairs[:, 1] - pairs[:, 0]
    assert not np.isfinite(diffs[3])
    with pytest.raises(ValueError, match="finite"):
        alignment_delta_test(diffs)


@pytest.mark.parametrize("n_resamples", [0, -5])
def test_alignment_delta_test_refuses_fewer_than_one_resample(n_resamples):
    # n_resamples=-5 gave the p-value (0 + 1) / (-5 + 1) = -0.25
    with pytest.raises(ValueError, match="n_resamples"):
        alignment_delta_test(np.arange(5.0), n_resamples=n_resamples)


# ---------------------------------------------------------------------------
# counterfactual responsiveness
# ---------------------------------------------------------------------------

def gated_setup(store, head, gates, features):
    """Queries, zero backbone, head inputs and group contributions of one
    trained head."""
    return {"queries": query_set(store), "table": zero_table(store.num_entities),
            "head": head, "gates": gates, "features": features,
            "contrib": compute_bias(head, gates, features)}


def cr_of(setup, group, epsilon):
    """CR entries of one group, its boosted bias computed from hand-scaled features."""
    f_a, f_b = setup["features"]
    boost = 1.0 + epsilon
    boosted = compute_bias(setup["head"], setup["gates"], (f_a * boost if group == "A" else f_a,
                                                           f_b * boost if group == "B" else f_b))
    ranks, after = compute_rank_table(setup["queries"], setup["table"],
                                      [np.add(*setup["contrib"]), np.add(*boosted)])
    contrib = setup["contrib"][0 if group == "A" else 1]
    return counterfactual_responsiveness(contrib, group, setup["queries"].true_tails, ranks,
                                         after)


def battery_of(setup, **settings):
    """gated_battery of the setup's head under EvalSettings(**settings), seed 0."""
    return gated_battery(setup["queries"], setup["table"], setup["head"], setup["gates"],
                         setup["features"], setup["contrib"], EvalSettings(**settings), seed=0)


def crossing_context():
    """Two test tails with bias from different groups: t_in (A, bias 1.0) sits
    behind t_out (B, bias 2.0), so boosting A can flip the order."""
    store = store_from_labels(
        train=[("q0", "r", "pad0"), ("q1", "r", "pad1")],
        test=[("q0", "r", "t_in"), ("q1", "r", "t_out")])
    t_in = store.entity_vocab["t_in"]
    t_out = store.entity_vocab["t_out"]
    n = store.num_entities
    dense_a = np.zeros((n, 1))
    dense_a[t_in, 0] = 1
    dense_b = np.zeros((n, 1))
    dense_b[t_out, 0] = 1
    ga = gates_from_dense(dense_a)
    gb = gates_from_dense(dense_b, group="B")
    head = make_head([2.0], [4.0])
    return gated_setup(store, head, (ga, gb), (make_features(ga, [0.5]), make_features(gb, [0.5])))


def test_cr_zero_epsilon_is_exactly_zero():
    assert cr_of(crossing_context(), "A", 0.0) == {"cr_A": 0.0, "cr_A_pct_improved": 0.0}


def test_cr_negative_when_boost_flips_the_order():
    # bias(t_in) goes 1.0 -> 2.5, overtaking t_out at 2.0
    res = cr_of(crossing_context(), "A", 1.5)
    assert res["cr_A"] == -2.0  # in-group delta -1, out-group delta +1
    assert res["cr_A_pct_improved"] == 1.0


def test_cr_other_group_unmoved_scores_zero():
    # boosting B only widens an existing lead; no rank crosses
    assert cr_of(crossing_context(), "B", 1.5)["cr_B"] == 0.0


def test_gated_battery_boosts_each_group_in_turn():
    setup = crossing_context()
    ranks, entries = battery_of(setup, epsilon=1.5, n_shuffles=1)
    assert ranks.tolist() == compute_rank_table(setup["queries"], setup["table"],
                                                [np.add(*setup["contrib"])])[0].tolist()
    assert (entries["cr_A"], entries["cr_A_pct_improved"]) == (-2.0, 1.0)
    assert entries["cr_B"] == 0.0


def test_gated_battery_adapted_bias_keeps_negative_zeros(monkeypatch):
    # negative alphas give an entity with empty gate rows in both groups
    # -0.0 + -0.0 = -0.0; a sum over axis 0 would hand the engine +0.0
    setup = crossing_context()
    head = setup["head"]
    head.alpha_a, head.alpha_b = -1.0, -1.0
    contrib = setup["contrib"] = compute_bias(head, setup["gates"], setup["features"])
    want = (contrib[0] + contrib[1]).view(np.uint64)
    assert (want == np.float64(-0.0).view(np.uint64)).any()
    seen = []
    # the adapted bias is row 0 of the rank stack and row 1 of the alignment one
    for name, row in (("compute_rank_table", 0), ("alignment_per_query", 1)):
        def record(queries, table, biases, *args, _engine=getattr(evaluator, name), _row=row):
            seen.append(np.asarray(biases)[_row])
            return _engine(queries, table, biases, *args)
        monkeypatch.setattr(evaluator, name, record)
    battery_of(setup, n_shuffles=1)
    assert len(seen) == 2
    for adapted in seen:
        assert np.array_equal(adapted.view(np.uint64), want)


def test_cr_one_sided_split_returns_none(caplog):
    store = store_from_labels(train=[("q", "r", "pad")],
                              test=[("q", "r", "t1"), ("q", "r", "t2")])
    n = store.num_entities
    dense_a = np.zeros((n, 1))
    dense_a[store.entity_vocab["t1"], 0] = 1
    dense_a[store.entity_vocab["t2"], 0] = 1
    ga = gates_from_dense(dense_a)
    gb = gates_from_dense(np.zeros((n, 1)), group="B")
    head = make_head([1.0], [0.0])
    setup = gated_setup(store, head, (ga, gb), (make_features(ga, [0.5]),
                                                make_features(gb, [0.0])))
    with caplog.at_level(logging.WARNING, logger="gatedbias.evaluator"):
        assert cr_of(setup, "A", 0.1) == {"cr_A": None, "cr_A_pct_improved": None}
        _, entries = battery_of(setup, n_shuffles=1)
    assert "undefined" in caplog.text
    assert entries["cr_A"] is None and entries["cr_A_pct_improved"] is None


# ---------------------------------------------------------------------------
# placebo validation
# ---------------------------------------------------------------------------

def placebo_context(w_a=3.0):
    """One aligned entity outside the default top-10; constant feature vectors
    make every shuffle a no-op, so shuffled deltas must equal the real one.
    Both test queries share the key (q, r), so they share their alignment."""
    train = [(f"h{i}", "r", f"pad{i}") for i in range(13)]
    store = store_from_labels(train=train, test=[("q", "r", "tgt"), ("q", "r", "pad0")])
    n = store.num_entities
    tgt = store.entity_vocab["tgt"]
    dense_a = np.zeros((n, 2))
    dense_a[tgt, 0] = 1
    ga = gates_from_dense(dense_a)
    gb = gates_from_dense(np.zeros((n, 2)), group="B")
    head = make_head([w_a, 0.0], [0.0, 0.0])
    return gated_setup(store, head, (ga, gb), (make_features(ga, [0.4, 0.4]),
                                               make_features(gb, [0.25, 0.25])))


def test_placebo_validation_hand_rows():
    # means of the rows base, adapted, then one per shuffle:
    # [0.0, 0.5], [0.5, 0.5], [0.25, 0.25], [0.0, 0.0]; shuffled deltas 0.0 and -0.25
    res = placebo_validation([0.25, 0.5, 0.25, 0.0])
    assert res == {"placebo_real_delta": 0.25, "placebo_shuffled_delta": -0.125,
                   "placebo_ratio": -2.0}


@pytest.mark.parametrize("rows", [0, 1, 2])
def test_placebo_validation_refuses_fewer_than_three_rows(rows):
    # one mean per alignment row; with no shuffled row the shuffled mean was
    # NaN, with a RuntimeWarning
    with pytest.raises(ValueError, match="at least one shuffled"):
        placebo_validation([0.0] * rows)


def test_placebo_constant_features_give_ratio_one():
    _, entries = battery_of(placebo_context(), n_shuffles=3)
    # the target entity enters the top-10 only under the real bias
    assert entries["placebo_real_delta"] == 1.0 / ALIGNMENT_K
    assert np.isclose(entries["placebo_shuffled_delta"], entries["placebo_real_delta"],
                      atol=1e-15)
    assert np.isclose(entries["placebo_ratio"], 1.0, atol=1e-12)
    assert entries["alignment@10_delta"] == entries["placebo_real_delta"]
    assert entries["aligned_set_size"] == 1


def test_placebo_zero_bias_has_no_ratio(caplog):
    with caplog.at_level(logging.WARNING, logger="gatedbias.evaluator"):
        _, entries = battery_of(placebo_context(w_a=0.0), n_shuffles=2)
    assert entries["placebo_real_delta"] == 0.0
    assert entries["placebo_shuffled_delta"] == 0.0
    assert entries["placebo_ratio"] is None


def traced_peak(fn, *args, **kwargs):
    """tracemalloc's peak over one call of fn."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_battery_memory_grows_with_shuffles_by_biases_and_keys_only():
    """Each extra shuffle adds one bias vector, its stack row, and per key an
    int64 hit count and a float64 rate; nothing per query. 5,000 queries on
    30 keys: a per-query alignment row would cost 40 KB a shuffle."""
    rng = np.random.default_rng(0)
    n_e = 1000
    store = random_store(rng, n_entities=n_e, n_relations=3, n_train=2000, n_test=5000)
    store.test[:, 0] %= 10  # ten heads by three relations: 30 keys
    ga, _ = random_gates(rng, n_e, 6)
    gb, _ = random_gates(rng, n_e, 4, group="B")
    head = make_head(rng.standard_normal(6), rng.standard_normal(4))
    setup = gated_setup(store, head, (ga, gb), (rng.random(6), rng.random(4)))
    setup["table"] = random_table(rng, n_e, 3, 8)
    n_keys = len(setup["queries"].keys)
    assert n_keys == 30
    battery_of(setup, n_shuffles=2)  # one-time allocations stay out of both peaks
    growth = (traced_peak(battery_of, setup, n_shuffles=20)
              - traced_peak(battery_of, setup, n_shuffles=2))
    slack = 64 * 1024  # allocator and interpreter noise
    assert growth <= 18 * (2 * n_e + 2 * n_keys) * 8 + slack


def test_engine_memory_grows_with_queries_by_the_rank_tables_grouping_only():
    """22 biases over 30 keys (1,000 entities), from 5,000 to 20,000 queries.
    The rank table's peak less its (22, Q) int64 output grows by ~73 B per
    added query, whatever the stack: the queries grouped by key and their
    per-chunk lookups. Alignment@k keeps nothing per query, so its peak stays
    flat. A (22, Q) float64 temporary would add 176 B per query to either."""
    rng = np.random.default_rng(0)
    n_e, n_biases = 1000, 22
    store = random_store(rng, n_entities=n_e, n_relations=3, n_train=2000, n_test=20000)
    store.test[:, 0] %= 10  # ten heads by three relations: 30 keys
    table = random_table(rng, n_e, 3, 8)
    biases = rng.standard_normal((n_biases, n_e))
    aligned = rng.random(n_e) < 0.1
    small = query_set(dataclasses.replace(store, test=store.test[:5000]))
    large = query_set(store)
    assert len(small.keys) == len(large.keys) == 30
    compute_rank_table(small, table, biases)  # one-time allocations stay out of the peaks
    evaluator.alignment_per_query(small, table, biases, aligned, ALIGNMENT_K)

    def rank_peak(queries):
        return traced_peak(compute_rank_table, queries, table, biases) - n_biases * len(queries) * 8

    def alignment_peak(queries):
        return traced_peak(evaluator.alignment_per_query, queries, table, biases, aligned,
                           ALIGNMENT_K)

    slack = 64 * 1024  # allocator and interpreter noise
    assert rank_peak(large) - rank_peak(small) <= 10 * 8 * (len(large) - len(small)) + slack
    assert alignment_peak(large) - alignment_peak(small) <= slack


def test_query_set_memory_follows_the_triples_not_entities_by_relations():
    """200,000 entities by 1,000 relations, 20,000 train and 2,000 test
    triples on 20 hub heads: every key has a filter. The filters are keyed by
    the test (h, r) codes, so the peak follows the triples: ~1.5 MiB. One
    int64 slot per (h, r) would take 1.6 GB."""
    rng = np.random.default_rng(0)
    store = random_store(rng, n_entities=200_000, n_relations=1_000, n_train=20_000,
                         n_test=2_000)
    for split in (store.train, store.test):
        split[:, 0] %= 20
        split[:, 1] %= 50
    queries = query_set(store)  # one-time allocations stay out of the peak
    assert (np.diff(queries.filter_indptr) > 0).all()
    assert traced_peak(query_set, store) < 4 * 2**20


def test_query_set_memory_skips_train_triples_without_a_test_head():
    """200,000 train triples whose head no test triple has add nothing to any
    filter, and at most a few bytes each to the peak: the known triples are
    coded only where the head is a test head. Coding every train+valid
    triple costs ~49 B a triple."""
    rng = np.random.default_rng(0)
    store = random_store(rng, n_entities=10_000, n_relations=10, n_train=2_000, n_test=500)
    for split in (store.train, store.test):
        split[:, 0] %= 100  # test heads among 0..99
    extra = random_store(rng, n_entities=10_000, n_relations=10, n_train=200_000,
                         n_test=0).train
    extra[:, 0] = 100 + extra[:, 0] % 9_900  # heads no test triple has
    more = dataclasses.replace(store, train=np.concatenate([store.train, extra]))
    small, large = query_set(store), query_set(more)  # one-time allocations stay out
    for name in ("key_of", "keys", "filter_indptr", "filter_indices"):
        assert np.array_equal(getattr(small, name), getattr(large, name))
    slack = 64 * 1024  # allocator and interpreter noise
    assert traced_peak(query_set, more) - traced_peak(query_set, store) <= 4 * len(extra) + slack


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_mean_stderr_hand_values():
    """eval_report's mean and stderr of one entry over the seeds."""
    def aggregate_of(values):
        entry = eval_report(list(range(len(values))), [{"x": v} for v in values])["aggregate"]
        return entry["x"]["mean"], entry["x"]["stderr"]

    m, se = aggregate_of([1.0, 2.0, 3.0])
    assert m == 2.0
    assert se == 1.0 / np.sqrt(3.0)
    assert aggregate_of([5.0]) == (5.0, None)
    assert aggregate_of([1.0, None, 3.0]) == (2.0, 1.0)  # std([1, 3], ddof=1) = sqrt(2)
    assert aggregate_of([None, None]) == (None, None)
    assert eval_report([], [])["aggregate"] == {}  # no seed: no entry to aggregate


def test_eval_report_aggregate():
    per_seed = [{"mrr": 0.5, "ratio": None}, {"mrr": 0.7, "ratio": None}]
    out = eval_report([0, 1], per_seed)
    assert out["seeds"] == [0, 1] and out["per_seed"] is per_seed
    agg = out["aggregate"]
    assert list(agg) == ["mrr", "ratio"]
    assert agg["mrr"]["mean"] == 0.6
    assert agg["mrr"]["n"] == 2
    assert agg["mrr"]["stderr"] is not None
    assert agg["ratio"] == {"mean": None, "stderr": None, "n": 0}


def test_eval_report_aggregate_partial_none():
    agg = eval_report([0, 1], [{"cr": -1.0}, {"cr": None}])["aggregate"]
    assert agg["cr"] == {"mean": -1.0, "stderr": None, "n": 1}
