import logging

import numpy as np
import pytest

from gatedbias.bias_head import BiasVector, compute_bias
from gatedbias.config import EvalSettings
from gatedbias.evaluator import (ALIGNMENT_K, AlignedSet, aligned_set, alignment_delta_test,
                                 compute_rank_table, counterfactual_responsiveness,
                                 eval_report, gated_battery, mean_stderr, placebo_validation,
                                 query_set, ranking_metrics)
from helpers import (gates_from_dense, make_features, make_head, random_table,
                     store_from_labels)
from oracles import (alignment_at_k, alignment_per_query, filtered_rank, query_filters,
                     topk_filtered)


def zero_table(n_entities, n_relations=1, dim=4):
    from gatedbias.backbone import EmbeddingTable
    return EmbeddingTable(np.zeros((n_entities, dim), dtype=np.float32),
                          np.zeros((n_relations, dim), dtype=np.float32))


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
        assert (queries.key_heads[key], queries.key_rels[key], queries.true_tails[i]) == (h, r, t)


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
    assert filters[0].tolist() == sorted([store.entity_vocab.id("b"),
                                          store.entity_vocab.id("c")])
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

def bias_of(contrib_a, contrib_b):
    a = np.asarray(contrib_a, dtype=np.float64)
    b = np.asarray(contrib_b, dtype=np.float64)
    return BiasVector(values=a + b, contrib_a=a, contrib_b=b)


def test_aligned_set_single_positive():
    aligned = aligned_set(bias_of([2.0, 0.0, -1.0], [0.0, 0.0, 0.0]), 60)
    assert aligned.members.tolist() == [0]
    assert aligned.threshold_tau == 2.0
    assert len(aligned) == 1
    assert aligned.mask().tolist() == [True, False, False]


def test_aligned_set_no_positives_is_empty(caplog):
    with caplog.at_level(logging.WARNING, logger="gatedbias.evaluator"):
        aligned = aligned_set(bias_of([0.0, -1.0], [0.0, -2.0]), 70)
    assert len(aligned) == 0
    assert "empty" in caplog.text


def test_aligned_set_nearest_rank_percentile():
    # 10 positives with margins 1..10; ceil(0.7 * 10) = 7 -> tau = 7
    contrib_a = np.arange(1.0, 11.0)
    aligned = aligned_set(bias_of(contrib_a, np.zeros(10)), 70)
    assert aligned.threshold_tau == 7.0
    assert aligned.members.tolist() == [6, 7, 8, 9]


def test_aligned_set_monotone_in_percentile():
    rng = np.random.default_rng(3)
    bias = bias_of(rng.random(40), rng.random(40) * 0.5)
    low = aligned_set(bias, 60)
    high = aligned_set(bias, 80)
    assert set(high.members.tolist()) <= set(low.members.tolist())
    assert high.threshold_tau >= low.threshold_tau


def test_aligned_set_members_satisfy_definition():
    rng = np.random.default_rng(4)
    bias = bias_of(rng.standard_normal(30), rng.standard_normal(30))
    aligned = aligned_set(bias, 80)
    positive = np.maximum(bias.contrib_a, bias.contrib_b) > 0
    margins = np.abs(bias.contrib_a - bias.contrib_b)
    for t in aligned.members:
        assert positive[t] and margins[t] >= aligned.threshold_tau
    for t in np.flatnonzero(positive):
        if margins[t] >= aligned.threshold_tau:
            assert t in aligned.members


def test_aligned_set_percentile_validation(caplog):
    bias = bias_of([1.0], [0.0])
    with pytest.raises(ValueError, match="percentile_p"):
        aligned_set(bias, 0)
    with pytest.raises(ValueError, match="percentile_p"):
        aligned_set(bias, 101)
    with caplog.at_level(logging.WARNING, logger="gatedbias.evaluator"):
        aligned_set(bias, 50)
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
    everyone = AlignedSet(members=np.arange(4), threshold_tau=0.0, num_entities=4)
    nobody = AlignedSet(members=np.empty(0, dtype=np.int64), threshold_tau=0.0, num_entities=4)
    assert alignment_at_k(queries, filters, fn, everyone, k=2) == 1.0
    assert alignment_at_k(queries, filters, fn, nobody, k=2) == 0.0


def test_alignment_hand_enumeration():
    # query 0 top-2 = {0, 1} hits member 0; query 1 top-2 = {2, 3} hits nothing
    queries = [(0, 0), (1, 0)]
    filters = [np.empty(0, dtype=np.int64)] * 2
    fn = scores_by_head({0: [9.0, 8.0, 1.0, 0.0], 1: [0.0, 1.0, 8.0, 9.0]})
    aligned = AlignedSet(members=np.array([0]), threshold_tau=1.0, num_entities=4)
    per_query = alignment_per_query(queries, filters, fn, aligned, k=2)
    assert per_query.tolist() == [0.5, 0.0]
    assert alignment_at_k(queries, filters, fn, aligned, k=2) == 0.25


def test_alignment_respects_filters():
    queries = [(0, 0)]
    fn = scores_by_head({0: [9.0, 8.0, 1.0, 0.0]})
    aligned = AlignedSet(members=np.array([0]), threshold_tau=1.0, num_entities=4)
    unfiltered = alignment_at_k(queries, [np.empty(0, dtype=np.int64)], fn, aligned, k=2)
    filtered = alignment_at_k(queries, [np.array([0])], fn, aligned, k=2)
    assert unfiltered == 0.5
    assert filtered == 0.0


def test_alignment_validation():
    aligned = AlignedSet(members=np.array([0]), threshold_tau=1.0, num_entities=2)
    fn = scores_by_head({0: [1.0, 0.0]})
    with pytest.raises(ValueError, match="at least one query"):
        alignment_at_k([], [], fn, aligned, k=2)
    with pytest.raises(ValueError, match="k must be"):
        alignment_per_query([(0, 0)], [np.empty(0, dtype=np.int64)], fn, aligned, k=0)
    with pytest.raises(ValueError, match="disagree"):
        alignment_per_query([(0, 0)], [], fn, aligned, k=1)


def test_alignment_delta_test_identical_pairs():
    pairs = np.column_stack([np.full(20, 0.3), np.full(20, 0.3)])
    assert alignment_delta_test(pairs) == 1.0


def test_alignment_delta_test_detects_shift():
    rng = np.random.default_rng(5)
    base = rng.random(100)
    pairs = np.column_stack([base, base + 0.1])
    assert alignment_delta_test(pairs) <= 0.001


def test_alignment_delta_test_validation():
    with pytest.raises(ValueError, match="shape"):
        alignment_delta_test(np.zeros(5))
    with pytest.raises(ValueError, match="at least 2"):
        alignment_delta_test(np.zeros((1, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [0, 1])
def test_alignment_delta_test_refuses_non_finite_pairs(bad, column):
    # a NaN difference never ties the observed statistic, so it read as p ~ 1e-4
    pairs = np.column_stack([np.zeros(20), np.full(20, 0.1)])
    pairs[3, column] = bad
    with pytest.raises(ValueError, match="finite"):
        alignment_delta_test(pairs)


@pytest.mark.parametrize("n_resamples", [0, -5])
def test_alignment_delta_test_refuses_fewer_than_one_resample(n_resamples):
    # n_resamples=-5 gave the p-value (0 + 1) / (-5 + 1) = -0.25
    pairs = np.column_stack([np.zeros(5), np.arange(5.0)])
    with pytest.raises(ValueError, match="n_resamples"):
        alignment_delta_test(pairs, n_resamples=n_resamples)


# ---------------------------------------------------------------------------
# counterfactual responsiveness
# ---------------------------------------------------------------------------

def gated_setup(store, head, ga, gb, f_a, f_b):
    """Queries, zero backbone, head inputs and adapted bias of one trained head."""
    return {"queries": query_set(store), "table": zero_table(store.num_entities),
            "head": head, "gates": (ga, gb), "features": (f_a, f_b),
            "bias": compute_bias(head, ga, gb, f_a, f_b)}


def cr_of(setup, group, epsilon):
    """CR entries of one group, its boosted bias computed from hand-scaled features."""
    f_a, f_b = setup["features"]
    boost = 1.0 + epsilon
    boosted = compute_bias(setup["head"], *setup["gates"], f_a * boost if group == "A" else f_a,
                           f_b * boost if group == "B" else f_b)
    ranks, after = compute_rank_table(setup["queries"], setup["table"],
                                      [setup["bias"].values, boosted.values])
    return counterfactual_responsiveness(setup["bias"], group, setup["queries"].true_tails,
                                         ranks, after)


def battery_of(setup, **settings):
    """gated_battery of the setup's head under EvalSettings(**settings), seed 0."""
    return gated_battery(setup["queries"], setup["table"], setup["head"], setup["gates"],
                         setup["features"], setup["bias"], EvalSettings(**settings), seed=0)


def crossing_context():
    """Two test tails with bias from different groups: t_in (A, bias 1.0) sits
    behind t_out (B, bias 2.0), so boosting A can flip the order."""
    store = store_from_labels(
        train=[("q0", "r", "pad0"), ("q1", "r", "pad1")],
        test=[("q0", "r", "t_in"), ("q1", "r", "t_out")])
    t_in = store.entity_vocab.id("t_in")
    t_out = store.entity_vocab.id("t_out")
    n = store.num_entities
    dense_a = np.zeros((n, 1))
    dense_a[t_in, 0] = 1
    dense_b = np.zeros((n, 1))
    dense_b[t_out, 0] = 1
    ga = gates_from_dense(dense_a)
    gb = gates_from_dense(dense_b, group="B")
    head = make_head([2.0], [4.0])
    return gated_setup(store, head, ga, gb, make_features(ga, [0.5]), make_features(gb, [0.5]))


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
                                                [setup["bias"].values])[0].tolist()
    assert (entries["cr_A"], entries["cr_A_pct_improved"]) == (-2.0, 1.0)
    assert entries["cr_B"] == 0.0


def test_cr_one_sided_split_returns_none(caplog):
    store = store_from_labels(train=[("q", "r", "pad")],
                              test=[("q", "r", "t1"), ("q", "r", "t2")])
    n = store.num_entities
    dense_a = np.zeros((n, 1))
    dense_a[store.entity_vocab.id("t1"), 0] = 1
    dense_a[store.entity_vocab.id("t2"), 0] = 1
    ga = gates_from_dense(dense_a)
    gb = gates_from_dense(np.zeros((n, 1)), group="B")
    head = make_head([1.0], [0.0])
    setup = gated_setup(store, head, ga, gb, make_features(ga, [0.5]), make_features(gb, [0.0]))
    with caplog.at_level(logging.WARNING, logger="gatedbias.evaluator"):
        assert cr_of(setup, "A", 0.1) == {"cr_A": None, "cr_A_pct_improved": None}
        _, entries = battery_of(setup, n_shuffles=1)
    assert "undefined" in caplog.text
    assert entries["cr_A"] is None and entries["cr_A_pct_improved"] is None


def test_cr_validation():
    setup = crossing_context()
    ranks = np.ones(2, dtype=np.int64)
    with pytest.raises(KeyError):
        counterfactual_responsiveness(setup["bias"], "C", np.zeros(2, dtype=np.int64),
                                      ranks, ranks)


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
    tgt = store.entity_vocab.id("tgt")
    dense_a = np.zeros((n, 2))
    dense_a[tgt, 0] = 1
    ga = gates_from_dense(dense_a)
    gb = gates_from_dense(np.zeros((n, 2)), group="B")
    head = make_head([w_a, 0.0], [0.0, 0.0])
    return gated_setup(store, head, ga, gb, make_features(ga, [0.4, 0.4]),
                       make_features(gb, [0.25, 0.25]))


def test_placebo_validation_hand_rows():
    # rows: base, adapted, then one per shuffle; base mean 0.25
    # shuffled deltas 0.0 and -0.25
    res = placebo_validation(np.array([[0.0, 0.5], [0.5, 0.5], [0.25, 0.25], [0.0, 0.0]]))
    assert res == {"placebo_real_delta": 0.25, "placebo_shuffled_delta": -0.125,
                   "placebo_ratio": -2.0}


@pytest.mark.parametrize("rows", [0, 1, 2])
def test_placebo_validation_refuses_fewer_than_three_rows(rows):
    # with no shuffled row the shuffled mean was NaN, with a RuntimeWarning
    with pytest.raises(ValueError, match="at least one shuffled"):
        placebo_validation(np.zeros((rows, 4)))


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


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_mean_stderr_hand_values():
    m, se = mean_stderr([1.0, 2.0, 3.0])
    assert m == 2.0
    assert se == 1.0 / np.sqrt(3.0)
    assert mean_stderr([5.0]) == (5.0, None)
    assert mean_stderr([1.0, None, 3.0]) == (2.0, 1.0)  # std([1, 3], ddof=1) = sqrt(2)
    assert mean_stderr([]) == (None, None)
    assert mean_stderr([None, None]) == (None, None)


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
