import numpy as np
import pytest

from gatedbias.profile_builder import (InteractionLog, aggregate_population,
                                       build_profile, load_interactions,
                                       normalize_features, shuffle_features,
                                       user_preference)
from helpers import gates_from_dense, make_features, store_from_labels


def log_of(**interactions):
    return InteractionLog(interactions={
        u: np.array(sorted(items), dtype=np.int64) for u, items in interactions.items()})


# items are entities 0..3, two attribute columns g1=0, g2=1
GATES = gates_from_dense([
    [1, 0],  # item 0 has g1
    [1, 0],  # item 1 has g1
    [0, 1],  # item 2 has g2
    [0, 0],  # item 3 has nothing
])


# ---------------------------------------------------------------------------
# load_interactions
# ---------------------------------------------------------------------------

def test_load_interactions_collapses_duplicates(tmp_path):
    store = store_from_labels([("u", "likes", "b1"), ("u", "likes", "b2")])
    path = tmp_path / "inter.tsv"
    path.write_text("alice\tb1\nalice\tb1\nalice\tb2\n# comment\n\n", encoding="utf-8")
    log = load_interactions(str(path), store)
    assert log.users() == ["alice"]
    assert log.interactions["alice"].tolist() == sorted(
        [store.entity_vocab.id("b1"), store.entity_vocab.id("b2")])


def test_load_interactions_drops_unknown_items(tmp_path, caplog):
    store = store_from_labels([("u", "likes", "b1")])
    path = tmp_path / "inter.tsv"
    path.write_text("alice\tb1\nalice\tmystery\nbob\tmystery\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        log = load_interactions(str(path), store)
    assert "unknown items" in caplog.text
    assert log.users() == ["alice"]  # bob has no known item, so he never enters the log


def test_load_interactions_malformed_line_raises(tmp_path):
    store = store_from_labels([("u", "likes", "b1")])
    path = tmp_path / "inter.tsv"
    path.write_text("alice\tb1\textra\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":1:"):
        load_interactions(str(path), store)


# ---------------------------------------------------------------------------
# user_preference
# ---------------------------------------------------------------------------

def test_user_preference_full_overlap():
    log = log_of(u={0, 1})  # both items have g1
    assert user_preference(log, "u", GATES).tolist() == [1.0, 0.0]


def test_user_preference_item_without_attributes():
    log = log_of(u={3})
    assert user_preference(log, "u", GATES).tolist() == [0.0, 0.0]


def test_user_preference_split_half():
    log = log_of(u={0, 2})  # one g1 item, one g2 item
    assert user_preference(log, "u", GATES).tolist() == [0.5, 0.5]


def test_user_preference_unknown_user_raises():
    with pytest.raises(KeyError):
        user_preference(log_of(u={0}), "ghost", GATES)


def test_user_preference_rational_denominator():
    rng = np.random.default_rng(0)
    for trial in range(10):
        items = set(rng.choice(4, size=rng.integers(1, 5), replace=False).tolist())
        log = log_of(u=items)
        p = user_preference(log, "u", GATES)
        scaled = p * len(items)
        assert np.array_equal(scaled, np.round(scaled))  # integer counts exactly
        assert np.all((0 <= p) & (p <= 1))


# ---------------------------------------------------------------------------
# aggregate_population
# ---------------------------------------------------------------------------

def test_aggregate_additivity_identical_users():
    log = log_of(u1={0, 1}, u2={0, 1})
    assert aggregate_population(log, GATES).tolist() == [2.0, 0.0]


def test_aggregate_singleton_equals_user_preference():
    log = log_of(u1={0, 2}, u2={3})
    assert np.array_equal(aggregate_population(log, GATES, users=["u1"]),
                          user_preference(log, "u1", GATES))


def test_aggregate_matches_loop_oracle():
    rng = np.random.default_rng(1)
    interactions = {f"u{i}": set(rng.choice(4, size=rng.integers(1, 5), replace=False).tolist())
                    for i in range(5)}
    log = log_of(**interactions)
    expected = np.zeros(2)
    for u in sorted(interactions):
        expected += user_preference(log, u, GATES)
    assert np.allclose(aggregate_population(log, GATES), expected, atol=1e-15)


def test_aggregate_user_set_permutation_invariant():
    log = log_of(u1={0}, u2={2}, u3={1, 2})
    a = aggregate_population(log, GATES, users=["u1", "u3", "u2"])
    b = aggregate_population(log, GATES, users=["u2", "u1", "u3"])
    assert np.array_equal(a, b)


def test_aggregate_additive_over_disjoint_user_sets():
    log = log_of(u1={0}, u2={2}, u3={1, 2})
    whole = aggregate_population(log, GATES)
    parts = (aggregate_population(log, GATES, users=["u1"])
             + aggregate_population(log, GATES, users=["u2", "u3"]))
    assert np.allclose(whole, parts, atol=1e-15)


def test_aggregate_unknown_users_raise():
    with pytest.raises(KeyError, match="ghost"):
        aggregate_population(log_of(u={0}), GATES, users=["ghost"])


# ---------------------------------------------------------------------------
# normalize_features
# ---------------------------------------------------------------------------

def test_normalize_scale_and_clip():
    uni = GATES.universe
    f = normalize_features(np.array([10.0, 2.0]), 0.1, 0.5, uni)
    assert f.dtype == np.float64 and f.tolist() == [0.5, 0.2]


def test_normalize_zero_and_negative_inputs():
    uni = GATES.universe
    assert normalize_features(np.zeros(2), 0.1, 0.5, uni).tolist() == [0.0, 0.0]
    assert normalize_features(np.array([-1.0, 3.0]), 0.1, 0.5, uni).tolist() == [0.0, 0.1 * 3.0]


def test_normalize_validation():
    uni = GATES.universe
    with pytest.raises(ValueError):
        normalize_features(np.zeros(2), 0.0, 0.5, uni)
    with pytest.raises(ValueError):
        normalize_features(np.zeros(2), 0.1, -1.0, uni)
    with pytest.raises(ValueError, match="length"):
        normalize_features(np.zeros(3), 0.1, 0.5, uni)
    with pytest.raises(ValueError, match="finite"):
        normalize_features(np.array([np.nan, 0.0]), 0.1, 0.5, uni)


def test_normalize_range_property():
    rng = np.random.default_rng(2)
    uni = GATES.universe
    for trial in range(20):
        w = rng.standard_normal(2) * 100
        f = normalize_features(w, 0.1, 0.5, uni)
        assert np.all((0.0 <= f) & (f <= 0.5))


# ---------------------------------------------------------------------------
# shuffle
# ---------------------------------------------------------------------------

def test_shuffle_preserves_multiset():
    f = make_features(GATES, [0.1, 0.4])
    shuffled = shuffle_features(f, seed=3)
    assert sorted(shuffled.tolist()) == sorted(f.tolist())


def test_shuffle_deterministic_and_seed_sensitive():
    gates = gates_from_dense(np.eye(6))
    f = make_features(gates, np.arange(6, dtype=np.float64))
    a = shuffle_features(f, seed=0)
    b = shuffle_features(f, seed=0)
    c = shuffle_features(f, seed=1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_shuffle_length_one_unchanged():
    gates = gates_from_dense([[1]])
    f = make_features(gates, [0.7])
    assert shuffle_features(f, seed=5).tolist() == [0.7]


# ---------------------------------------------------------------------------
# full three-stage pipeline
# ---------------------------------------------------------------------------

def test_build_profile_equals_manual_stages():
    log = log_of(u1={0, 1}, u2={0, 2}, u3={2, 3})
    f = build_profile(log, GATES, scale_alpha=0.1, cap_tau=0.5)
    w = aggregate_population(log, GATES)
    manual = normalize_features(w, 0.1, 0.5, GATES.universe)
    assert np.array_equal(f, manual)
    # hand count: w(g1) = 1.0 + 0.5 = 1.5 ; w(g2) = 0.5 + 0.5 = 1.0
    assert np.allclose(w, [1.5, 1.0], atol=1e-15)
    assert np.allclose(f, [0.15, 0.10], atol=1e-15)
