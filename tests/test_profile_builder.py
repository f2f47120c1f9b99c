import numpy as np
import pytest

from gatedbias.evaluator import shuffle_features
from gatedbias.kg_store import build_profile, load_interactions
from helpers import gates_from_dense, make_features, store_from_labels


def histories(*item_sets):
    return [np.array(sorted(items), dtype=np.int64) for items in item_sets]


def preference(*item_sets):
    """Summed attribute frequencies, unscaled and uncapped: scale_alpha 1 and
    a cap no frequency sum reaches give w (one history: p_u) directly."""
    return build_profile(histories(*item_sets), GATES, scale_alpha=1.0, cap_tau=1e9)


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
    (alice,) = load_interactions(str(path), store)
    assert alice.tolist() == sorted([store.entity_vocab["b1"], store.entity_vocab["b2"]])


def test_load_interactions_drops_unknown_items(tmp_path, caplog):
    store = store_from_labels([("u", "likes", "b1")])
    path = tmp_path / "inter.tsv"
    path.write_text("alice\tb1\nalice\tmystery\nbob\tmystery\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        loaded = load_interactions(str(path), store)
    assert "unknown items" in caplog.text
    # bob has no known item, so only alice's history is left
    assert [h.tolist() for h in loaded] == [[store.entity_vocab["b1"]]]


def test_load_interactions_malformed_line_raises(tmp_path):
    store = store_from_labels([("u", "likes", "b1")])
    path = tmp_path / "inter.tsv"
    path.write_text("alice\tb1\textra\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":1: expected 2 tab-separated fields, got 3$"):
        load_interactions(str(path), store)


# ---------------------------------------------------------------------------
# one history: the per-user preference p_u
# ---------------------------------------------------------------------------

def test_user_preference_full_overlap():
    assert preference({0, 1}).tolist() == [1.0, 0.0]  # both items have g1


def test_user_preference_item_without_attributes():
    assert preference({3}).tolist() == [0.0, 0.0]


def test_user_preference_split_half():
    assert preference({0, 2}).tolist() == [0.5, 0.5]  # one g1 item, one g2 item


def test_user_preference_rational_denominator():
    rng = np.random.default_rng(0)
    for trial in range(10):
        items = set(rng.choice(4, size=rng.integers(1, 5), replace=False).tolist())
        p = preference(items)
        scaled = p * len(items)
        assert np.array_equal(scaled, np.round(scaled))  # integer counts exactly
        assert np.all((0 <= p) & (p <= 1))


# ---------------------------------------------------------------------------
# summed over histories
# ---------------------------------------------------------------------------

def test_aggregate_additivity_identical_users():
    assert preference({0, 1}, {0, 1}).tolist() == [2.0, 0.0]


def test_aggregate_matches_loop_oracle():
    rng = np.random.default_rng(1)
    item_sets = [set(rng.choice(4, size=rng.integers(1, 5), replace=False).tolist())
                 for _ in range(5)]
    dense = np.array([[1, 0], [1, 0], [0, 1], [0, 0]], dtype=np.float64)
    expected = np.zeros(2)
    for items in item_sets:
        for j in range(2):
            expected[j] += sum(dense[i, j] for i in items) / len(items)
    assert np.allclose(preference(*item_sets), expected, atol=1e-15)


def test_aggregate_user_set_permutation_invariant(tmp_path):
    # users come back in ascending order whatever the order of the file's lines
    store = store_from_labels([("x", "likes", f"b{i}") for i in range(4)])
    gates = gates_from_dense(np.eye(store.num_entities))
    lines = ["u1\tb0", "u2\tb2", "u3\tb1", "u3\tb2"]
    profiles = []
    for order in (lines, lines[::-1], lines[2:] + lines[:2]):
        path = tmp_path / "inter.tsv"
        path.write_text("\n".join(order) + "\n", encoding="utf-8")
        loaded = load_interactions(str(path), store)
        profiles.append(build_profile(loaded, gates, scale_alpha=1.0, cap_tau=1e9))
    assert all(np.array_equal(profiles[0], p) for p in profiles[1:])


def test_aggregate_additive_over_disjoint_user_sets():
    whole = preference({0}, {2}, {1, 2})
    parts = preference({0}) + preference({2}, {1, 2})
    assert np.allclose(whole, parts, atol=1e-15)


# ---------------------------------------------------------------------------
# scale and clip
# ---------------------------------------------------------------------------

def test_normalize_scale_and_clip():
    # w = [10, 2]: ten histories of a g1 item, two of a g2 item
    f = build_profile(histories(*[{0}] * 10, *[{2}] * 2), GATES, 0.1, 0.5)
    assert f.dtype == np.float64 and f.tolist() == [0.5, 0.2]


def test_normalize_zero_and_negative_inputs():
    # frequencies are never negative; zero weights stay exactly zero
    assert build_profile(histories({3}), GATES, 0.1, 0.5).tolist() == [0.0, 0.0]
    assert build_profile([], GATES, 0.1, 0.5).tolist() == [0.0, 0.0]


def test_normalize_validation():
    # scale_alpha and cap_tau are range-checked by the config, not here
    with pytest.raises(ValueError, match="finite"), np.errstate(invalid="ignore"):
        build_profile([np.empty(0, dtype=np.int64)], GATES, 0.1, 0.5)  # 0 / 0


def test_normalize_range_property():
    rng = np.random.default_rng(2)
    for trial in range(20):
        item_sets = [set(rng.choice(4, size=rng.integers(1, 5), replace=False).tolist())
                     for _ in range(rng.integers(1, 30))]
        f = build_profile(histories(*item_sets), GATES, 0.1, 0.5)
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
# the whole profile
# ---------------------------------------------------------------------------

def test_build_profile_equals_manual_stages():
    f = build_profile(histories({0, 1}, {0, 2}, {2, 3}), GATES, scale_alpha=0.1, cap_tau=0.5)
    # hand count: w(g1) = 1.0 + 0.5 = 1.5 ; w(g2) = 0.5 + 0.5 = 1.0
    w = np.array([1.0 + 0.5, 0.5 + 0.5])
    assert np.array_equal(f, np.clip(0.1 * w, 0.0, 0.5))
    assert np.allclose(f, [0.15, 0.10], atol=1e-15)
