import numpy as np
import pytest

from gatedbias.errors import ConfigError, TripleParseError
from gatedbias.kg_store import (AttributeUniverse, Vocab, build_gates, build_universe,
                                load_grouping, load_triples, make_grouping)
from helpers import store_from_labels
from oracles import to_dense


def row(gates, t):
    """Column ids of gate row t."""
    return gates.gather_rows(np.array([t]))[1]


def write_split(directory, name, lines):
    path = directory / f"{name}.tsv"
    path.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in lines), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Vocab
# ---------------------------------------------------------------------------

def test_vocab_first_appearance_order():
    v = Vocab()
    assert v.add("b") == 0
    assert v.add("a") == 1
    assert v.add("b") == 0  # repeated label keeps its id
    assert [v.label(i) for i in range(len(v))] == ["b", "a"]
    assert v.id("a") == 1
    assert v.label(0) == "b"
    assert "a" in v and "c" not in v
    assert len(v) == 2


# ---------------------------------------------------------------------------
# load_triples
# ---------------------------------------------------------------------------

def test_load_triples_minimal_dir(tmp_path):
    write_split(tmp_path, "train", [("a", "likes", "b")])
    write_split(tmp_path, "valid", [])
    write_split(tmp_path, "test", [("a", "likes", "c")])
    store = load_triples(str(tmp_path))
    assert store.num_entities == 3
    assert store.num_relations == 1
    a, likes = store.entity_vocab.id("a"), store.relation_vocab.id("likes")
    assert store.known_tails[(a, likes)].tolist() == [store.entity_vocab.id("b")]
    assert store.test.shape == (1, 3)


def test_load_triples_dedup_warning(tmp_path, caplog):
    write_split(tmp_path, "train", [("a", "r", "b"), ("a", "r", "b"), ("a", "r", "c")])
    with caplog.at_level("WARNING"):
        store = load_triples(str(tmp_path))
    assert store.train.shape[0] == 2
    assert "dropped 1 duplicate triples within the train split" in caplog.text


def test_load_triples_hand_counted_fixture(tmp_path):
    # 10 lines; 6 distinct entities, 2 relations, counted by hand
    train = [("u1", "likes", "i1"), ("u1", "likes", "i2"), ("u2", "likes", "i1"),
             ("g1", "has", "i1"), ("g1", "has", "i2"), ("g2", "has", "i2")]
    valid = [("u2", "likes", "i2")]
    test = [("u1", "likes", "i3"), ("u2", "likes", "i3"), ("g2", "has", "i1")]
    write_split(tmp_path, "train", train)
    write_split(tmp_path, "valid", valid)
    write_split(tmp_path, "test", test)
    store = load_triples(str(tmp_path))
    assert store.num_entities == 7  # u1 i1 i2 u2 g1 g2 i3
    assert store.num_relations == 2
    assert (store.train.shape[0], store.valid.shape[0], store.test.shape[0]) == (6, 1, 3)
    # known tails come from train+valid only
    u2, likes = store.entity_vocab.id("u2"), store.relation_vocab.id("likes")
    assert store.known_tails[(u2, likes)].tolist() == sorted(
        [store.entity_vocab.id("i1"), store.entity_vocab.id("i2")])


def test_load_triples_skips_comments_and_blanks(tmp_path):
    (tmp_path / "train.tsv").write_text("# header\n\na\tr\tb\n", encoding="utf-8")
    store = load_triples(str(tmp_path))
    assert store.train.shape[0] == 1


def test_load_triples_malformed_line_reports_lineno(tmp_path):
    (tmp_path / "train.tsv").write_text("a\tr\tb\na\tb\n", encoding="utf-8")
    with pytest.raises(TripleParseError, match=":2:"):
        load_triples(str(tmp_path))


def test_load_triples_missing_train_raises(tmp_path):
    write_split(tmp_path, "valid", [("a", "r", "b")])
    with pytest.raises(ConfigError, match="train.tsv"):
        load_triples(str(tmp_path))


def test_load_triples_empty_train_raises(tmp_path):
    (tmp_path / "train.tsv").write_text("# nothing\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="empty train"):
        load_triples(str(tmp_path))


def test_load_triples_file_path_raises(tmp_path):
    # a lone TSV has no test split to evaluate on, so it is refused at load
    path = write_split(tmp_path, "train", [("a", "r", "b")])
    with pytest.raises(ConfigError, match="not a directory"):
        load_triples(str(path))


def test_load_triples_missing_path_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_triples(str(tmp_path / "nope"))


def test_load_triples_split_overlap_raises(tmp_path):
    write_split(tmp_path, "train", [("a", "r", "b")])
    write_split(tmp_path, "test", [("a", "r", "b")])
    with pytest.raises(ConfigError, match="disjoint"):
        load_triples(str(tmp_path))


# ---------------------------------------------------------------------------
# grouping
# ---------------------------------------------------------------------------

def test_make_grouping_tags_and_none_default():
    store = store_from_labels([("a", "likes", "b"), ("g", "genre", "b"), ("m", "brand", "b")])
    grouping = make_grouping(store, ["genre"], ["brand"])
    assert grouping.groups[store.relation_vocab.id("genre")] == "A"
    assert grouping.groups[store.relation_vocab.id("brand")] == "B"
    assert grouping.groups[store.relation_vocab.id("likes")] == "none"
    assert grouping.relations_in("none") == [store.relation_vocab.id("likes")]
    grouping.validate_for_personalization()


def test_make_grouping_overlap_raises():
    store = store_from_labels([("g", "genre", "b")])
    with pytest.raises(ConfigError, match="both groups"):
        make_grouping(store, ["genre"], ["genre"])


def test_make_grouping_unknown_label_ignored_with_warning(caplog):
    store = store_from_labels([("g", "genre", "b")])
    with caplog.at_level("WARNING"):
        grouping = make_grouping(store, ["genre"], ["nope"])
    assert "unknown relation" in caplog.text
    assert grouping.relations_in("B") == []


def test_validate_for_personalization_empty_group_raises():
    store = store_from_labels([("g", "genre", "b")])
    grouping = make_grouping(store, ["genre"], [])
    with pytest.raises(ConfigError, match="group B"):
        grouping.validate_for_personalization()


def test_load_grouping_file(tmp_path):
    store = store_from_labels([("g", "genre", "b"), ("m", "brand", "b")])
    path = tmp_path / "grouping.yaml"
    path.write_text("group_a: [genre]\ngroup_b: [brand]\n", encoding="utf-8")
    grouping = load_grouping(str(path), store)
    assert grouping.groups[store.relation_vocab.id("genre")] == "A"


def test_load_grouping_unknown_key_raises(tmp_path):
    store = store_from_labels([("g", "genre", "b")])
    path = tmp_path / "grouping.yaml"
    path.write_text("group_a: [genre]\ngroup_c: [x]\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="group_c"):
        load_grouping(str(path), store)


@pytest.mark.parametrize("text, key", [
    ("group_a: genre\ngroup_b: [brand]\n", "group_a"),  # a scalar, not a list
    ("group_a: [genre]\ngroup_b: [brand, 3]\n", "group_b"),  # a non-string entry
])
def test_load_grouping_rejects_non_list_values(tmp_path, text, key):
    store = store_from_labels([("g", "genre", "b"), ("m", "brand", "b")])
    path = tmp_path / "grouping.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=f"grouping.yaml: {key} must be a list"):
        load_grouping(str(path), store)


# ---------------------------------------------------------------------------
# universes
# ---------------------------------------------------------------------------

def test_build_universe_frequency_order_and_cap():
    store = store_from_labels([("g1", "genre", "b1"), ("g1", "genre", "b2"),
                               ("g2", "genre", "b1")])
    grouping = make_grouping(store, ["genre"], [])
    uni = build_universe(store, grouping, "A")
    g1, g2 = store.entity_vocab.id("g1"), store.entity_vocab.id("g2")
    assert uni.attrs.tolist() == [g1, g2]
    assert build_universe(store, grouping, "A", cap=1).attrs.tolist() == [g1]
    assert uni.index == {g1: 0, g2: 1}


def test_build_universe_tie_break_ascending_entity_id():
    store = store_from_labels([("x", "genre", "b1"), ("w", "genre", "b2")])
    grouping = make_grouping(store, ["genre"], [])
    uni = build_universe(store, grouping, "A")
    # equal frequency 1: ascending entity id wins, and "x" was seen first
    assert uni.attrs.tolist() == sorted(
        [store.entity_vocab.id("x"), store.entity_vocab.id("w")])


def test_build_universe_counts_distinct_tails_not_triples():
    # same (head, tail) pair through two group relations counts once
    store = store_from_labels([("g1", "genre", "b1"), ("g1", "style", "b1"),
                               ("g2", "genre", "b1"), ("g2", "genre", "b2")])
    grouping = make_grouping(store, ["genre", "style"], [])
    uni = build_universe(store, grouping, "A")
    g1, g2 = store.entity_vocab.id("g1"), store.entity_vocab.id("g2")
    assert uni.attrs.tolist() == [g2, g1]  # freqs 2, 1


def test_build_universe_empty_group_warns(caplog):
    store = store_from_labels([("g", "genre", "b")])
    grouping = make_grouping(store, ["genre"], [])
    with caplog.at_level("WARNING"):
        uni = build_universe(store, grouping, "B")
    assert len(uni) == 0
    assert "no train triples" in caplog.text


def test_build_universe_bad_group_and_cap():
    store = store_from_labels([("g", "genre", "b")])
    grouping = make_grouping(store, ["genre"], [])
    with pytest.raises(ValueError):
        build_universe(store, grouping, "C")
    with pytest.raises(ValueError):
        build_universe(store, grouping, "A", cap=0)


def test_universe_cap_prefix_property():
    rng = np.random.default_rng(7)
    for trial in range(5):
        triples = [(f"g{rng.integers(8)}", "genre", f"b{rng.integers(12)}")
                   for _ in range(40)]
        store = store_from_labels(triples)
        grouping = make_grouping(store, ["genre"], [])
        full = build_universe(store, grouping, "A").attrs.tolist()
        for cap in range(1, len(full) + 1):
            assert build_universe(store, grouping, "A", cap=cap).attrs.tolist() == full[:cap]


def test_universe_checksum_depends_on_order():
    a = AttributeUniverse(group="A", attrs=np.array([1, 2], dtype=np.int64))
    b = AttributeUniverse(group="A", attrs=np.array([2, 1], dtype=np.int64))
    assert a.checksum() != b.checksum()
    assert a.checksum() == AttributeUniverse(group="A",
                                             attrs=np.array([1, 2], dtype=np.int64)).checksum()


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def test_build_gates_single_edge():
    store = store_from_labels([("g1", "genre", "b1")])
    grouping = make_grouping(store, ["genre"], [])
    uni = build_universe(store, grouping, "A")
    gates = build_gates(store, uni)
    b1 = store.entity_vocab.id("b1")
    assert row(gates, b1).tolist() == [0]
    for t in range(store.num_entities):
        if t != b1:
            assert row(gates, t).size == 0
    assert gates.indices.size == 1


def test_build_gates_brute_force_oracle():
    rng = np.random.default_rng(3)
    for trial in range(10):
        # mixed graph: group relation, second group relation, and a task
        # relation reusing the same head entities (must not leak into gates)
        rels = ["genre", "style", "likes"]
        triples = [(f"e{rng.integers(15)}", rels[rng.integers(3)], f"e{rng.integers(15)}")
                   for _ in range(60)]
        store = store_from_labels(triples)
        grouping = make_grouping(store, ["genre", "style"], [])
        uni = build_universe(store, grouping, "A")
        gates = build_gates(store, uni)

        group_ids = {store.relation_vocab.id(l) for l in ("genre", "style")
                     if l in store.relation_vocab}
        expected = {}
        for h, r, t in store.train.tolist():
            if r in group_ids and h in uni.index:
                expected.setdefault(t, set()).add(uni.index[h])
        assert gates.indices.size == sum(len(v) for v in expected.values())
        for t in range(store.num_entities):
            cols = row(gates, t)
            assert cols.tolist() == sorted(expected.get(t, set()))
            assert cols.size == 0 or (cols.min() >= 0 and cols.max() < len(uni))
            assert np.all(np.diff(cols) > 0)  # sorted, duplicate-free


def test_build_gates_ignore_non_group_relations():
    # entity heads both a group triple and a task triple; only the group
    # edge contributes a gate bit
    store = store_from_labels([("g1", "genre", "b1"), ("g1", "likes", "b2")])
    grouping = make_grouping(store, ["genre"], [])
    gates = build_gates(store, build_universe(store, grouping, "A"))
    assert row(gates, store.entity_vocab.id("b1")).tolist() == [0]
    assert row(gates, store.entity_vocab.id("b2")).size == 0


def test_build_gates_reads_train_only():
    base = [("g1", "genre", "b1"), ("g2", "genre", "b2"), ("u", "likes", "b1")]
    store1 = store_from_labels(base, valid=[("u", "likes", "b2")])
    store2 = store_from_labels(base, valid=[("g2", "genre", "b1")],
                               test=[("g1", "genre", "b2")])
    g1 = build_gates(store1, build_universe(store1, make_grouping(store1, ["genre"], []), "A"))
    g2 = build_gates(store2, build_universe(store2, make_grouping(store2, ["genre"], []), "A"))
    assert np.array_equal(g1.indptr, g2.indptr)
    assert np.array_equal(g1.indices, g2.indices)


def test_build_gates_empty_universe():
    store = store_from_labels([("u", "likes", "b")])
    grouping = make_grouping(store, [], [])
    gates = build_gates(store, build_universe(store, grouping, "A"))
    assert gates.indices.size == 0
    assert gates.num_columns == 0
    assert gates.matvec(np.empty(0)).tolist() == [0.0] * store.num_entities


def test_gate_matvec_matches_dense():
    rng = np.random.default_rng(11)
    for trial in range(10):
        triples = [(f"g{rng.integers(6)}", "genre", f"b{rng.integers(10)}")
                   for _ in range(30)]
        store = store_from_labels(triples)
        grouping = make_grouping(store, ["genre"], [])
        gates = build_gates(store, build_universe(store, grouping, "A"))
        dense = to_dense(gates)
        v = rng.standard_normal(gates.num_columns)
        assert np.allclose(gates.matvec(v), dense @ v, atol=1e-12)


def test_gate_matvec_length_check():
    store = store_from_labels([("g1", "genre", "b1")])
    grouping = make_grouping(store, ["genre"], [])
    gates = build_gates(store, build_universe(store, grouping, "A"))
    with pytest.raises(ValueError, match="universe size"):
        gates.matvec(np.zeros(5))


def test_gather_rows_concatenates_in_order():
    store = store_from_labels([("g1", "genre", "b1"), ("g2", "genre", "b1"),
                               ("g2", "genre", "b2")])
    grouping = make_grouping(store, ["genre"], [])
    gates = build_gates(store, build_universe(store, grouping, "A"))
    b1, b2 = store.entity_vocab.id("b1"), store.entity_vocab.id("b2")
    tails = np.array([b2, b1, b2])
    owners, cols = gates.gather_rows(tails)
    # columns: g2 (two tails) is 0, g1 is 1; so row b1 = [0, 1], row b2 = [0]
    assert cols.tolist() == [0, 0, 1, 0]
    assert owners.tolist() == [0, 1, 1, 2]
    assert gates.row_counts(tails).tolist() == [1, 2, 1]


def test_gate_checksum_changes_with_structure():
    s1 = store_from_labels([("g1", "genre", "b1")])
    s2 = store_from_labels([("g1", "genre", "b1"), ("g1", "genre", "b2")])
    g1 = build_gates(s1, build_universe(s1, make_grouping(s1, ["genre"], []), "A"))
    g2 = build_gates(s2, build_universe(s2, make_grouping(s2, ["genre"], []), "A"))
    assert g1.indptr.tolist() == [0, 0, 1]  # entities g1, b1
    assert g2.indptr.tolist() == [0, 0, 1, 2]  # entities g1, b1, b2
    assert g1.indices.tolist() == [0] and g2.indices.tolist() == [0, 0]
