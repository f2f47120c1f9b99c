import hashlib
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatedbias.config import ConfigError
from gatedbias.kg_store import (GROUP_TAGS, GateMatrix, build_gates, build_universe,
                                load_grouping, load_interactions, load_triples, make_grouping,
                                pair_csr)
from helpers import gates_from_dense, random_store, store_from_labels
from oracles import query_filters, to_dense, universe_attrs


def row(gates, t):
    """Column ids of gate row t."""
    return gates.gather_rows(np.array([t]))[1]


def group_gates(store, grouping, tag="A"):
    """The gate matrix of a group's full universe, as the pipeline builds it."""
    return build_gates(store, grouping, tag, build_universe(store, grouping, tag))


def write_split(directory, name, lines):
    path = directory / f"{name}.tsv"
    path.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in lines), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# load_triples
# ---------------------------------------------------------------------------

def test_vocab_first_appearance_order(tmp_path):
    # ids follow first appearance, train then valid then test; a repeated
    # label keeps its first id
    write_split(tmp_path, "train", [("b", "likes", "a"), ("a", "has", "b")])
    write_split(tmp_path, "valid", [("c", "likes", "b")])
    write_split(tmp_path, "test", [("a", "owns", "d")])
    store = load_triples(str(tmp_path))
    assert store.entity_vocab == {"b": 0, "a": 1, "c": 2, "d": 3}
    assert list(store.entity_vocab) == ["b", "a", "c", "d"]
    assert store.relation_vocab == {"likes": 0, "has": 1, "owns": 2}
    assert list(store.relation_vocab) == ["likes", "has", "owns"]
    assert store.train.tolist() == [[0, 0, 1], [1, 1, 0]]


def test_load_triples_minimal_dir(tmp_path):
    write_split(tmp_path, "train", [("a", "likes", "b")])
    write_split(tmp_path, "valid", [])
    write_split(tmp_path, "test", [("a", "likes", "c")])
    store = load_triples(str(tmp_path))
    assert store.num_entities == 3
    assert store.num_relations == 1
    assert query_filters(store)[0].tolist() == [store.entity_vocab["b"]]
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
    # the filter of (u2, likes) holds its train and valid tails, not the test one
    assert query_filters(store)[1].tolist() == sorted(
        [store.entity_vocab["i1"], store.entity_vocab["i2"]])


# both TSV inputs: file name, one data line, and a loader returning the
# number of records it read from a directory
TSV_INPUTS = {
    "triples": ("train.tsv", "a\tr\tb", lambda d: len(load_triples(str(d)).train)),
    "interactions": ("inter.tsv", "alice\tb", lambda d: len(load_interactions(
        str(d / "inter.tsv"), store_from_labels([("a", "r", "b")])))),
}


@pytest.mark.parametrize("kind", list(TSV_INPUTS))
def test_tsv_input_skips_comments_and_blanks(tmp_path, kind):
    name, line, load = TSV_INPUTS[kind]
    (tmp_path / name).write_text(f"# header\n\n{line}\n#\t\t\t\n", encoding="utf-8")
    assert load(tmp_path) == 1


@pytest.mark.parametrize("kind", list(TSV_INPUTS))
def test_tsv_input_malformed_line_reports_path_and_lineno(tmp_path, kind):
    name, line, load = TSV_INPUTS[kind]
    path = tmp_path / name
    path.write_text(f"# header\n{line}\noops\n", encoding="utf-8")
    n = line.count("\t") + 1
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: expected {n} "
                                         "tab-separated fields, got 1$"):
        load(tmp_path)


@pytest.mark.parametrize("kind", list(TSV_INPUTS))
@pytest.mark.parametrize("head,lineno", [("{0}\n" * 1499, 1500), ("{0}\r{0}\n", 3)],
                         ids=["past-8-KiB", "lone-cr"])
def test_tsv_input_not_utf8_reports_path_and_lineno(tmp_path, kind, head, lineno):
    # the decoder's own position counts within its 8 KiB chunk, not the file
    name, line, load = TSV_INPUTS[kind]
    path = tmp_path / name
    path.write_bytes(head.format(line).encode() + f"\xff{line}\n{line}\n".encode("latin-1"))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: not UTF-8 text "
                                         r"\(invalid start byte\)$"):
        load(tmp_path)


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
    with pytest.raises(FileNotFoundError, match="nope does not exist; data.triples_dir must be "
                                                "a directory holding train.tsv"):
        load_triples(str(tmp_path / "nope"))


def test_load_triples_split_overlap_raises(tmp_path):
    write_split(tmp_path, "train", [("a", "r", "b"), ("bob", "likes", "pen")])
    write_split(tmp_path, "test", [("bob", "likes", "pen")])
    # the sample is named by the labels in the files, not by internal ids
    with pytest.raises(ConfigError, match=re.escape(
            "splits train and test share 1 triple(s), e.g. ('bob', 'likes', 'pen'); "
            "splits must be disjoint")):
        load_triples(str(tmp_path))


# ---------------------------------------------------------------------------
# grouping
# ---------------------------------------------------------------------------

def test_make_grouping_tags_and_none_default():
    store = store_from_labels([("a", "likes", "b"), ("g", "genre", "b"), ("m", "brand", "b")])
    rel = store.relation_vocab
    assert make_grouping(store, ["genre"], ["brand"]) == \
        {"A": [rel["genre"]], "B": [rel["brand"]], "none": [rel["likes"]]}
    # each tag's ids are sorted, whatever the order of the labels
    assert make_grouping(store, ["brand", "genre"], []) == \
        {"A": [rel["genre"], rel["brand"]], "B": [], "none": [rel["likes"]]}


def test_make_grouping_overlap_raises():
    store = store_from_labels([("g", "genre", "b")])
    with pytest.raises(ConfigError, match="both groups"):
        make_grouping(store, ["genre"], ["genre"])


def test_make_grouping_unknown_label_ignored_with_warning(caplog):
    store = store_from_labels([("g", "genre", "b")])
    with caplog.at_level("WARNING"):
        grouping = make_grouping(store, ["genre"], ["nope"])
    assert "unknown relation" in caplog.text
    assert grouping == {"A": [store.relation_vocab["genre"]], "B": [], "none": []}


def test_load_grouping_file(tmp_path):
    store = store_from_labels([("g", "genre", "b"), ("m", "brand", "b")])
    path = tmp_path / "grouping.yaml"
    path.write_text("group_a: [genre]\ngroup_b: [brand]\n", encoding="utf-8")
    assert load_grouping(str(path), store) == \
        {"A": [store.relation_vocab["genre"]], "B": [store.relation_vocab["brand"]], "none": []}


def test_load_grouping_unknown_key_raises(tmp_path):
    store = store_from_labels([("g", "genre", "b")])
    path = tmp_path / "grouping.yaml"
    path.write_text("group_a: [genre]\ngroup_c: [x]\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="group_c"):
        load_grouping(str(path), store)
    path.write_text("- group_a\n- group_b\n", encoding="utf-8")  # a list, not a mapping
    with pytest.raises(ConfigError, match="grouping file must be a mapping"):
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
    g1, g2 = store.entity_vocab["g1"], store.entity_vocab["g2"]
    assert build_universe(store, grouping, "A").tolist() == [g1, g2]
    assert build_universe(store, grouping, "A", cap=1).tolist() == [g1]


def test_build_universe_tie_break_ascending_entity_id():
    store = store_from_labels([("x", "genre", "b1"), ("w", "genre", "b2")])
    grouping = make_grouping(store, ["genre"], [])
    # equal frequency 1: ascending entity id wins, and "x" was seen first
    assert build_universe(store, grouping, "A").tolist() == sorted(
        [store.entity_vocab["x"], store.entity_vocab["w"]])


def test_build_universe_counts_distinct_tails_not_triples():
    # same (head, tail) pair through two group relations counts once
    store = store_from_labels([("g1", "genre", "b1"), ("g1", "style", "b1"),
                               ("g2", "genre", "b1"), ("g2", "genre", "b2")])
    grouping = make_grouping(store, ["genre", "style"], [])
    g1, g2 = store.entity_vocab["g1"], store.entity_vocab["g2"]
    assert build_universe(store, grouping, "A").tolist() == [g2, g1]  # freqs 2, 1


def test_build_universe_empty_group_warns(caplog):
    store = store_from_labels([("g", "genre", "b")])
    grouping = make_grouping(store, ["genre"], [])
    with caplog.at_level("WARNING"):
        attrs = build_universe(store, grouping, "B")
    assert len(attrs) == 0
    assert "no train triples" in caplog.text


def test_build_universe_bad_group_and_cap():
    # cap is range-checked by the config (gates.cap_a/cap_b), not here
    store = store_from_labels([("g", "genre", "b")])
    grouping = make_grouping(store, ["genre"], [])
    with pytest.raises(ValueError):
        build_universe(store, grouping, "C")


def test_universe_cap_prefix_property():
    rng = np.random.default_rng(7)
    for trial in range(5):
        triples = [(f"g{rng.integers(8)}", "genre", f"b{rng.integers(12)}")
                   for _ in range(40)]
        store = store_from_labels(triples)
        grouping = make_grouping(store, ["genre"], [])
        full = build_universe(store, grouping, "A").tolist()
        for cap in range(1, len(full) + 1):
            assert build_universe(store, grouping, "A", cap=cap).tolist() == full[:cap]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_entities=st.integers(1, 25), n_train=st.integers(0, 80),
       cap=st.one_of(st.none(), st.integers(1, 12)))
def test_build_universe_matches_the_unique_lexsort_oracle(seed, n_entities, n_train, cap):
    """Few entities and many triples: repeated (head, tail) pairs and
    frequency ties at every cap."""
    rng = np.random.default_rng(seed)
    store = random_store(rng, n_entities, 4, n_train, 0)
    tags = rng.choice(["A", "B", "none"], size=4).tolist()
    grouping = {tag: [r for r in range(4) if tags[r] == tag] for tag in (*GROUP_TAGS, "none")}
    for tag in GROUP_TAGS:
        got = build_universe(store, grouping, tag, cap=cap)
        assert got.dtype == np.int64
        assert got.tolist() == universe_attrs(store, grouping[tag], cap).tolist()


def test_universe_checksum_depends_on_order():
    def universe(attrs):
        return gates_from_dense(np.zeros((1, 2)), attrs=attrs)

    assert universe([1, 2]).checksum() != universe([2, 1]).checksum()
    assert universe([1, 2]).checksum() == universe([1, 2]).checksum()


def test_gate_checksum_is_the_sha256_of_the_tag_then_the_int64_attrs():
    """The bytes behind a report's universe checksums and a head checkpoint's
    universe_checksum_* fields, written out by hand."""
    store = store_from_labels([("g1", "genre", "b1"), ("g2", "genre", "b1"),
                               ("g2", "genre", "b2"), ("m", "brand", "b2")])
    grouping = make_grouping(store, ["genre"], ["brand"])
    g1, g2, m = (store.entity_vocab[x] for x in ("g1", "g2", "m"))
    want = {"A": hashlib.sha256(b"A" + struct.pack("<2q", g2, g1)).hexdigest(),
            "B": hashlib.sha256(b"B" + struct.pack("<q", m)).hexdigest()}
    assert {tag: group_gates(store, grouping, tag).checksum() for tag in GROUP_TAGS} == want


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def test_build_gates_single_edge():
    store = store_from_labels([("g1", "genre", "b1")])
    grouping = make_grouping(store, ["genre"], [])
    gates = group_gates(store, grouping)
    b1 = store.entity_vocab["b1"]
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
        gates = group_gates(store, grouping)

        group_ids = {store.relation_vocab[l] for l in ("genre", "style")
                     if l in store.relation_vocab}
        column = {h: j for j, h in enumerate(gates.attrs.tolist())}
        expected = {}
        for h, r, t in store.train.tolist():
            if r in group_ids and h in column:
                expected.setdefault(t, set()).add(column[h])
        assert gates.indices.size == sum(len(v) for v in expected.values())
        for t in range(store.num_entities):
            cols = row(gates, t)
            assert cols.tolist() == sorted(expected.get(t, set()))
            assert cols.size == 0 or (cols.min() >= 0 and cols.max() < gates.num_columns)
            assert np.all(np.diff(cols) > 0)  # sorted, duplicate-free


def test_build_gates_ignore_non_group_relations():
    # entity heads both a group triple and a task triple; only the group
    # edge contributes a gate bit
    store = store_from_labels([("g1", "genre", "b1"), ("g1", "likes", "b2")])
    grouping = make_grouping(store, ["genre"], [])
    gates = group_gates(store, grouping)
    assert row(gates, store.entity_vocab["b1"]).tolist() == [0]
    assert row(gates, store.entity_vocab["b2"]).size == 0


def test_build_gates_reads_train_only():
    base = [("g1", "genre", "b1"), ("g2", "genre", "b2"), ("u", "likes", "b1")]
    store1 = store_from_labels(base, valid=[("u", "likes", "b2")])
    store2 = store_from_labels(base, valid=[("g2", "genre", "b1")],
                               test=[("g1", "genre", "b2")])
    g1 = group_gates(store1, make_grouping(store1, ["genre"], []))
    g2 = group_gates(store2, make_grouping(store2, ["genre"], []))
    assert np.array_equal(g1.indptr, g2.indptr)
    assert np.array_equal(g1.indices, g2.indices)


def test_build_gates_empty_universe():
    store = store_from_labels([("u", "likes", "b")])
    grouping = make_grouping(store, [], [])
    gates = group_gates(store, grouping)
    assert gates.indices.size == 0
    assert gates.indptr.tolist() == [0] * (store.num_entities + 1)
    assert gates.indptr.dtype == np.int64
    assert gates.num_columns == 0
    assert gates.matvec(np.empty(0)).tolist() == [0.0] * store.num_entities


def test_gate_matvec_matches_dense():
    rng = np.random.default_rng(11)
    for trial in range(10):
        triples = [(f"g{rng.integers(6)}", "genre", f"b{rng.integers(10)}")
                   for _ in range(30)]
        store = store_from_labels(triples)
        grouping = make_grouping(store, ["genre"], [])
        gates = group_gates(store, grouping)
        dense = to_dense(gates)
        v = rng.standard_normal(gates.num_columns)
        assert np.allclose(gates.matvec(v), dense @ v, atol=1e-12)


def test_gate_matvec_length_check():
    store = store_from_labels([("g1", "genre", "b1")])
    grouping = make_grouping(store, ["genre"], [])
    gates = group_gates(store, grouping)
    with pytest.raises(ValueError, match="universe size"):
        gates.matvec(np.zeros(5))


def test_gather_rows_concatenates_in_order():
    store = store_from_labels([("g1", "genre", "b1"), ("g2", "genre", "b1"),
                               ("g2", "genre", "b2"), ("b3", "other", "g1")])
    grouping = make_grouping(store, ["genre"], [])
    gates = group_gates(store, grouping)
    b1, b2, b3 = (store.entity_vocab[x] for x in ("b1", "b2", "b3"))
    tails = np.array([b2, b1, b3, b2])
    owners, cols = gates.gather_rows(tails)
    # columns: g2 (two tails) is 0, g1 is 1; so row b1 = [0, 1], row b2 = [0],
    # and row b3 is empty
    assert cols.tolist() == [0, 0, 1, 0]
    assert owners.tolist() == [0, 1, 1, 3]
    assert np.bincount(owners, minlength=len(tails)).tolist() == [1, 2, 0, 1]


@given(seed=st.integers(0, 2**32 - 1), n_a=st.integers(0, 8), n_b=st.integers(0, 8))
@example(seed=0, n_a=0, n_b=0)
def test_gather_rows_of_concatenated_tails_split_at_the_first_cell_count(seed, n_a, n_b):
    # the gated head gathers t_pos and t_neg in one call and splits the cells
    # at the t_pos cell count, read off indptr
    rng = np.random.default_rng(seed)
    dense = rng.random((6, 4)) < 0.5
    dense[[2, 5]] = False  # empty rows
    gates = gates_from_dense(dense)
    a, b = rng.integers(0, 6, size=n_a), rng.integers(0, 6, size=n_b)  # tails repeat
    owners, cols = gates.gather_rows(np.concatenate([a, b]))
    n_first = int((gates.indptr[a + 1] - gates.indptr[a]).sum())
    assert n_first == int(gates.indptr[a + 1].sum() - gates.indptr[a].sum())
    for (want_owners, want_cols), part, shift in (
            (gates.gather_rows(a), slice(None, n_first), 0),
            (gates.gather_rows(b), slice(n_first, None), n_a)):
        assert np.array_equal(owners[part] - shift, want_owners)
        assert np.array_equal(cols[part], want_cols)


@given(lengths=st.lists(st.integers(0, 6), min_size=1, max_size=12),
       picks=st.lists(st.integers(0, 11), max_size=12),
       dtype=st.sampled_from([np.int32, np.int64]))
@example(lengths=[0], picks=[], dtype=np.int64)
@example(lengths=[0, 2, 0, 1, 0], picks=[4, 1, 0, 3, 2], dtype=np.int64)
@example(lengths=[2, 3, 0, 1], picks=[1, 1, 0, 3, 2, 0], dtype=np.int64)
@example(lengths=[4, 0, 2], picks=[2, 0], dtype=np.int32)
def test_gather_rows_matches_a_list_oracle(lengths, picks, dtype):
    """Rows of the given lengths, empty ones among them, gathered in any
    order with repeats, from an indptr and tails of either integer width.
    Each cell holds its own position, so a cell read from the wrong place
    shows in the columns."""
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(dtype)
    n_cells = int(indptr[-1])
    gates = GateMatrix("A", np.arange(n_cells), indptr, np.arange(n_cells))
    tails = np.array([p % len(lengths) for p in picks], dtype=dtype)
    owners, cols = gates.gather_rows(tails)
    assert owners.dtype == cols.dtype == np.int64
    want = [(k, cell) for k, t in enumerate(tails.tolist())
            for cell in range(indptr[t], indptr[t + 1])]
    assert owners.tolist() == [k for k, _ in want]
    assert cols.tolist() == [cell for _, cell in want]


def test_gate_matrix_takes_its_shape_from_its_csr():
    """Empty rows at the end still count: the entity count is the CSR's, and
    matvec gives each empty row an exact zero."""
    indptr = np.array([0, 2, 3, 3, 3, 3])
    gates = GateMatrix("A", np.array([7, 9]), indptr, np.array([0, 1, 1]))
    assert gates.num_entities == len(indptr) - 1 == 5
    out = gates.matvec(np.array([0.5, 2.25]))
    assert out.shape == (5,)
    assert out.tolist() == [2.75, 2.25, 0.0, 0.0, 0.0]


@given(pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 5)), max_size=40),
       spare_rows=st.integers(0, 3), n_cols=st.sampled_from([6, 7, 88_572]))
@example(pairs=[], spare_rows=0, n_cols=6)
@example(pairs=[], spare_rows=3, n_cols=6)
@example(pairs=[(2, 1), (2, 1), (2, 0), (2, 1)], spare_rows=2, n_cols=6)
@example(pairs=[(5, 3), (0, 2), (5, 3), (0, 2), (0, 0)], spare_rows=0, n_cols=6)
def test_pair_csr_matches_a_set_oracle(pairs, spare_rows, n_cols):
    """Distinct pairs, each row's columns ascending, empty rows (the first
    and last among them) and rows past every row id all have their slice."""
    n_rows = max((r for r, _ in pairs), default=-1) + 1 + spare_rows
    rows = np.array([r for r, _ in pairs], dtype=np.int64)
    cols = np.array([c for _, c in pairs], dtype=np.int64)
    indptr, indices = pair_csr(rows, cols, n_rows, n_cols)
    assert indptr.dtype == indices.dtype == np.int64
    assert indptr.shape == (n_rows + 1,) and indptr[0] == 0 and indptr[-1] == indices.size
    distinct = set(pairs)
    for i in range(n_rows):
        want = sorted(c for r, c in distinct if r == i)
        assert indices[indptr[i]:indptr[i + 1]].tolist() == want


def test_gate_checksum_changes_with_structure():
    s1 = store_from_labels([("g1", "genre", "b1")])
    s2 = store_from_labels([("g1", "genre", "b1"), ("g1", "genre", "b2")])
    g1 = group_gates(s1, make_grouping(s1, ["genre"], []))
    g2 = group_gates(s2, make_grouping(s2, ["genre"], []))
    assert g1.indptr.tolist() == [0, 0, 1]  # entities g1, b1
    assert g2.indptr.tolist() == [0, 0, 1, 2]  # entities g1, b1, b2
    assert g1.indices.tolist() == [0] and g2.indices.tolist() == [0, 0]
