"""Differential tests: the (h, r)-keyed scoring engine against the per-query oracles.

Ranks and per-query alignment must equal the oracles exactly, on random
stores, on tie-heavy ones, on degenerate queries, on many queries sharing
one (h, r), on true tails inside their own filter and across chunk
boundaries; the query checksum, which hashes each query's filter straight
off its key's CSR slice, must equal the per-query oracle's. The sign-flip
test, which reads its signs off the raw generator stream in chunks of whole
words, must give the p-value of one rng.choice draw of every sign; a
separate test pins the numpy behaviour that this rests on.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gatedbias import evaluator
from gatedbias.backbone import EmbeddingTable
from gatedbias.evaluator import (alignment_delta_test, alignment_per_query, compute_rank_table,
                                 query_set)
from helpers import mask_of, random_store, random_table, store_from_labels


def assert_engine_matches_oracle(store, table, biases, members, k, block_cells):
    queries = query_set(store)
    aligned = mask_of(members, store.num_entities)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "BLOCK_CELLS", block_cells)
        ranks = compute_rank_table(queries, table, biases)
        got = alignment_per_query(queries, table, biases, aligned, k)
    assert ranks.shape == (len(biases), len(store.test))
    for bias, row in zip(biases, ranks):
        assert np.array_equal(row, oracles.compute_rank_table(store, table, bias))

    assert got.shape == (len(biases), len(queries.keys))
    pairs = [(int(h), int(r)) for h, r, _ in store.test]
    filters = oracles.query_filters(store)
    for bias, row in zip(biases, got):  # per key: query i reads column key_of[i]
        want = oracles.alignment_per_query(pairs, filters, oracles.biased_scores(table, bias),
                                           aligned, k)
        assert np.array_equal(row[queries.key_of], want)
    assert queries.checksum() == oracles.query_checksum(store)


def equal_table(n_entities, n_relations, dim=3, value=0.5):
    """Every entity embedding equal: each score row is one tied block."""
    return EmbeddingTable(np.full((n_entities + n_relations, dim), value, dtype=np.float32),
                          n_entities)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n_entities=st.integers(2, 24),
       n_relations=st.integers(1, 3),
       n_train=st.integers(0, 60),
       n_valid=st.integers(0, 10),
       n_test=st.integers(1, 25),
       ties=st.sampled_from(["none", "bias", "embeddings"]),
       k_extra=st.integers(-23, 4),
       block_rows=st.integers(0, 30))
def test_engine_matches_oracle_on_random_stores(seed, n_entities, n_relations, n_train, n_valid,
                                                n_test, ties, k_extra, block_rows):
    rng = np.random.default_rng(seed)
    store = random_store(rng, n_entities, n_relations, n_train, n_test, n_valid)
    if ties == "embeddings":
        table = equal_table(n_entities, n_relations)
    else:
        table = random_table(rng, n_entities, n_relations, 3)
    if ties == "none":
        biases = [rng.standard_normal(n_entities) for _ in range(3)]
    else:  # few distinct values: most candidates tie with others
        biases = [rng.choice([-1.0, 0.0, 1.0], size=n_entities) for _ in range(3)]
    biases.append(np.zeros(n_entities))
    members = np.flatnonzero(rng.random(n_entities) < 0.4)
    k = max(1, n_entities + k_extra)
    # block_rows 0 gives cells below one row: the engine takes one row at a time
    block_cells = max(1, block_rows * n_entities - int(rng.integers(0, 2)))
    assert_engine_matches_oracle(store, table, biases, members, k, block_cells)


def test_engine_matches_oracle_on_constant_bias_store():
    """The store of acceptance test c1 under constant shifts and all-equal embeddings."""
    rng = np.random.default_rng(0)
    store = random_store(rng, n_entities=100, n_relations=4, n_train=400, n_test=200)
    biases = [np.zeros(100), *(np.full(100, c) for c in (-5.0, 0.3, 10.0))]
    members = np.arange(0, 100, 3)
    for table in (random_table(rng, 100, 4, 16), equal_table(100, 4)):
        for block_cells in (1, 700, evaluator.BLOCK_CELLS):
            assert_engine_matches_oracle(store, table, biases, members, 10, block_cells)


def degenerate_store():
    """q0: every entity is a known tail, so all candidates are filtered and the
    true tail sits in its own filter set. q1: true tail also filtered, a few
    candidates left. q2: no filter at all."""
    entities = [f"x{i}" for i in range(6)]
    train = [("q0", "r", e) for e in ["q0", "q1", "q2", *entities]]
    train += [("q1", "r", e) for e in entities[:4]]
    test = [("q0", "r", "x2"), ("q1", "r", "x1"), ("q2", "r", "x5")]
    return store_from_labels(train=train, test=test)


@pytest.mark.parametrize("k", [1, 3, 9, 20])
@pytest.mark.parametrize("block_cells", [1, 10, 18, 1000])
def test_engine_matches_oracle_on_degenerate_queries(k, block_cells):
    store = degenerate_store()
    n = store.num_entities
    rng = np.random.default_rng(k)
    biases = [np.zeros(n), rng.standard_normal(n), np.repeat([0.0, 1.0], [n // 2, n - n // 2])]
    for table in (random_table(rng, n, 1, 4), equal_table(n, 1)):
        assert_engine_matches_oracle(store, table, biases, np.arange(0, n, 2), k, block_cells)

    queries = query_set(store)
    aligned = np.ones(n, dtype=bool)
    everyone = alignment_per_query(queries, equal_table(n, 1), None, aligned, k)
    assert everyone[0, queries.key_of[0]] == 0.0  # nothing left to recommend
    assert everyone[0, queries.key_of[2]] == min(k, n) / k


def test_engine_scores_each_key_once_per_sweep(monkeypatch):
    """Each distinct test (h, r) is scored once per sweep, in key order."""
    rng = np.random.default_rng(3)
    store = random_store(rng, n_entities=30, n_relations=2, n_train=80, n_test=17)
    store.test[:, 0] %= 4  # four heads: keys repeat
    table = random_table(rng, 30, 2, 4)
    calls = []
    original = EmbeddingTable.score_all_tails
    monkeypatch.setattr(EmbeddingTable, "score_all_tails",
                        lambda self, h, r: calls.append((h, r)) or original(self, h, r))
    biases = [rng.standard_normal(30) for _ in range(5)]
    keys = sorted({(int(h), int(r)) for h, r, _ in store.test})
    assert len(keys) < len(store.test)
    queries = query_set(store)
    monkeypatch.setattr(evaluator, "BLOCK_CELLS", 4 * 30)
    compute_rank_table(queries, table, biases)
    assert calls == keys
    calls.clear()
    aligned = mask_of(np.arange(0, 30, 2), 30)
    monkeypatch.setattr(evaluator, "BLOCK_CELLS", 3 * 30 - 1)
    alignment_per_query(queries, table, biases, aligned, 5)
    assert calls == keys


# ---------------------------------------------------------------------------
# keys: queries that share a distinct (h, r)
# ---------------------------------------------------------------------------

def hub_store(rng, n_entities, n_heads, n_test, n_train, n_in_train):
    """Few heads and one relation: every key has many test queries with
    different true tails. n_in_train of the test triples are also train
    triples, so their true tail sits in its own filter."""
    hubs = [f"u{i}" for i in range(n_heads)]
    items = [f"i{i}" for i in range(n_entities - n_heads)]

    def draw(n):
        return [(hubs[int(rng.integers(n_heads))], "likes", items[int(rng.integers(len(items)))])
                for _ in range(n)]

    test = draw(n_test)
    train = draw(n_train) + test[:n_in_train]
    train += [(u, "likes", u) for u in hubs] + [(i, "likes", i) for i in items]  # every label
    return store_from_labels(train=train, test=test)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engine_matches_oracle_on_queries_sharing_a_key(seed):
    rng = np.random.default_rng(seed)
    store = hub_store(rng, n_entities=40, n_heads=3, n_test=60, n_train=50, n_in_train=0)
    queries = query_set(store)
    assert len(queries.keys) <= 3 < len(queries)
    n = store.num_entities
    table = random_table(rng, n, 1, 4)
    biases = [np.zeros(n), rng.standard_normal(n), rng.choice([-1.0, 0.0, 1.0], size=n)]
    for block_cells in (1, n, 2 * n, evaluator.BLOCK_CELLS):
        assert_engine_matches_oracle(store, table, biases, np.arange(0, n, 3), 10, block_cells)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engine_matches_oracle_on_true_tails_in_their_own_filter(seed):
    rng = np.random.default_rng(seed)
    store = hub_store(rng, n_entities=30, n_heads=2, n_test=40, n_train=20, n_in_train=15)
    filters = oracles.query_filters(store)
    inside = [t in f.tolist() for t, f in zip(store.test[:, 2].tolist(), filters)]
    assert any(inside) and not all(inside)
    n = store.num_entities
    biases = [np.zeros(n), rng.standard_normal(n), rng.choice([-1.0, 1.0], size=n)]
    for table in (random_table(rng, n, 1, 4), equal_table(n, 1)):
        for block_cells in (1, n + 1, evaluator.BLOCK_CELLS):
            assert_engine_matches_oracle(store, table, biases, np.arange(1, n, 2), 7, block_cells)


def test_engine_matches_oracle_on_all_tie_rows_shared_by_a_key():
    rng = np.random.default_rng(5)
    store = hub_store(rng, n_entities=25, n_heads=2, n_test=30, n_train=10, n_in_train=8)
    n = store.num_entities
    table = equal_table(n, 1)
    biases = [np.zeros(n), np.full(n, 2.5)]
    for block_cells in (1, n, evaluator.BLOCK_CELLS):
        assert_engine_matches_oracle(store, table, biases, np.arange(0, n, 4), 5, block_cells)
    # one tied block: a query's rank depends only on whether its tail is filtered
    queries = query_set(store)
    ranks = compute_rank_table(queries, table)[0]
    filters = oracles.query_filters(store)
    for i, t in enumerate(queries.true_tails.tolist()):
        filt = filters[i].tolist()
        candidates = n - len(filt) + (t in filt)
        assert ranks[i] == 1 + (candidates - 1) // 2


@pytest.mark.parametrize("rows", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("spare", [-1, 0, 1])
def test_engine_matches_oracle_across_key_chunk_boundaries(rows, spare):
    """Chunks of rows ± 1 cells against 7 keys: below one row (one key per
    chunk), and chunk boundaries that split the run of keys unevenly."""
    rng = np.random.default_rng(rows * 3 + spare + 1)
    store = hub_store(rng, n_entities=30, n_heads=7, n_test=50, n_train=30, n_in_train=10)
    assert len(query_set(store).keys) == 7
    n = store.num_entities
    table = random_table(rng, n, 1, 4)
    biases = [rng.standard_normal(n), rng.choice([0.0, 1.0], size=n)]
    block_cells = max(1, rows * n + spare)
    assert_engine_matches_oracle(store, table, biases, np.arange(0, n, 2), 6, block_cells)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_heads=st.integers(1, 6), n_test=st.integers(1, 40),
       n_in_train=st.integers(0, 40), block_rows=st.integers(0, 8))
def test_engine_matches_oracle_on_random_hub_stores(seed, n_heads, n_test, n_in_train,
                                                    block_rows):
    rng = np.random.default_rng(seed)
    store = hub_store(rng, n_entities=20, n_heads=n_heads, n_test=n_test, n_train=15,
                      n_in_train=min(n_in_train, n_test))
    n = store.num_entities
    table = random_table(rng, n, 1, 3)
    biases = [rng.standard_normal(n), rng.choice([-1.0, 0.0, 1.0], size=n)]
    block_cells = max(1, block_rows * n - int(rng.integers(0, 2)))
    assert_engine_matches_oracle(store, table, biases, np.flatnonzero(rng.random(n) < 0.4),
                                 int(rng.integers(1, n + 2)), block_cells)


@pytest.mark.parametrize("seed", [0, 1])
def test_query_set_stores_one_filter_per_key(seed):
    rng = np.random.default_rng(seed)
    store = hub_store(rng, n_entities=40, n_heads=4, n_test=80, n_train=60, n_in_train=10)
    queries = query_set(store)
    filters = oracles.query_filters(store)
    by_key = {(int(h), int(r)): f for (h, r, _), f in zip(store.test, filters)}
    assert queries.filter_indices.size == sum(f.size for f in by_key.values())
    assert queries.keys.dtype == np.int64 and queries.keys.shape == (len(by_key), 2)
    assert [tuple(key) for key in queries.keys.tolist()] == sorted(by_key)
    ptr = queries.filter_indptr
    for i in range(len(queries)):
        key = queries.key_of[i]
        assert np.array_equal(queries.filter_indices[ptr[key]:ptr[key + 1]], filters[i])
        assert tuple(queries.keys[key]) == tuple(store.test[i, :2])


def test_engine_rejects_a_bias_of_the_wrong_length():
    store = degenerate_store()
    table = random_table(np.random.default_rng(0), store.num_entities, 1, 4)
    with pytest.raises(ValueError, match="stack"):
        compute_rank_table(query_set(store), table, [np.zeros(store.num_entities + 1)])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_engine_rejects_a_non_finite_bias(value):
    """A non-finite bias would pass for a filtered cell or win every tie:
    both sweeps refuse it."""
    rng = np.random.default_rng(0)
    store = random_store(rng, n_entities=30, n_relations=2, n_train=80, n_test=10)
    table = random_table(rng, 30, 2, 4)
    queries = query_set(store)
    bias = np.zeros(30)
    bias[store.test[0, 2]] = value
    aligned = mask_of(np.arange(5), 30)
    with pytest.raises(ValueError, match="biases must be finite"):
        compute_rank_table(queries, table, [np.zeros(30), bias])
    with pytest.raises(ValueError, match="biases must be finite"):
        alignment_per_query(queries, table, [bias], aligned, 3)


# ---------------------------------------------------------------------------
# the query checksum, each query's filter read off its key's CSR slice
# ---------------------------------------------------------------------------

def test_query_checksum_matches_oracle_on_hand_fixtures():
    for store in (degenerate_store(),
                  store_from_labels(train=[("a", "r", "b"), ("a", "r", "c")],
                                    test=[("a", "r", "d"), ("b", "r", "a")])):
        queries = query_set(store)
        assert (np.diff(queries.filter_indptr) == 0).any()  # a key with an empty filter
        assert queries.checksum() == oracles.query_checksum(store)


def test_query_checksum_matches_oracle_when_keys_are_near_queries():
    rng = np.random.default_rng(11)
    store = random_store(rng, n_entities=200, n_relations=6, n_train=800, n_test=90, n_valid=30)
    queries = query_set(store)
    assert 0.9 * len(queries) <= len(queries.keys) < len(queries)
    assert queries.filter_indices.size > 0
    assert queries.checksum() == oracles.query_checksum(store)


@pytest.mark.parametrize("seed", [1, 4, 25, 60])
def test_query_checksum_chunks_give_the_oracle_digest(seed):
    """Many queries share a few hub keys, so a key's filter is hashed once
    for each of its queries."""
    store = hub_store(np.random.default_rng(seed), n_entities=30, n_heads=4, n_test=50,
                      n_train=60, n_in_train=10)
    assert query_set(store).checksum() == oracles.query_checksum(store)


# ---------------------------------------------------------------------------
# sign-flip test, read off the raw stream in chunks
# ---------------------------------------------------------------------------

def test_choice_signs_are_the_top_bits_of_the_raw_stream():
    # Two draws with an odd size: the second starts on the high half that the
    # first left unused. alignment_delta_test reads its signs this way.
    for seed in (0, 1, 17):
        for n in (1, 7, 4097):
            rng = np.random.default_rng(seed)
            signs = np.concatenate([rng.choice((-1.0, 1.0), size=n) for _ in range(2)])
            words = np.random.default_rng(seed).bit_generator.random_raw(n)
            top = np.empty(2 * n, dtype=np.uint64)
            top[0::2] = (words >> 31) & 1
            top[1::2] = words >> 63
            assert np.array_equal(signs, np.where(top == 1, 1.0, -1.0)), (
                f"numpy {np.__version__} no longer draws rng.choice((-1.0, 1.0)) sign i from "
                "bit 31 (even i) or bit 63 (odd i) of PCG64 word i // 2, low half first, "
                "keeping an unused high half for the next call; alignment_delta_test "
                f"assumes it (seed {seed}, size {n})")
            # the same bits as alignment_delta_test reads them: bit 31 of 32-bit draw i
            draws = words.astype("<u8", copy=False).view("<u4")
            assert np.array_equal(signs, np.where(draws >> 31 == 1, 1.0, -1.0)), (
                f"numpy {np.__version__}: rng.choice((-1.0, 1.0)) sign i is no longer bit 31 "
                f"of little-endian 32-bit draw i (seed {seed}, size {n})")


def alignment_like_pairs(n_queries, seed):
    """Base and adapted per-query values, multiples of 0.1, so permuted
    statistics tie the observed one. The adapted values step -0.1, 0 or +0.1
    from the base, with about sqrt(n_queries) extra +0.1 steps, so the
    p-values spread over (0, 1] instead of sitting at 1 / (resamples + 1)."""
    rng = np.random.default_rng(seed + n_queries)
    steps = rng.integers(-1, 2, n_queries)
    steps[:math.isqrt(n_queries)] = 1
    base = rng.integers(1, 10, n_queries) / 10
    return np.column_stack([base, base + steps / 10])


# Chunks hold an even number of rows, at most BLOCK_CELLS // 2 = 16,384
# cells but at least two rows. Q 3 and 11 give odd rows in even chunks
# (16,380 and 16,368 cells). Q 16,385 exceeds the budget and Q 40,001
# BLOCK_CELLS, so every chunk is two rows; with 37 resamples the last is
# one odd row, whose unused high half is never read.
@pytest.mark.parametrize("n_queries,n_resamples", [
    (2, 10000), (3, 10000), (7, 1), (7, 37), (7, 10000), (11, 10000), (100, 10000),
    (891, 3001), (16385, 37), (40001, 1), (40001, 37)])
@pytest.mark.parametrize("seed", [0, 1, 17])
def test_delta_test_chunks_give_the_unchunked_p_value(n_queries, n_resamples, seed):
    pairs = alignment_like_pairs(n_queries, seed)
    want = oracles.sign_flip_p_value(pairs, n_resamples, seed)
    assert alignment_delta_test(pairs[:, 1] - pairs[:, 0], n_resamples, seed) == want


def test_delta_test_uneven_chunk_remainder(monkeypatch):
    # 13-cell rows; 1001 resamples leave a last chunk of odd rows
    rng = np.random.default_rng(4)
    pairs = np.column_stack([rng.random(13), rng.random(13)])
    for n_resamples in (1000, 1001):
        want = oracles.sign_flip_p_value(pairs, n_resamples, 2)
        for cells in (1, 26, 51,     # under four rows' worth: the two-row minimum
                      78,            # three rows before rounding down to two
                      2 * 333 * 13,  # 333 rows before rounding: chunks of 332
                      999):          # 38 rows
            monkeypatch.setattr(evaluator, "BLOCK_CELLS", cells)
            assert alignment_delta_test(pairs[:, 1] - pairs[:, 0], n_resamples, 2) == want


@settings(max_examples=60, deadline=None)
@given(n_queries=st.integers(2, 300), n_resamples=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1), block_cells=st.integers(1, 2000))
def test_delta_test_matches_oracle_on_random_shapes(n_queries, n_resamples, seed, block_cells):
    pairs = alignment_like_pairs(n_queries, seed)
    want = oracles.sign_flip_p_value(pairs, n_resamples, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "BLOCK_CELLS", block_cells)
        assert alignment_delta_test(pairs[:, 1] - pairs[:, 0], n_resamples, seed) == want
