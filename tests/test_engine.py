"""Differential tests: the chunked scoring engine against the per-query oracles.

Ranks and per-query alignment must equal the oracles exactly, on random
stores, on tie-heavy ones, on degenerate queries and across chunk
boundaries. The sign-flip test must give the p-value of one unchunked draw.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gatedbias import evaluator
from gatedbias.backbone import EmbeddingTable
from gatedbias.evaluator import (AlignedSet, alignment_delta_test, alignment_per_query,
                                 compute_rank_table, query_set)
from helpers import random_store, random_table, store_from_labels


def assert_engine_matches_oracle(store, table, biases, members, k, block_cells):
    queries = query_set(store)
    ranks = compute_rank_table(queries, table, biases, block_cells=block_cells)
    assert ranks.shape == (len(biases), len(store.test))
    for bias, got in zip(biases, ranks):
        assert np.array_equal(got, oracles.compute_rank_table(store, table, bias))

    aligned = AlignedSet(members=np.asarray(members, dtype=np.int64), threshold_tau=0.0,
                         num_entities=store.num_entities)
    got = alignment_per_query(queries, table, biases, aligned, k, block_cells=block_cells)
    pairs = [(int(h), int(r)) for h, r, _ in store.test]
    filters = oracles.query_filters(store)
    for bias, row in zip(biases, got):
        want = oracles.alignment_per_query(pairs, filters, oracles.biased_scores(table, bias),
                                           aligned, k)
        assert np.array_equal(row, want)


def equal_table(n_entities, n_relations, dim=3, value=0.5):
    """Every entity embedding equal: each score row is one tied block."""
    return EmbeddingTable(np.full((n_entities, dim), value, dtype=np.float32),
                          np.full((n_relations, dim), value, dtype=np.float32))


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
    aligned = AlignedSet(members=np.arange(n), threshold_tau=0.0, num_entities=n)
    everyone = alignment_per_query(queries, equal_table(n, 1), None, aligned, k)
    assert everyone[0, 0] == 0.0  # nothing left to recommend
    assert everyone[0, 2] == min(k, n) / k


def test_engine_scores_each_query_once_per_sweep(monkeypatch):
    rng = np.random.default_rng(3)
    store = random_store(rng, n_entities=30, n_relations=2, n_train=80, n_test=17)
    table = random_table(rng, 30, 2, 4)
    calls = []
    original = EmbeddingTable.score_all_tails
    monkeypatch.setattr(EmbeddingTable, "score_all_tails",
                        lambda self, h, r: calls.append((h, r)) or original(self, h, r))
    biases = [rng.standard_normal(30) for _ in range(5)]
    compute_rank_table(query_set(store), table, biases, block_cells=4 * 30)
    assert calls == [(int(h), int(r)) for h, r, _ in store.test]


def test_engine_rejects_a_bias_of_the_wrong_length():
    store = degenerate_store()
    table = random_table(np.random.default_rng(0), store.num_entities, 1, 4)
    with pytest.raises(ValueError, match="stack"):
        compute_rank_table(query_set(store), table, [np.zeros(store.num_entities + 1)])


# ---------------------------------------------------------------------------
# sign-flip test, drawn in chunks
# ---------------------------------------------------------------------------

def unchunked_p_value(pairs, n_resamples, seed):
    diffs = pairs[:, 1] - pairs[:, 0]
    rng = np.random.default_rng(seed)
    signs = rng.choice((-1.0, 1.0), size=(n_resamples, diffs.shape[0]))
    t_perm = np.abs((signs * diffs).mean(axis=1))
    return (int((t_perm >= abs(diffs.mean()) - 1e-15).sum()) + 1) / (n_resamples + 1)


@pytest.mark.parametrize("n_queries,n_resamples", [(2, 10000), (7, 10000), (100, 10000),
                                                   (891, 3001)])
@pytest.mark.parametrize("seed", [0, 1, 17])
def test_delta_test_chunks_give_the_unchunked_p_value(n_queries, n_resamples, seed):
    rng = np.random.default_rng(seed + n_queries)
    # alignment-like values, multiples of 0.1, so permuted statistics tie the observed one
    base = rng.integers(0, 11, n_queries) / 10
    adapted = np.clip(base + rng.integers(-1, 3, n_queries) / 10, 0.0, 1.0)
    pairs = np.column_stack([base, adapted])
    want = unchunked_p_value(pairs, n_resamples, seed)
    _, p = alignment_delta_test(base.mean(), adapted.mean(), pairs, n_resamples, seed)
    assert p == want


def test_delta_test_uneven_chunk_remainder(monkeypatch):
    rng = np.random.default_rng(4)
    pairs = np.column_stack([rng.random(13), rng.random(13)])
    want = unchunked_p_value(pairs, 1000, 2)
    for cells in (13, 333 * 13, 999):  # 1-row chunks, 333 + 1, 76 + remainder 12
        monkeypatch.setattr(evaluator, "BLOCK_CELLS", cells)
        assert alignment_delta_test(0.0, 0.0, pairs, 1000, 2)[1] == want
