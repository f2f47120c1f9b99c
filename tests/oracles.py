"""Reference implementations the library must agree with.

The ranking oracles score one query at a time with score_all_tails and rank
or sort that single row, with filters read straight from store.known_tails.
They share no code with the chunked engine in gatedbias.evaluator, which
must agree with them exactly; the differential tests compare the two.
score and to_dense are the one-triple DistMult score and the dense form of a
gate matrix, written out from the stored arrays.
"""

from __future__ import annotations

import numpy as np

from gatedbias.evaluator import AlignedSet

_EMPTY_IDS = np.empty(0, dtype=np.int64)


def score(table, h: int, r: int, t: int) -> float:
    """DistMult s(h, r, t) = sum_j e_h[j] * e_r[j] * e_t[j], in float64."""
    ent = table.entity_emb.astype(np.float64)
    rel = table.relation_emb.astype(np.float64)
    return float(np.dot(ent[h] * rel[r], ent[t]))


def to_dense(gates) -> np.ndarray:
    """The |E| x |U| 0/1 matrix of a GateMatrix, row by row from its CSR arrays."""
    dense = np.zeros((gates.num_entities, gates.num_columns), dtype=np.float64)
    for t in range(gates.num_entities):
        dense[t, gates.indices[gates.indptr[t]:gates.indptr[t + 1]]] = 1.0
    return dense


def filtered_rank(scores: np.ndarray, true_tail: int, filter_out: np.ndarray) -> int:
    """Rank of the true tail after dropping filter_out \\ {true_tail} from candidates.

    Ties resolve to the middle of the tied block, rounded down:
    rank = 1 + #{strictly greater} + floor(#{equal, excluding self} / 2).
    """
    n = scores.shape[0]
    if not 0 <= true_tail < n:
        raise ValueError(f"true_tail {true_tail} out of range [0, {n})")
    s_true = scores[true_tail]
    keep = np.ones(n, dtype=bool)
    filt = np.asarray(filter_out, dtype=np.int64)
    if filt.size:
        keep[filt] = False
    keep[true_tail] = True
    kept = scores[keep]
    greater = int((kept > s_true).sum())
    equal = int((kept == s_true).sum()) - 1
    return 1 + greater + equal // 2


def topk_filtered(scores: np.ndarray, filter_out: np.ndarray, k: int) -> np.ndarray:
    """Ids of the k best unfiltered candidates, score descending, ties by id."""
    s = np.array(scores, dtype=np.float64)
    filt = np.asarray(filter_out, dtype=np.int64)
    if filt.size:
        s[filt] = -np.inf
    order = np.argsort(-s, kind="stable")[:k]
    return order[np.isfinite(s[order])]


def query_filters(store, split: str = "test") -> list[np.ndarray]:
    """Known train+valid tails for each query of the split, in split order."""
    return [store.known_tails.get((int(h), int(r)), _EMPTY_IDS) for h, r, _ in store.split(split)]


def compute_rank_table(store, table, bias_values=None, split: str = "test") -> np.ndarray:
    """Filtered rank of each query of the split, in split order."""
    triples = store.split(split)
    if triples.shape[0] == 0:
        raise ValueError(f"split {split!r} has no triples to rank")
    filters = query_filters(store, split)
    ranks = np.empty(triples.shape[0], dtype=np.int64)
    for i, (h, r, t) in enumerate(triples):
        scores = table.score_all_tails(int(h), int(r))
        if bias_values is not None:
            scores = scores + bias_values
        ranks[i] = filtered_rank(scores, int(t), filters[i])
    return ranks


def alignment_per_query(queries: list[tuple[int, int]], filters: list[np.ndarray],
                        scores_fn, aligned: AlignedSet, k: int) -> np.ndarray:
    """Per-query |top-k ∩ A| / k over the filtered candidate set."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(queries) != len(filters):
        raise ValueError("queries and filters disagree on length")
    mask = aligned.mask()
    out = np.empty(len(queries), dtype=np.float64)
    for i, (h, r) in enumerate(queries):
        top = topk_filtered(scores_fn(h, r), filters[i], k)
        out[i] = mask[top].sum() / k
    return out


def alignment_at_k(queries, filters, scores_fn, aligned: AlignedSet, k: int) -> float:
    if len(queries) == 0:
        raise ValueError("alignment needs at least one query")
    return float(alignment_per_query(queries, filters, scores_fn, aligned, k).mean())


def biased_scores(table, values=None):
    """scores_fn of the backbone plus an optional bias vector."""
    if values is None:
        return table.score_all_tails
    return lambda h, r: table.score_all_tails(h, r) + values
