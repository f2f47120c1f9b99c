"""Reference implementations the library must agree with.

The ranking oracles score one query at a time with score_all_tails and rank
or sort that single row, with filters gathered from the train and valid
splits in a plain dict.
They share no code with the chunked engine in gatedbias.evaluator, which
must agree with them exactly; the differential tests compare the two.
query_checksum hashes those filters one query at a time; QuerySet.checksum,
which gathers them in chunks, must give the same digest.
sign_flip_p_value is the sign-flip test as one rng.choice draw of every
sign; alignment_delta_test, which reads the signs off the raw generator
stream in chunks, must give the same p-value.
score and to_dense are the one-triple DistMult score and the dense form of a
gate matrix, written out from the stored arrays.
corrupt_pairs is the heads' pair draw as it stood before the backbone and
both heads shared one: the epoch's triples permuted and each repeated npp
times, then one draw of every negative tail, shifted past its positive.
train_backbone is the backbone trainer as it stood before it drew an epoch's
negatives at once and scattered through flat tables: one negative draw and
four 2-d np.add.at calls per batch. The library's trainer must give the same
float64 tables bit for bit; float32 storage rounds away most reorderings of
its additions, so the comparison is made before it.
"""

from __future__ import annotations

import hashlib

import numpy as np

from gatedbias.evaluator import AlignedSet

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
    """Known train+valid tails (sorted, distinct) for each query of the split,
    in split order."""
    known: dict[tuple[int, int], set[int]] = {}
    for h, r, t in [*store.train.tolist(), *store.valid.tolist()]:
        known.setdefault((h, r), set()).add(t)
    return [np.array(sorted(known.get((h, r), ())), dtype=np.int64)
            for h, r, _ in store.split(split).tolist()]


def query_checksum(store) -> str:
    """sha256 of the test triples as int64, then of each test query's filter
    as int64, one query at a time in split order."""
    h = hashlib.sha256(store.test.astype(np.int64).tobytes())
    for filt in query_filters(store):
        h.update(filt.astype(np.int64).tobytes())
    return h.hexdigest()


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


def sign_flip_p_value(pairs, n_resamples: int, seed: int) -> float:
    """Add-one p-value of the two-sided paired sign-flip test, all
    n_resamples x n signs drawn at once with rng.choice."""
    diffs = pairs[:, 1] - pairs[:, 0]
    rng = np.random.default_rng(seed)
    signs = rng.choice((-1.0, 1.0), size=(n_resamples, diffs.shape[0]))
    t_perm = np.abs((signs * diffs).mean(axis=1))
    return (int((t_perm >= abs(diffs.mean()) - 1e-15).sum()) + 1) / (n_resamples + 1)


def biased_scores(table, values=None):
    """scores_fn of the backbone plus an optional bias vector."""
    if values is None:
        return table.score_all_tails
    return lambda h, r: table.score_all_tails(h, r) + values


def corrupt_pairs(store, epochs: int, npp: int, rng) -> list[np.ndarray]:
    """Each epoch's (r, h, t_pos, t_neg) rows of its n * npp pairs."""
    train = store.train
    out = []
    for _ in range(epochs):
        order = rng.permutation(train.shape[0])
        pos = np.repeat(train[order], npp, axis=0)
        t_neg = rng.integers(0, store.num_entities - 1, size=pos.shape[0])
        t_neg[t_neg >= pos[:, 2]] += 1
        out.append(np.stack([pos[:, 1], pos[:, 0], pos[:, 2], t_neg]))
    return out


def train_backbone(store, cfg) -> tuple[np.ndarray, np.ndarray]:
    """DistMult under margin ranking loss, negatives drawn batch by batch and
    one 2-d np.add.at per scatter; returns the float64 entity and relation
    tables, or raises at the end of the first epoch that leaves a non-finite
    value."""
    nE, nR, d = store.num_entities, store.num_relations, cfg.dim
    rng = np.random.default_rng(cfg.seed)
    bound = 0.5 / np.sqrt(d)
    ent = rng.uniform(-bound, bound, size=(nE, d))
    rel = rng.uniform(-bound, bound, size=(nR, d))

    train = store.train
    n = train.shape[0]
    npp = cfg.negatives_per_positive

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = train[order[start:start + cfg.batch_size]]
            h = np.repeat(batch[:, 0], npp)
            r = np.repeat(batch[:, 1], npp)
            t_pos = np.repeat(batch[:, 2], npp)
            # uniform over entities excluding the positive tail
            t_neg = rng.integers(0, nE - 1, size=h.shape[0])
            t_neg[t_neg >= t_pos] += 1

            e_h, e_r = ent[h], rel[r]
            e_tp, e_tn = ent[t_pos], ent[t_neg]
            s_pos = np.einsum("ij,ij,ij->i", e_h, e_r, e_tp)
            s_neg = np.einsum("ij,ij,ij->i", e_h, e_r, e_tn)
            active = (cfg.margin - s_pos + s_neg) > 0
            if not active.any():
                continue

            scale = cfg.learning_rate / h.shape[0]
            act = np.flatnonzero(active)
            g_h = e_r[act] * (e_tn[act] - e_tp[act])
            g_r = e_h[act] * (e_tn[act] - e_tp[act])
            g_core = e_h[act] * e_r[act]
            np.add.at(ent, h[act], -scale * g_h)
            np.add.at(rel, r[act], -scale * g_r)
            np.add.at(ent, t_pos[act], scale * g_core)
            np.add.at(ent, t_neg[act], -scale * g_core)
        if not (np.isfinite(ent).all() and np.isfinite(rel).all()):
            raise FloatingPointError(f"non-finite backbone embeddings at epoch {epoch}")

    return ent, rel
