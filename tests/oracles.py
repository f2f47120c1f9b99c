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
gate matrix, written out from the stored arrays. universe_attrs is
build_universe's ordering as it stood before the CSR builder: distinct
(head, tail) rows by np.unique(axis=0), then lexsort. score_triples scores a
batch of triples with one einsum over the table's float64 rows (relation r
at row |E| + r), in the order score_pairs multiplies them.
corrupt_pairs is the heads' pair draw as it stood before the backbone and
both heads shared one: the epoch's triples permuted and each repeated npp
times, then one draw of every negative tail, shifted past its positive.
train_backbone is the backbone trainer as it stood before it drew an epoch's
negatives at once and scattered through flat tables: one negative draw and
four 2-d np.add.at calls per batch. The library's trainer must give the same
float64 tables bit for bit; float32 storage rounds away most reorderings of
its additions, so the comparison is made before it.
head_loss_and_grad and patientnode_loss_and_grad are the heads' per-batch
losses as they stood before the heads scored in reused workspaces: two
score_triples calls per batch, and for the gated head one gate gather per
group and tail. train_head and train_patientnode run them in a plain SGD
loop over corrupt_pairs; the library's trainers must give the same heads
bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from gatedbias.bias_head import BiasHead, PatientNodeHead, new_head, new_patientnode


def score(table, h: int, r: int, t: int) -> float:
    """DistMult s(h, r, t) = sum_j e_h[j] * e_r[j] * e_t[j], in float64."""
    rows = table.rows64
    ent, rel = rows[:table.num_entities], rows[table.num_entities:]
    return float(np.dot(ent[h] * rel[r], ent[t]))


def score_triples(table, heads, rels, tails) -> np.ndarray:
    """s(h, r, t) of each triple, one einsum over e_h, e_r, e_t in float64."""
    rows = table.rows64
    return np.einsum("ij,ij,ij->i", rows[heads], rows[table.num_entities + rels], rows[tails])


def to_dense(gates) -> np.ndarray:
    """The |E| x |U| 0/1 matrix of a GateMatrix, row by row from its CSR arrays."""
    dense = np.zeros((gates.num_entities, gates.num_columns), dtype=np.float64)
    for t in range(gates.num_entities):
        dense[t, gates.indices[gates.indptr[t]:gates.indptr[t + 1]]] = 1.0
    return dense


def universe_attrs(store, relations, cap=None) -> np.ndarray:
    """The heads of the train triples through relations, by number of
    distinct tails descending, ties by ascending id, the first cap kept."""
    group = store.train[np.isin(store.train[:, 1], np.asarray(relations, dtype=np.int64))]
    if not len(group):
        return np.empty(0, dtype=np.int64)
    pairs = np.unique(group[:, [0, 2]], axis=0)
    heads, freqs = np.unique(pairs[:, 0], return_counts=True)
    return heads[np.lexsort((heads, -freqs))][:cap].astype(np.int64)


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
                        scores_fn, aligned: np.ndarray, k: int) -> np.ndarray:
    """Per-query |top-k ∩ A| / k over the filtered candidate set, A the bool
    entity mask aligned."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(queries) != len(filters):
        raise ValueError("queries and filters disagree on length")
    out = np.empty(len(queries), dtype=np.float64)
    for i, (h, r) in enumerate(queries):
        top = topk_filtered(scores_fn(h, r), filters[i], k)
        out[i] = aligned[top].sum() / k
    return out


def alignment_at_k(queries, filters, scores_fn, aligned: np.ndarray, k: int) -> float:
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


def head_loss_and_grad(head, table, gates, features, heads, rels, t_pos, t_neg,
                       lambda1: float, lambda2: float):
    """The gated head's batch hinge (margin 1) plus L1 and L2, and its
    gradient as a BiasHead, over the (A, B) pairs of gate matrices and
    features; each group's gate rows gathered once for t_pos and once for
    t_neg."""
    (gates_a, gates_b), (f_a, f_b) = gates, features
    n_pairs = len(t_pos)
    s_margin = score_triples(table, heads, rels, t_pos) - score_triples(table, heads, rels, t_neg)

    groups = ((gates_a, head.w_a, f_a, head.alpha_a), (gates_b, head.w_b, f_b, head.alpha_b))
    gathered, diffs = [], []
    for gates, w, f, _ in groups:
        gathered.append((gates.gather_rows(t_pos), gates.gather_rows(t_neg)))
        dot_pos, dot_neg = (np.bincount(owners, weights=(w * f)[cols], minlength=n_pairs)
                            for owners, cols in gathered[-1])
        diffs.append(dot_pos - dot_neg)

    bias_margin = head.alpha_a * diffs[0] + head.alpha_b * diffs[1]
    hinge = np.maximum(0.0, 1.0 - (s_margin + bias_margin))
    active = hinge > 0

    loss = float(hinge.mean())
    loss += lambda1 * (np.abs(head.w_a).sum() + np.abs(head.w_b).sum())
    loss += lambda2 * (np.square(head.w_a).sum() + np.square(head.w_b).sum())

    grads = []
    for (gates, w, f, alpha), rows, diff in zip(groups, gathered, diffs):
        g = np.zeros(gates.num_columns, dtype=np.float64)
        for update, (owners, cols) in zip((np.subtract, np.add), rows):
            update(g, np.bincount(cols, weights=active[owners] * f[cols],
                                  minlength=gates.num_columns), out=g)
        g *= alpha / n_pairs
        g += lambda1 * np.sign(w) + 2.0 * lambda2 * w
        grads.append((g, float(-(active * diff).sum() / n_pairs)))
    (w_a, alpha_a), (w_b, alpha_b) = grads
    return loss, BiasHead(w_a=w_a, w_b=w_b, alpha_a=alpha_a, alpha_b=alpha_b)


def patientnode_loss_and_grad(head, table, heads, rels, t_pos, t_neg):
    """The MLP head's unregularized batch hinge and its gradient as a
    PatientNodeHead, from fresh float64 copies of the tail embeddings."""
    n_pairs = len(t_pos)
    s_margin = score_triples(table, heads, rels, t_pos) - score_triples(table, heads, rels, t_neg)

    ent = table.rows64[:table.num_entities]
    e_pos = ent[t_pos]
    e_neg = ent[t_neg]
    z_pos = e_pos @ head.w1.T + head.b1
    z_neg = e_neg @ head.w1.T + head.b1
    a_pos, a_neg = np.maximum(z_pos, 0.0), np.maximum(z_neg, 0.0)
    bias_pos = a_pos @ head.w2 + head.b2
    bias_neg = a_neg @ head.w2 + head.b2

    hinge = np.maximum(0.0, 1.0 - (s_margin + bias_pos - bias_neg))
    active = hinge > 0
    loss = float(hinge.mean())

    gamma_pos = -active.astype(np.float64) / n_pairs
    gamma_neg = active.astype(np.float64) / n_pairs

    g_w2 = gamma_pos @ a_pos + gamma_neg @ a_neg
    g_b2 = float(gamma_pos.sum() + gamma_neg.sum())
    dz_pos = (gamma_pos[:, None] * head.w2[None, :]) * (z_pos > 0)
    dz_neg = (gamma_neg[:, None] * head.w2[None, :]) * (z_neg > 0)
    g_w1 = dz_pos.T @ e_pos + dz_neg.T @ e_neg
    g_b1 = dz_pos.sum(axis=0) + dz_neg.sum(axis=0)
    return loss, PatientNodeHead(w1=g_w1, b1=g_b1, w2=g_w2, b2=g_b2)


def _sgd(head, loss_and_grad, store, cfg):
    """Plain SGD: each epoch's pairs in batches of cfg.batch_size, every
    field of head stepped by its gradient."""
    rng = np.random.default_rng(cfg.seed)
    for pairs in corrupt_pairs(store, cfg.epochs, cfg.negatives_per_positive, rng):
        for start in range(0, pairs.shape[1], cfg.batch_size):
            r, h, t_pos, t_neg = pairs[:, start:start + cfg.batch_size]
            _, grad = loss_and_grad(head, h, r, t_pos, t_neg)
            for f in dataclasses.fields(head):
                setattr(head, f.name,
                        getattr(head, f.name) - cfg.learning_rate * getattr(grad, f.name))
    return head


def train_head(store, table, gates, features, cfg):
    """The gated head from zero, trained by _sgd on head_loss_and_grad."""
    def loss_and_grad(head, *batch):
        return head_loss_and_grad(head, table, gates, features, *batch,
                                  cfg.lambda1, cfg.lambda2)

    return _sgd(new_head(gates), loss_and_grad, store, cfg)


def train_patientnode(store, table, cfg, hidden: int):
    """The MLP head from its seeded init, trained by _sgd on
    patientnode_loss_and_grad."""
    def loss_and_grad(head, *batch):
        return patientnode_loss_and_grad(head, table, *batch)

    return _sgd(new_patientnode(table.dim, hidden, cfg.seed), loss_and_grad, store, cfg)
