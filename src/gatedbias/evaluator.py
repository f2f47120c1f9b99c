"""Filtered ranking evaluation and the personalization metric battery.

Covers filtered MRR / Hits@k / NDCG@k, Alignment@k against a percentile-margin
aligned set, counterfactual responsiveness under feature perturbation, and the
shuffled-feature placebo check. Every pass over the test queries goes
through one engine keyed by distinct (h, r): a query's score row, filter and
top-k depend on (h, r) and the bias alone, so the engine scores a chunk of
keys once, ranks a whole stack of bias vectors against those rows, and reads
each query's rank and Alignment@k off its key's row. A trained head's
battery costs two sweeps over the keys. All reductions run in fixed query
order so repeated runs agree bit for bit.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass

import numpy as np

from .backbone import EmbeddingTable
from .bias_head import BiasHead, BiasVector, compute_bias
from .config import EvalSettings
from .kg_store import TripleStore, expand_ranges
from .profile_builder import shuffle_features

log = logging.getLogger(__name__)

ALIGNMENT_K = 10

_EMPTY_IDS = np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# Test queries
# ---------------------------------------------------------------------------

@dataclass
class QuerySet:
    """The (h, r, t*) test queries, keyed by their distinct (h, r), built once
    per run.

    Query i has key key_of[i] and true tail true_tails[i]; keys are the
    distinct test (h, r) pairs in ascending (h, r) order, key j being
    (key_heads[j], key_rels[j]). The filter of key j, the known train+valid
    tails of its (h, r) in id order, is
    filter_indices[filter_indptr[j]:filter_indptr[j + 1]], stored once
    however many queries share the key.
    """

    true_tails: np.ndarray
    key_of: np.ndarray  # one entry per query
    key_heads: np.ndarray
    key_rels: np.ndarray
    filter_indptr: np.ndarray  # int64, one more entry than there are keys
    filter_indices: np.ndarray  # int32

    def __len__(self) -> int:
        return len(self.true_tails)

    def checksum(self) -> str:
        """Digest of the queries and their filters (the fairness contract):
        the (h, r, t*) triples as int64, then each query's filter as int64,
        in query order, each read off its key's slice of the CSR."""
        h = hashlib.sha256()
        triples = np.column_stack([self.key_heads[self.key_of], self.key_rels[self.key_of],
                                   self.true_tails])
        h.update(triples.astype(np.int64).tobytes())
        ptr, filters = self.filter_indptr.tolist(), self.filter_indices.astype(np.int64)
        for k in self.key_of.tolist():
            h.update(filters[ptr[k]:ptr[k + 1]])
        return h.hexdigest()


def query_set(store: TripleStore) -> QuerySet:
    """The test queries keyed by (h, r), each key's filter being the distinct
    train+valid tails of its (h, r): the known rows sorted by (h, r, t) and
    located by their h * |R| + r code."""
    triples = store.test
    keys, key_of = np.unique(triples[:, :2], axis=0, return_inverse=True)
    known = np.unique(np.concatenate([store.train, store.valid]), axis=0)
    code = known[:, 0] * store.num_relations + known[:, 1]
    key_code = keys[:, 0] * store.num_relations + keys[:, 1]
    lo, hi = np.searchsorted(code, key_code), np.searchsorted(code, key_code, side="right")
    indptr = np.zeros(len(keys) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(hi - lo)
    return QuerySet(true_tails=triples[:, 2].copy(), key_of=key_of.reshape(-1),
                    key_heads=keys[:, 0].copy(), key_rels=keys[:, 1].copy(),
                    filter_indptr=indptr,
                    filter_indices=known[expand_ranges(lo, hi - lo), 2].astype(np.int32))


# ---------------------------------------------------------------------------
# Scoring engine
# ---------------------------------------------------------------------------

# Score cells (keys × entities) of one float64 block: 256 KiB. The engine
# holds two blocks of this size, and a few boolean ones, whatever the number
# of queries or keys, so its memory stays flat as the test split grows.
BLOCK_CELLS = 1 << 15


def _sweep(queries: QuerySet, table: EmbeddingTable):
    """Walk the keys in row chunks of at most BLOCK_CELLS cells (at least one
    row). Yields the chunk's key slice, its base score rows, a work block of
    the same shape, and the flat positions of its filter cells in a block.
    The base rows come from one score_all_tails call per key. Both blocks
    are reused, so a chunk must be consumed before the next is drawn."""
    n_e, n_keys = table.num_entities, len(queries.key_heads)
    step = max(1, BLOCK_CELLS // n_e)
    base = np.empty((min(step, n_keys), n_e))
    work = np.empty_like(base)
    for start in range(0, n_keys, step):
        stop = min(start + step, n_keys)
        block = base[:stop - start]
        for j, (h, r) in enumerate(zip(queries.key_heads[start:stop].tolist(),
                                       queries.key_rels[start:stop].tolist())):
            block[j] = table.score_all_tails(h, r)
        ptr = queries.filter_indptr[start:stop + 1]
        filt = np.repeat(np.arange(0, len(block) * n_e, n_e), np.diff(ptr))
        filt += queries.filter_indices[ptr[0]:ptr[-1]]
        yield slice(start, stop), block, work[:stop - start], filt


def _bias_stack(biases, n_entities: int) -> np.ndarray:
    if biases is None:
        return np.zeros((1, n_entities))
    stack = np.asarray(biases, dtype=np.float64)
    if stack.ndim != 2 or stack.shape[1] != n_entities:
        raise ValueError(f"biases must be a stack of {n_entities}-entity vectors, "
                         f"got shape {stack.shape}")
    return stack


def compute_rank_table(queries: QuerySet, table: EmbeddingTable, biases=None) -> np.ndarray:
    """Filtered rank of every true tail under each bias vector of the stack
    (None: the backbone alone), from one scoring sweep over the keys: an
    (n_biases, len(queries)) int64 array, row b for bias b, in query order.

    Filtered candidates other than the true tail drop out, and ties resolve
    to the middle of the tied block, rounded down:
    rank = 1 + #{strictly greater} + floor(#{equal, excluding self} / 2).
    Each key's filtered row is sorted once per bias and all the key's true
    tails are looked up in it. A true tail inside its own filter F is not in
    that row, so it has no self to exclude:
    rank = 1 + greater + (equal - [t not in F]) // 2.
    """
    if len(queries) == 0:
        raise ValueError("no test triples to rank")
    n_e = table.num_entities
    stack = _bias_stack(biases, n_e)
    # the queries grouped by key: those of key j are by_key[qptr[j]:qptr[j + 1]]
    by_key = np.argsort(queries.key_of, kind="stable")
    qptr = np.searchsorted(queries.key_of[by_key], np.arange(len(queries.key_heads) + 1))
    ranks = np.empty((len(stack), len(queries)), dtype=np.int64)
    for keys, block, scores, filt in _sweep(queries, table):
        ptr = qptr[keys.start:keys.stop + 1]
        members = by_key[ptr[0]:ptr[-1]]
        per_row = [slice(a - ptr[0], z - ptr[0]) for a, z in zip(ptr[:-1], ptr[1:])]
        true_cells = (queries.key_of[members] - keys.start) * n_e + queries.true_tails[members]
        # filt ascends (rows in order, each key's tails in id order), so a
        # true cell is unfiltered when no filter cell equals it
        unfiltered = (np.searchsorted(filt, true_cells)
                      == np.searchsorted(filt, true_cells, side="right"))
        greater = np.empty(len(members), dtype=np.int64)
        equal = np.empty_like(greater)
        for b, bias in enumerate(stack):
            np.add(block, bias, out=scores)
            s_true = scores.reshape(-1)[true_cells]
            scores.reshape(-1)[filt] = -np.inf
            scores.sort(axis=1)
            for row, q in zip(scores, per_row):
                hi = np.searchsorted(row, s_true[q], side="right")
                greater[q] = n_e - hi
                equal[q] = hi - np.searchsorted(row, s_true[q], side="left")
            ranks[b, members] = 1 + greater + (equal - unfiltered) // 2
    return ranks


def _topk_hits(scores: np.ndarray, mask: np.ndarray, k: int) -> np.ndarray:
    """Per row, how many of the k best finite scores (ties by lower id) fall on mask."""
    n_e = scores.shape[1]
    if k >= n_e:
        return np.count_nonzero((scores > -np.inf) & mask, axis=1)
    kth = np.partition(scores, n_e - k, axis=1)[:, n_e - k, None]
    top = scores >= kth
    hits = np.count_nonzero(top & mask, axis=1)
    # More than k cells at or above the k-th value: ties there beyond the k
    # places, or a -inf k-th value (fewer than k finite candidates). Redo
    # those rows: ties fill the places left in id order, filtered cells never.
    odd = np.flatnonzero(np.count_nonzero(top, axis=1) > k)
    if odd.size:
        rows, kth = scores[odd], kth[odd]
        above = rows > kth
        tied = (rows == kth) & (kth > -np.inf)
        need = k - np.count_nonzero(above, axis=1)
        first = tied & (np.cumsum(tied, axis=1) <= need[:, None])
        hits[odd] = np.count_nonzero((above | first) & mask, axis=1)
    return hits


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def ranking_metrics(ranks: np.ndarray, ks: list[int]) -> dict[str, float]:
    """MRR, Hits@k and NDCG@k (single relevant item, IDCG = 1) for each k,
    from one row of filtered ranks."""
    if len(ranks) == 0:
        raise ValueError("cannot compute metrics on an empty rank table")
    ranks64 = ranks.astype(np.float64)
    out = {"mrr": float((1.0 / ranks64).mean())}
    for k in ks:
        hit = ranks <= k
        out[f"hits@{k}"] = float(hit.mean())
        gains = np.where(hit, 1.0 / np.log2(ranks64 + 1.0), 0.0)
        out[f"ndcg@{k}"] = float(gains.mean())
    return out


# ---------------------------------------------------------------------------
# Aligned set and Alignment@k
# ---------------------------------------------------------------------------

@dataclass
class AlignedSet:
    members: np.ndarray  # sorted entity ids
    threshold_tau: float
    num_entities: int

    def mask(self) -> np.ndarray:
        m = np.zeros(self.num_entities, dtype=bool)
        m[self.members] = True
        return m

    def __len__(self) -> int:
        return len(self.members)


def aligned_set(bias: BiasVector, percentile_p: int) -> AlignedSet:
    """Entities with positive contribution and inter-group margin above the
    nearest-rank P-th percentile of margins (percentile over positives only)."""
    if percentile_p not in (60, 70, 80):
        log.warning("aligned_set: unusual percentile_p=%d (expected 60/70/80)", percentile_p)
    if not 0 < percentile_p <= 100:
        raise ValueError(f"percentile_p must be in (0, 100], got {percentile_p}")
    n = bias.values.shape[0]
    positive = np.maximum(bias.contrib_a, bias.contrib_b) > 0
    if not positive.any():
        log.warning("aligned_set: no entity has a positive contribution; set is empty")
        return AlignedSet(members=_EMPTY_IDS, threshold_tau=0.0, num_entities=n)
    margins = np.abs(bias.contrib_a - bias.contrib_b)
    pool = np.sort(margins[positive])
    idx = max(math.ceil(percentile_p / 100.0 * pool.size) - 1, 0)
    tau = float(pool[idx])
    members = np.flatnonzero(positive & (margins >= tau)).astype(np.int64)
    return AlignedSet(members=members, threshold_tau=tau, num_entities=n)


def alignment_per_query(queries: QuerySet, table: EmbeddingTable, biases,
                        aligned: AlignedSet, k: int) -> np.ndarray:
    """Per-query |top-k ∩ A| / k, one row per bias vector of the stack (None:
    the backbone alone), from one scoring sweep over the keys: top-k depends
    on (h, r) and the bias alone, so each key's value is computed once and
    read by all its queries.

    Top-k holds the k best unfiltered candidates, score descending and ties
    by lower id; only its set matters. Every filtered tail stays out, so a
    query with fewer than k candidates has a shorter top-k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(queries) == 0:
        raise ValueError("alignment needs at least one query")
    stack = _bias_stack(biases, table.num_entities)
    mask = aligned.mask()
    hits = np.empty((len(stack), len(queries.key_heads)), dtype=np.int64)
    for keys, block, scores, filt in _sweep(queries, table):
        for b, bias in enumerate(stack):
            np.add(block, bias, out=scores)
            scores.reshape(-1)[filt] = -np.inf
            hits[b, keys] = _topk_hits(scores, mask, k)
    return hits[:, queries.key_of] / k


_SIGN_BIT = np.uint64(1 << 63)


def alignment_delta_test(per_query_pairs: np.ndarray, n_resamples: int = 10000,
                         seed: int = 0) -> float:
    """Two-sided paired sign-flip permutation test on per-query alignment.

    per_query_pairs is (n, 2) and finite: column 0 base, column 1 adapted.
    Returns the add-one p-value estimate (count + 1) / (resamples + 1), which
    is exactly 1.0 when all pairs are identical.

    The signs are those of default_rng(seed).choice((-1.0, 1.0),
    size=(n_resamples, n)), read by value off the raw PCG64 stream: numpy
    takes sign 2i from bit 31 of word i and sign 2i + 1 from bit 63 (1 is
    +1.0), keeping an unused high half for its next draw. A product is -diff
    with its float64 sign bit flipped where the sign is +1.0, exactly
    diff * sign. Row chunks of at most BLOCK_CELLS // 2 cells (but at least
    two rows) share two buffers, so no per-chunk temporary reaches glibc's
    128 KiB mmap threshold. Every chunk but the last has an even number of
    rows, so it reads whole words and the next starts on a fresh one, as
    the single draw does. Rows are summed in that draw's layout and divided
    by n as mean() does, so the p-value is the draw's bit for bit
    (tests/oracles.py keeps the rng.choice form).
    """
    pairs = np.asarray(per_query_pairs, dtype=np.float64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("per_query_pairs must have shape (n, 2)")
    if pairs.shape[0] < 2:
        raise ValueError("paired test needs at least 2 queries")
    if not np.isfinite(pairs).all():
        raise ValueError("per_query_pairs must be finite")
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be at least 1, got {n_resamples}")
    diffs = pairs[:, 1] - pairs[:, 0]
    n = diffs.shape[0]
    t_obs = abs(diffs.mean())
    negated = (-diffs).view(np.uint64)
    bits = np.random.default_rng(seed).bit_generator
    step = min(2 * max(1, BLOCK_CELLS // (4 * n)), n_resamples)
    products = np.empty((step, n))
    signs = np.empty(step * n + 1, dtype=np.uint64)  # sign bits at bit 63, one spare cell
    sums = np.empty(n_resamples)
    for start in range(0, n_resamples, step):
        rows = min(step, n_resamples - start)
        cells = rows * n
        words = bits.random_raw((cells + 1) // 2)
        drawn = signs[:2 * len(words)]
        np.left_shift(words, 32, out=drawn[::2])
        drawn[1::2] = words
        np.bitwise_and(drawn, _SIGN_BIT, out=drawn)
        np.bitwise_xor(drawn[:cells].reshape(rows, n), negated,
                       out=products[:rows].view(np.uint64))
        np.add.reduce(products[:rows], axis=1, out=sums[start:start + rows])
    t_perm = np.abs(sums / n)  # each row's mean, as products.mean(axis=1) forms it
    count = int((t_perm >= t_obs - 1e-15).sum())
    return float((count + 1) / (n_resamples + 1))


# ---------------------------------------------------------------------------
# Counterfactual and placebo checks
# ---------------------------------------------------------------------------

def counterfactual_responsiveness(bias: BiasVector, group: str, true_tails: np.ndarray,
                                  ranks_adapted: np.ndarray,
                                  ranks_after: np.ndarray) -> dict[str, float | None]:
    """Report entries cr_<group> and cr_<group>_pct_improved: the mean rank
    change of the queries' true tails, from the adapted ranks to the ranks
    with group's features scaled by (1 + epsilon), inside minus outside the
    group's positive-contribution set of the real bias, and the fraction of
    in-group true tails that moved toward rank 1. Negative CR means in-group
    true tails moved toward rank 1 relative to the rest. Both entries are
    None when every test true tail falls on one side of the split.
    """
    contrib = {"A": bias.contrib_a, "B": bias.contrib_b}[group]
    in_mask = contrib[true_tails] > 0
    n_in, n_out = int(in_mask.sum()), int((~in_mask).sum())
    if n_in == 0 or n_out == 0:
        log.warning("CR_%s undefined: %d in-group / %d out-of-group test tails",
                    group, n_in, n_out)
        return {f"cr_{group}": None, f"cr_{group}_pct_improved": None}
    delta = ranks_after.astype(np.float64) - ranks_adapted.astype(np.float64)
    return {f"cr_{group}": float(delta[in_mask].mean() - delta[~in_mask].mean()),
            f"cr_{group}_pct_improved": float((delta[in_mask] < 0).mean())}


def placebo_validation(alignment: np.ndarray) -> dict[str, float | None]:
    """Report entries placebo_real_delta, placebo_shuffled_delta and
    placebo_ratio: ΔAlignment@10 with real features and its mean over
    feature-shuffled reruns, each against the same base alignment, from
    per-query alignment rows: base, adapted, then one per shuffle. The ratio
    is real / shuffled-mean, None when the denominator is numerically zero."""
    if len(alignment) < 3:
        raise ValueError("placebo_validation needs base, adapted and at least one shuffled "
                         f"alignment row, got {len(alignment)} rows")
    base_mean = alignment[0].mean()
    real_delta = float(alignment[1].mean() - base_mean)
    shuffled_mean = float(np.mean([float(pq.mean() - base_mean) for pq in alignment[2:]]))
    return {"placebo_real_delta": real_delta, "placebo_shuffled_delta": shuffled_mean,
            "placebo_ratio": real_delta / shuffled_mean if abs(shuffled_mean) >= 1e-12 else None}


def gated_battery(queries: QuerySet, table: EmbeddingTable, head: BiasHead, gates, features,
                  bias: BiasVector, settings: EvalSettings, seed: int) -> tuple[np.ndarray, dict]:
    """Adapted ranks and the personalization entries of one trained head,
    whose adapted bias is bias; gates and features are the (A, B) pairs it
    is computed from. One rank sweep serves the adapted bias and both
    counterfactual ones (one group's features scaled by 1 + epsilon), one
    alignment sweep the base, adapted and settings.n_shuffles placebo biases
    (both groups' features permuted, the aligned set that of the real ones)."""
    f_a, f_b = features
    boost = 1.0 + settings.epsilon
    boosted = [compute_bias(head, *gates, f_a * boost, f_b).values,
               compute_bias(head, *gates, f_a, f_b * boost).values]
    ranks, *ranks_after = compute_rank_table(queries, table, [bias.values, *boosted])
    aligned = aligned_set(bias, settings.percentile_p)
    rng = np.random.default_rng(seed)
    shuffled = [compute_bias(head, *gates, shuffle_features(f_a, seed_a),
                             shuffle_features(f_b, seed_b)).values
                for seed_a, seed_b in rng.integers(0, 2**63 - 1, (settings.n_shuffles, 2)).tolist()]
    pq = alignment_per_query(queries, table, [np.zeros(table.num_entities), bias.values,
                                              *shuffled], aligned, ALIGNMENT_K)
    base_mean, adapted_mean = float(pq[0].mean()), float(pq[1].mean())
    entries = {f"alignment@{ALIGNMENT_K}_base": base_mean,
               f"alignment@{ALIGNMENT_K}_adapted": adapted_mean,
               f"alignment@{ALIGNMENT_K}_delta": float(adapted_mean - base_mean),
               "alignment_p_value": alignment_delta_test(pq[:2].T, seed=seed)}
    for group, after in zip("AB", ranks_after):
        entries.update(counterfactual_responsiveness(bias, group, queries.true_tails,
                                                     ranks, after))
    entries.update(placebo_validation(pq), aligned_set_size=len(aligned))
    return ranks, entries


# ---------------------------------------------------------------------------
# Multi-seed aggregation
# ---------------------------------------------------------------------------

def mean_stderr(values: list) -> tuple[float | None, float | None]:
    """Mean and stderr (sample stddev / sqrt(n)) over the non-absent values."""
    vals = [float(v) for v in values if v is not None]
    if not vals:
        return None, None
    m = float(np.mean(vals))
    if len(vals) == 1:
        return m, None
    return m, float(np.std(vals, ddof=1) / np.sqrt(len(vals)))


def eval_report(seeds: list[int], per_seed: list[dict]) -> dict:
    """The seeds, their per-seed entries, and each entry's mean ± stderr over
    the seeds where it is present (every value is a number or None)."""
    aggregate = {}
    for k in dict.fromkeys(k for d in per_seed for k in d):
        vals = [d[k] for d in per_seed if d.get(k) is not None]
        m, se = mean_stderr(vals)
        aggregate[k] = {"mean": m, "stderr": se, "n": len(vals)}
    return {"seeds": seeds, "per_seed": per_seed, "aggregate": aggregate}
