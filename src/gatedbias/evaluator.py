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
from .bias_head import BiasHead, compute_bias
from .config import EvalSettings
from .kg_store import GROUP_TAGS, TripleStore, pair_csr

log = logging.getLogger(__name__)

ALIGNMENT_K = 10


# ---------------------------------------------------------------------------
# Test queries
# ---------------------------------------------------------------------------

@dataclass
class QuerySet:
    """The (h, r, t*) test queries, keyed by their distinct (h, r), built once
    per run.

    Query i has key key_of[i] and true tail true_tails[i]; keys is the
    (n_keys, 2) array of the distinct test (h, r) pairs in ascending (h, r)
    order, key j being keys[j]. The filter of key j, the known train+valid
    tails of its (h, r) in id order, is
    filter_indices[filter_indptr[j]:filter_indptr[j + 1]], stored once
    however many queries share the key.
    """

    true_tails: np.ndarray
    key_of: np.ndarray  # one entry per query
    keys: np.ndarray  # int64, (n_keys, 2)
    filter_indptr: np.ndarray  # int64, one more entry than there are keys
    filter_indices: np.ndarray  # int32

    def __len__(self) -> int:
        return len(self.true_tails)

    def checksum(self) -> str:
        """Digest of the queries and their filters (the fairness contract):
        the (h, r, t*) triples as int64, then each query's filter as int64,
        in query order, each read off its key's slice of the CSR."""
        h = hashlib.sha256()
        triples = np.column_stack([self.keys[self.key_of], self.true_tails])
        h.update(triples.astype(np.int64).tobytes())
        ptr, filters = self.filter_indptr.tolist(), self.filter_indices.astype(np.int64)
        for k in self.key_of.tolist():
            h.update(filters[ptr[k]:ptr[k + 1]])
        return h.hexdigest()


def query_set(store: TripleStore) -> QuerySet:
    """The test queries keyed by their h * |R| + r code, each key's filter
    being the distinct train+valid tails of its (h, r): the pair_csr of the
    known triples whose code is a key's, coding only those with a test head."""
    n_r, triples = store.num_relations, store.test
    key_codes, key_of = np.unique(triples[:, 0] * n_r + triples[:, 1], return_inverse=True)
    test_head = np.zeros(store.num_entities, dtype=bool)
    test_head[triples[:, 0]] = True
    known = np.concatenate([split[test_head[split[:, 0]]] for split in (store.train, store.valid)])
    code = known[:, 0] * n_r + known[:, 1]
    key = np.searchsorted(key_codes, code)
    keyed = np.append(key_codes, -1)[key] == code  # -1: the slot past the last key
    indptr, indices = pair_csr(key[keyed], known[keyed, 2], len(key_codes), store.num_entities)
    return QuerySet(true_tails=triples[:, 2].copy(), key_of=key_of,
                    keys=np.column_stack(np.divmod(key_codes, n_r)), filter_indptr=indptr,
                    filter_indices=indices.astype(np.int32))


# ---------------------------------------------------------------------------
# Scoring engine
# ---------------------------------------------------------------------------

# Score cells (keys × entities) of one float64 block: 256 KiB. The engine
# holds two blocks of this size, and a few boolean ones, whatever the number
# of queries or keys, so its memory stays flat as the test split grows.
BLOCK_CELLS = 1 << 15


def _sweep(queries: QuerySet, table: EmbeddingTable, stack: np.ndarray):
    """Walk the keys in row chunks of at most BLOCK_CELLS cells (at least one
    row), and each chunk under every bias of the stack. Yields the chunk's key
    slice, the bias index b, the chunk's base score rows, and those rows plus
    stack[b] with the chunk's filter cells at -inf. The base rows come from
    one score_all_tails call per key. Both blocks are reused, so a yield must
    be consumed before the next is drawn. This is the only place a bias meets
    the score rows."""
    n_e, n_keys = table.num_entities, len(queries.keys)
    step = max(1, BLOCK_CELLS // n_e)
    base = np.empty((min(step, n_keys), n_e))
    work = np.empty_like(base)
    for start in range(0, n_keys, step):
        stop = min(start + step, n_keys)
        block, scores = base[:stop - start], work[:stop - start]
        for j, (h, r) in enumerate(queries.keys[start:stop].tolist()):
            block[j] = table.score_all_tails(h, r)
        ptr = queries.filter_indptr[start:stop + 1]
        filt = np.repeat(np.arange(0, len(block) * n_e, n_e), np.diff(ptr))
        filt += queries.filter_indices[ptr[0]:ptr[-1]]
        for b, bias in enumerate(stack):
            np.add(block, bias, out=scores)
            scores.reshape(-1)[filt] = -np.inf
            yield slice(start, stop), b, block, scores


def _bias_stack(biases, n_entities: int) -> np.ndarray:
    """The stack as float64 (None: one zero bias). Every score cell outside
    the filter is then finite, so -inf marks exactly the filtered ones."""
    if biases is None:
        return np.zeros((1, n_entities))
    stack = np.asarray(biases, dtype=np.float64)
    if stack.ndim != 2 or stack.shape[1] != n_entities:
        raise ValueError(f"biases must be a stack of {n_entities}-entity vectors, "
                         f"got shape {stack.shape}")
    if not np.isfinite(stack).all():
        raise ValueError("biases must be finite")
    return stack


def compute_rank_table(queries: QuerySet, table: EmbeddingTable, biases=None) -> np.ndarray:
    """Filtered rank of every true tail under each bias vector of the stack
    (None: the backbone alone), from one scoring sweep over the keys: an
    (n_biases, len(queries)) int64 array, row b for bias b, in query order.

    Filtered candidates other than the true tail drop out, and ties resolve
    to the middle of the tied block, rounded down:
    rank = 1 + #{strictly greater} + floor(#{equal, excluding self} / 2).
    Each key's filtered row is sorted once per bias and all the key's true
    tails are looked up in it. A true tail's score is its base cell plus its
    bias, the addition the sweep makes; it is inside its own filter F when
    the sweep masked its cell. Such a tail is not in the sorted row, so it
    has no self to exclude: rank = 1 + greater + (equal - [t not in F]) // 2.
    """
    if len(queries) == 0:
        raise ValueError("no test triples to rank")
    n_e = table.num_entities
    stack = _bias_stack(biases, n_e)
    # the queries grouped by key: those of key j are by_key[qptr[j]:qptr[j + 1]]
    qptr, by_key = pair_csr(queries.key_of, np.arange(len(queries)), len(queries.keys),
                            len(queries))
    ranks = np.empty((len(stack), len(queries)), dtype=np.int64)
    for keys, b, block, scores in _sweep(queries, table, stack):
        ptr = qptr[keys.start:keys.stop + 1]
        members = by_key[ptr[0]:ptr[-1]]
        rows, tails = queries.key_of[members] - keys.start, queries.true_tails[members]
        s_true = block[rows, tails] + stack[b, tails]
        unfiltered = scores[rows, tails] > -np.inf
        scores.sort(axis=1)
        greater, equal = np.empty((2, len(members)), dtype=np.int64)
        bounds = (ptr - ptr[0]).tolist()
        for row, a, z in zip(scores, bounds, bounds[1:]):
            hi = np.searchsorted(row, s_true[a:z], side="right")
            greater[a:z] = n_e - hi
            equal[a:z] = hi - np.searchsorted(row, s_true[a:z], side="left")
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

def aligned_set(contrib: np.ndarray, percentile_p: int) -> tuple[np.ndarray, float]:
    """A bool mask over the entities, True where a group's contribution is
    positive and the inter-group margin reaches tau, the nearest-rank P-th
    percentile of margins over the positives; and tau (0.0 if none is)."""
    if percentile_p not in (60, 70, 80):
        log.warning("aligned_set: unusual percentile_p=%d (expected 60/70/80)", percentile_p)
    positive = np.maximum(*contrib) > 0
    if not positive.any():
        log.warning("aligned_set: no entity has a positive contribution; set is empty")
        return positive, 0.0
    margins = np.abs(contrib[0] - contrib[1])
    pool = np.sort(margins[positive])
    idx = max(math.ceil(percentile_p / 100.0 * pool.size) - 1, 0)
    tau = float(pool[idx])
    return positive & (margins >= tau), tau


def alignment_per_query(queries: QuerySet, table: EmbeddingTable, biases,
                        aligned: np.ndarray, k: int) -> np.ndarray:
    """Per-key |top-k ∩ A| / k, A the entity mask aligned, one row per bias
    vector of the stack (None: the backbone alone), from one scoring sweep
    over the keys: an (n_biases, n_keys) array. Top-k depends on (h, r) and
    the bias alone, so query i's value is column queries.key_of[i] of each row.

    Top-k holds the k best unfiltered candidates, score descending and ties
    by lower id; only its set matters. Every filtered tail stays out, so a
    query with fewer than k candidates has a shorter top-k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(queries) == 0:
        raise ValueError("alignment needs at least one query")
    stack = _bias_stack(biases, table.num_entities)
    aligned = np.asarray(aligned)
    if aligned.dtype != bool or aligned.shape != stack.shape[1:]:
        raise ValueError(f"aligned must be a bool mask over the {stack.shape[1]} entities, "
                         f"got {aligned.dtype} of shape {aligned.shape}")
    hits = np.empty((len(stack), len(queries.keys)), dtype=np.int64)
    for keys, b, _, scores in _sweep(queries, table, stack):
        hits[b, keys] = _topk_hits(scores, aligned, k)
    return hits / k


_SIGN_BIT = np.uint64(1 << 63)


def alignment_delta_test(diffs: np.ndarray, n_resamples: int = 10000, seed: int = 0) -> float:
    """Two-sided paired sign-flip permutation test on per-query alignment.

    diffs is 1-D and finite: per query, adapted minus base alignment.
    Returns the add-one p-value estimate (count + 1) / (resamples + 1), which
    is exactly 1.0 when every difference is zero.

    The signs are those of default_rng(seed).choice((-1.0, 1.0),
    size=(n_resamples, n)), read by value off the raw PCG64 stream: numpy
    takes sign c from bit 31 of 32-bit draw c (1 is +1.0), each 64-bit word
    two draws, low half first, keeping an unused high half for its next
    draw. Bit 31 goes to the float64 sign bit of a product, which XOR-ed
    with -diff is exactly diff * sign. Row chunks of at most BLOCK_CELLS // 2
    cells (but at least two rows) reuse one buffer, so no per-chunk
    temporary reaches glibc's 128 KiB mmap threshold. Every chunk but the
    last has an even number of rows, so it reads whole words and the next
    starts on a fresh one, as the single draw does. Rows are summed in that
    draw's layout and divided by n as mean() does, so the p-value is the
    draw's bit for bit (tests/oracles.py keeps the rng.choice form).
    """
    diffs = np.asarray(diffs, dtype=np.float64)
    if diffs.ndim != 1:
        raise ValueError(f"diffs must be 1-D, got shape {diffs.shape}")
    if diffs.shape[0] < 2:
        raise ValueError("paired test needs at least 2 queries")
    if not np.isfinite(diffs).all():
        raise ValueError("diffs must be finite")
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be at least 1, got {n_resamples}")
    n = diffs.shape[0]
    t_obs = abs(diffs.mean())
    negated = (-diffs).view(np.uint64)
    bits = np.random.default_rng(seed).bit_generator
    step = min(2 * max(1, BLOCK_CELLS // (4 * n)), n_resamples)
    products = np.empty((step, n))
    sums = np.empty(n_resamples)
    for start in range(0, n_resamples, step):
        rows = min(step, n_resamples - start)
        # the 32-bit draws by value; a big-endian host swaps into a copy
        draws = bits.random_raw((rows * n + 1) // 2).astype("<u8", copy=False).view("<u4")
        out = products[:rows].view(np.uint64)
        np.left_shift(draws[:rows * n].reshape(rows, n), 32, out=out, dtype=np.uint64)
        np.bitwise_and(out, _SIGN_BIT, out=out)
        np.bitwise_xor(out, negated, out=out)
        np.add.reduce(products[:rows], axis=1, out=sums[start:start + rows])
    t_perm = np.abs(sums / n)  # each row's mean, as products.mean(axis=1) forms it
    count = int((t_perm >= t_obs - 1e-15).sum())
    return float((count + 1) / (n_resamples + 1))


# ---------------------------------------------------------------------------
# Counterfactual and placebo checks
# ---------------------------------------------------------------------------

def counterfactual_responsiveness(contrib: np.ndarray, group: str, true_tails: np.ndarray,
                                  ranks_adapted: np.ndarray,
                                  ranks_after: np.ndarray) -> dict[str, float | None]:
    """Report entries cr_<group> and cr_<group>_pct_improved: the mean rank
    change of the queries' true tails, from the adapted ranks to the ranks
    with group's features scaled by (1 + epsilon), inside minus outside the
    entities where contrib, group's contribution to the real bias, is
    positive, and the fraction of in-group true tails that moved toward rank
    1. Negative CR means in-group true tails moved toward rank 1 relative to
    the rest. Both entries are None when every test true tail falls on one
    side of the split."""
    in_mask = contrib[true_tails] > 0
    n_in, n_out = int(in_mask.sum()), int((~in_mask).sum())
    if n_in == 0 or n_out == 0:
        log.warning("CR_%s undefined: %d in-group / %d out-of-group test tails",
                    group, n_in, n_out)
        return {f"cr_{group}": None, f"cr_{group}_pct_improved": None}
    delta = ranks_after.astype(np.float64) - ranks_adapted.astype(np.float64)
    return {f"cr_{group}": float(delta[in_mask].mean() - delta[~in_mask].mean()),
            f"cr_{group}_pct_improved": float((delta[in_mask] < 0).mean())}


def placebo_validation(means: list[float]) -> dict[str, float | None]:
    """Report entries placebo_real_delta, placebo_shuffled_delta and
    placebo_ratio: ΔAlignment@10 with real features and its mean over
    feature-shuffled reruns, each against the same base alignment, from one
    mean alignment per bias: base, adapted, then one per shuffle. The ratio
    is real / shuffled-mean, None when the denominator is numerically zero."""
    if len(means) < 3:
        raise ValueError("placebo_validation needs base, adapted and at least one shuffled "
                         f"alignment mean, got {len(means)}")
    base_mean, adapted_mean, *shuffled = means
    real_delta = float(adapted_mean - base_mean)
    shuffled_mean = float(np.mean([float(m - base_mean) for m in shuffled]))
    return {"placebo_real_delta": real_delta, "placebo_shuffled_delta": shuffled_mean,
            "placebo_ratio": real_delta / shuffled_mean if abs(shuffled_mean) >= 1e-12 else None}


def shuffle_features(values: np.ndarray, seed: int) -> np.ndarray:
    """Permute feature values uniformly at random; the multiset is preserved."""
    rng = np.random.default_rng(seed)
    return values[rng.permutation(len(values))]


def gated_battery(queries: QuerySet, table: EmbeddingTable, head: BiasHead, gates, features,
                  contrib, settings: EvalSettings, seed: int) -> tuple[np.ndarray, dict]:
    """Adapted ranks and the personalization entries of one trained head,
    whose compute_bias rows are contrib, the adapted bias being their sum;
    gates and features are the (A, B) pairs they are computed from. One rank
    sweep serves the adapted bias and both counterfactual ones (one group's
    features scaled by 1 + epsilon), one alignment sweep the base, adapted
    and settings.n_shuffles placebo biases (both groups' features permuted,
    the aligned set that of the real ones), whose per-key rows yield each
    bias's mean and the sign-flip differences."""
    f_a, f_b = features
    boost = 1.0 + settings.epsilon
    bias = np.add(*contrib)
    boosted = [np.add(*compute_bias(head, gates, (f_a * boost, f_b))),
               np.add(*compute_bias(head, gates, (f_a, f_b * boost)))]
    ranks, *ranks_after = compute_rank_table(queries, table, [bias, *boosted])
    aligned, _ = aligned_set(contrib, settings.percentile_p)
    rng = np.random.default_rng(seed)
    shuffled = [np.add(*compute_bias(head, gates, tuple(map(shuffle_features, features, seeds))))
                for seeds in rng.integers(0, 2**63 - 1, (settings.n_shuffles, 2)).tolist()]
    per_key = alignment_per_query(queries, table, [np.zeros(table.num_entities), bias,
                                                   *shuffled], aligned, ALIGNMENT_K)
    key_of = queries.key_of
    means = [float(row[key_of].mean()) for row in per_key]
    entries = {f"alignment@{ALIGNMENT_K}_base": means[0],
               f"alignment@{ALIGNMENT_K}_adapted": means[1],
               f"alignment@{ALIGNMENT_K}_delta": means[1] - means[0],
               "alignment_p_value": alignment_delta_test(per_key[1, key_of] - per_key[0, key_of],
                                                         seed=seed)}
    for group, row, after in zip(GROUP_TAGS, contrib, ranks_after):
        entries.update(counterfactual_responsiveness(row, group, queries.true_tails,
                                                     ranks, after))
    entries.update(placebo_validation(means), aligned_set_size=int(aligned.sum()))
    return ranks, entries


# ---------------------------------------------------------------------------
# Multi-seed aggregation
# ---------------------------------------------------------------------------

def eval_report(seeds: list[int], per_seed: list[dict]) -> dict:
    """The seeds, their per-seed entries, and each entry's mean ± stderr
    (sample stddev / sqrt(n)) over the seeds where it is present (every value
    is a number or None)."""
    aggregate = {}
    for k in dict.fromkeys(k for d in per_seed for k in d):
        vals = [float(d[k]) for d in per_seed if d.get(k) is not None]
        se = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else None
        aggregate[k] = {"mean": float(np.mean(vals)) if vals else None, "stderr": se,
                        "n": len(vals)}
    return {"seeds": seeds, "per_seed": per_seed, "aggregate": aggregate}
