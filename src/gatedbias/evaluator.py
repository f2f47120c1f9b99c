"""Filtered ranking evaluation and the personalization metric battery.

Covers filtered MRR / Hits@k / NDCG@k, Alignment@k against a percentile-margin
aligned set, counterfactual responsiveness under feature perturbation, and the
shuffled-feature placebo check. Every pass over the test queries goes
through one engine: it scores a chunk of queries once and ranks a whole stack
of bias vectors against those rows, so a trained head's battery costs two
sweeps. All reductions run in fixed query order so repeated runs agree bit
for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .backbone import EmbeddingTable
from .bias_head import BiasHead, BiasVector, compute_bias
from .kg_store import GateMatrix, TripleStore
from .profile_builder import shuffle_features

log = logging.getLogger(__name__)

ALIGNMENT_K = 10

_EMPTY_IDS = np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# Test queries
# ---------------------------------------------------------------------------

@dataclass
class QuerySet:
    """The (h, r, t*) test queries and their filters, built once per run.

    The filter of query i, the known train+valid tails of (h, r) in id order,
    is filter_indices[filter_indptr[i]:filter_indptr[i + 1]].
    """

    heads: np.ndarray
    rels: np.ndarray
    true_tails: np.ndarray
    filter_indptr: np.ndarray  # int64, one more entry than there are queries
    filter_indices: np.ndarray  # int32

    def __len__(self) -> int:
        return len(self.heads)

    def filter(self, i: int) -> np.ndarray:
        return self.filter_indices[self.filter_indptr[i]:self.filter_indptr[i + 1]]


def query_set(store: TripleStore) -> QuerySet:
    triples = store.test
    filters = [store.known_tails.get((int(h), int(r)), _EMPTY_IDS) for h, r, _ in triples]
    indptr = np.zeros(len(filters) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([f.size for f in filters], dtype=np.int64)
    return QuerySet(heads=triples[:, 0].copy(), rels=triples[:, 1].copy(),
                    true_tails=triples[:, 2].copy(), filter_indptr=indptr,
                    filter_indices=np.concatenate([_EMPTY_IDS, *filters], dtype=np.int32))


# ---------------------------------------------------------------------------
# Scoring engine
# ---------------------------------------------------------------------------

# Score cells (queries × entities) of one float64 block: 256 KiB. The engine
# holds two blocks of this size, and a few boolean ones, whatever the number
# of queries, so its memory stays flat as the test split grows.
BLOCK_CELLS = 1 << 15


def _sweep(queries: QuerySet, table: EmbeddingTable, block_cells: int):
    """Walk the queries in row chunks of at most block_cells cells (at least
    one row). Yields the chunk's query slice, its base score rows, a work
    block of the same shape, and the flat positions of its filter cells in a
    block. The base rows come from one score_all_tails call per query. Both
    blocks are reused, so a chunk must be consumed before the next is drawn."""
    n_e = table.num_entities
    step = max(1, block_cells // n_e)
    base = np.empty((min(step, len(queries)), n_e))
    work = np.empty_like(base)
    for start in range(0, len(queries), step):
        stop = min(start + step, len(queries))
        block = base[:stop - start]
        for j, (h, r) in enumerate(zip(queries.heads[start:stop].tolist(),
                                       queries.rels[start:stop].tolist())):
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


def compute_rank_table(queries: QuerySet, table: EmbeddingTable, biases=None,
                       block_cells: int = BLOCK_CELLS) -> np.ndarray:
    """Filtered rank of every true tail under each bias vector of the stack
    (None: the backbone alone), from one scoring sweep over the queries: an
    (n_biases, len(queries)) int64 array, row b for bias b, in query order.

    Filtered candidates other than the true tail drop out, and ties resolve
    to the middle of the tied block, rounded down:
    rank = 1 + #{strictly greater} + floor(#{equal, excluding self} / 2).
    """
    if len(queries) == 0:
        raise ValueError("no test triples to rank")
    stack = _bias_stack(biases, table.num_entities)
    ranks = np.empty((len(stack), len(queries)), dtype=np.int64)
    for rows, block, scores, filt in _sweep(queries, table, block_cells):
        tails = queries.true_tails[rows]
        true_cells = np.arange(0, block.size, block.shape[1]) + tails
        filt = filt[filt != true_cells[filt // block.shape[1]]]
        for b, bias in enumerate(stack):
            np.add(block, bias, out=scores)
            scores.reshape(-1)[filt] = -np.inf
            s_true = scores.reshape(-1)[true_cells][:, None]
            greater = np.count_nonzero(scores > s_true, axis=1)
            equal = np.count_nonzero(scores == s_true, axis=1) - 1
            ranks[b, rows] = 1 + greater + equal // 2
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
                        aligned: AlignedSet, k: int,
                        block_cells: int = BLOCK_CELLS) -> np.ndarray:
    """Per-query |top-k ∩ A| / k, one row per bias vector of the stack (None:
    the backbone alone), from one scoring sweep over the queries.

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
    hits = np.empty((len(stack), len(queries)), dtype=np.int64)
    for rows, block, scores, filt in _sweep(queries, table, block_cells):
        for b, bias in enumerate(stack):
            np.add(block, bias, out=scores)
            scores.reshape(-1)[filt] = -np.inf
            hits[b, rows] = _topk_hits(scores, mask, k)
    return hits / k


def alignment_delta_test(
    base_alignment: float,
    adapted_alignment: float,
    per_query_pairs: np.ndarray,
    n_resamples: int = 10000,
    seed: int = 0,
) -> tuple[float, float]:
    """Two-sided paired sign-flip permutation test on per-query alignment.

    per_query_pairs is (n, 2): column 0 base, column 1 adapted. Returns
    (delta, p_value) with the add-one p estimate (count + 1) / (resamples + 1),
    which is exactly 1.0 when all pairs are identical. The resamples are drawn
    in row chunks of at most BLOCK_CELLS signs; the chunks continue one
    generator stream, so the p-value equals that of a single draw.
    """
    pairs = np.asarray(per_query_pairs, dtype=np.float64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("per_query_pairs must have shape (n, 2)")
    if pairs.shape[0] < 2:
        raise ValueError("paired test needs at least 2 queries")
    diffs = pairs[:, 1] - pairs[:, 0]
    t_obs = abs(diffs.mean())
    rng = np.random.default_rng(seed)
    step = max(1, BLOCK_CELLS // diffs.shape[0])
    count = 0
    for start in range(0, n_resamples, step):
        signs = rng.choice((-1.0, 1.0), size=(min(step, n_resamples - start), diffs.shape[0]))
        t_perm = np.abs((signs * diffs).mean(axis=1))
        count += int((t_perm >= t_obs - 1e-15).sum())
    p_value = (count + 1) / (n_resamples + 1)
    return float(adapted_alignment - base_alignment), float(p_value)


# ---------------------------------------------------------------------------
# Counterfactual and placebo checks
# ---------------------------------------------------------------------------

@dataclass
class EvalContext:
    """A trained head with the gates and features its bias is computed from."""

    gates_a: GateMatrix
    gates_b: GateMatrix
    f_a: np.ndarray
    f_b: np.ndarray
    head: BiasHead
    bias: BiasVector


def _check_group(group: str) -> None:
    if group not in ("A", "B"):
        raise ValueError(f"group must be 'A' or 'B', got {group!r}")


def counterfactual_bias(ctx: EvalContext, group: str, epsilon: float) -> BiasVector:
    """The bias with one group's features scaled by (1 + epsilon), the trained head fixed."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    _check_group(group)
    f_a = ctx.f_a * (1.0 + epsilon) if group == "A" else ctx.f_a
    f_b = ctx.f_b * (1.0 + epsilon) if group == "B" else ctx.f_b
    return compute_bias(ctx.head, ctx.gates_a, ctx.gates_b, f_a, f_b)


@dataclass
class CRResult:
    cr: float
    pct_improved: float
    n_in: int
    n_out: int


def counterfactual_responsiveness(bias: BiasVector, group: str, true_tails: np.ndarray,
                                  ranks_adapted: np.ndarray,
                                  ranks_after: np.ndarray) -> CRResult | None:
    """Mean rank change of the queries' true tails, from the adapted ranks to
    the ranks under counterfactual_bias(group), inside vs outside the group's
    positive-contribution set of the real bias. Negative CR means in-group
    true tails moved toward rank 1 relative to the rest. Returns None when
    every test true tail falls on one side of the split.
    """
    _check_group(group)
    contrib = bias.contrib_a if group == "A" else bias.contrib_b
    in_mask = contrib[true_tails] > 0
    n_in, n_out = int(in_mask.sum()), int((~in_mask).sum())
    if n_in == 0 or n_out == 0:
        log.warning("CR_%s undefined: %d in-group / %d out-of-group test tails",
                    group, n_in, n_out)
        return None
    delta = ranks_after.astype(np.float64) - ranks_adapted.astype(np.float64)
    cr = float(delta[in_mask].mean() - delta[~in_mask].mean())
    pct_improved = float((delta[in_mask] < 0).mean())
    return CRResult(cr=cr, pct_improved=pct_improved, n_in=n_in, n_out=n_out)


@dataclass
class Alignment:
    """Per-query Alignment@10 over the test queries against the aligned set
    of the real-feature bias: base scorer, adapted scorer, and one row per
    placebo shuffle."""

    aligned: AlignedSet
    base_pq: np.ndarray
    adapted_pq: np.ndarray
    shuffled_pq: np.ndarray


def measure_alignment(ctx: EvalContext, queries: QuerySet, table: EmbeddingTable,
                      percentile_p: int, n_shuffles: int, seed: int,
                      block_cells: int = BLOCK_CELLS) -> Alignment:
    """Alignment of the base scorer, the adapted scorer and n_shuffles placebo
    reruns, from one scoring sweep. Each shuffle permutes both groups'
    feature vectors and recomputes the bias with the trained head fixed; the
    aligned set stays that of the real features."""
    if n_shuffles < 1:
        raise ValueError("n_shuffles must be >= 1")
    aligned = aligned_set(ctx.bias, percentile_p)
    rng = np.random.default_rng(seed)
    shuffle_seeds = rng.integers(0, 2**63 - 1, size=(n_shuffles, 2))
    biases = [np.zeros(table.num_entities), ctx.bias.values]
    for seed_a, seed_b in shuffle_seeds.tolist():
        f_a = shuffle_features(ctx.f_a, seed_a)
        f_b = shuffle_features(ctx.f_b, seed_b)
        biases.append(compute_bias(ctx.head, ctx.gates_a, ctx.gates_b, f_a, f_b).values)
    pq = alignment_per_query(queries, table, biases, aligned, ALIGNMENT_K, block_cells)
    return Alignment(aligned=aligned, base_pq=pq[0], adapted_pq=pq[1], shuffled_pq=pq[2:])


@dataclass
class PlaceboResult:
    real_delta: float
    shuffled_delta_mean: float
    ratio: float | None
    per_shuffle: list[float]


def placebo_validation(alignment: Alignment) -> PlaceboResult:
    """ΔAlignment@10 with real features vs feature-shuffled reruns, each
    against the same base alignment. Ratio is real / shuffled-mean, absent
    when the denominator is numerically zero."""
    base_mean = alignment.base_pq.mean()
    real_delta = float(alignment.adapted_pq.mean() - base_mean)
    per_shuffle = [float(pq.mean() - base_mean) for pq in alignment.shuffled_pq]
    shuffled_mean = float(np.mean(per_shuffle))
    ratio = real_delta / shuffled_mean if abs(shuffled_mean) >= 1e-12 else None
    return PlaceboResult(real_delta=real_delta, shuffled_delta_mean=shuffled_mean,
                         ratio=ratio, per_shuffle=per_shuffle)


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


@dataclass
class EvalReport:
    """Per-seed metric dicts plus their mean ± stderr aggregate."""

    seeds: list[int]
    per_seed: list[dict]

    def aggregate(self) -> dict:
        keys: list[str] = []
        for d in self.per_seed:
            for k in d:
                if k not in keys:
                    keys.append(k)
        out = {}
        for k in keys:
            vals = [d.get(k) for d in self.per_seed]
            numeric = [v for v in vals if isinstance(v, (int, float))]
            if len(numeric) != len([v for v in vals if v is not None]):
                continue  # non-numeric field, not aggregatable
            m, se = mean_stderr(numeric)
            out[k] = {"mean": m, "stderr": se, "n": len(numeric)}
        return out

    def to_dict(self) -> dict:
        return {
            "seeds": self.seeds,
            "per_seed": self.per_seed,
            "aggregate": self.aggregate(),
        }
