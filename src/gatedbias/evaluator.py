"""Filtered ranking evaluation and the personalization metric battery.

Covers filtered MRR / Hits@k / NDCG@k, Alignment@k against a percentile-margin
aligned set, counterfactual responsiveness under feature perturbation, and the
shuffled-feature placebo check. All reductions run in fixed query order so
repeated runs agree bit for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .backbone import EmbeddingTable
from .bias_head import BiasHead, BiasVector, compute_bias
from .kg_store import GateMatrix, TripleStore
from .profile_builder import ProfileFeatures, shuffle_features

log = logging.getLogger(__name__)

ALIGNMENT_K = 10

_EMPTY_IDS = np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# Ranks
# ---------------------------------------------------------------------------

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


@dataclass
class RankTable:
    """Filtered rank per test query, one row per (h, r, t*) triple."""

    heads: np.ndarray
    rels: np.ndarray
    true_tails: np.ndarray
    ranks: np.ndarray

    def __post_init__(self):
        if not (len(self.heads) == len(self.rels) == len(self.true_tails) == len(self.ranks)):
            raise ValueError("rank table columns disagree on length")
        if len(self.ranks) and self.ranks.min() < 1:
            raise ValueError("filtered ranks must be >= 1")

    def __len__(self) -> int:
        return len(self.ranks)


def query_filters(store: TripleStore, split: str = "test") -> list[np.ndarray]:
    """Known train+valid tails for each query of the split, in split order."""
    triples = store.split(split)
    return [store.known_tails.get((int(h), int(r)), _EMPTY_IDS) for h, r, _ in triples]


def compute_rank_table(
    store: TripleStore,
    table: EmbeddingTable,
    bias_values: np.ndarray | None = None,
    split: str = "test",
) -> RankTable:
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
    return RankTable(
        heads=triples[:, 0].copy(),
        rels=triples[:, 1].copy(),
        true_tails=triples[:, 2].copy(),
        ranks=ranks,
    )


def ranking_metrics(table: RankTable, ks: list[int]) -> dict[str, float]:
    """MRR, Hits@k and NDCG@k (single relevant item, IDCG = 1) for each k."""
    if len(table) == 0:
        raise ValueError("cannot compute metrics on an empty rank table")
    ranks = table.ranks.astype(np.float64)
    out = {"mrr": float((1.0 / ranks).mean())}
    for k in ks:
        hit = table.ranks <= k
        out[f"hits@{k}"] = float(hit.mean())
        gains = np.where(hit, 1.0 / np.log2(ranks + 1.0), 0.0)
        out[f"ndcg@{k}"] = float(gains.mean())
    return out


# ---------------------------------------------------------------------------
# Aligned set and Alignment@k
# ---------------------------------------------------------------------------

@dataclass
class AlignedSet:
    members: np.ndarray  # sorted entity ids
    percentile_p: int
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
        return AlignedSet(members=_EMPTY_IDS, percentile_p=percentile_p,
                          threshold_tau=0.0, num_entities=n)
    margins = np.abs(bias.contrib_a - bias.contrib_b)
    pool = np.sort(margins[positive])
    idx = max(math.ceil(percentile_p / 100.0 * pool.size) - 1, 0)
    tau = float(pool[idx])
    members = np.flatnonzero(positive & (margins >= tau)).astype(np.int64)
    return AlignedSet(members=members, percentile_p=percentile_p,
                      threshold_tau=tau, num_entities=n)


def alignment_per_query(
    queries: list[tuple[int, int]],
    filters: list[np.ndarray],
    scores_fn,
    aligned: AlignedSet,
    k: int,
) -> np.ndarray:
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
    which is exactly 1.0 when all pairs are identical.
    """
    pairs = np.asarray(per_query_pairs, dtype=np.float64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("per_query_pairs must have shape (n, 2)")
    if pairs.shape[0] < 2:
        raise ValueError("paired test needs at least 2 queries")
    diffs = pairs[:, 1] - pairs[:, 0]
    t_obs = abs(diffs.mean())
    rng = np.random.default_rng(seed)
    signs = rng.choice((-1.0, 1.0), size=(n_resamples, diffs.shape[0]))
    t_perm = np.abs((signs * diffs).mean(axis=1))
    count = int((t_perm >= t_obs - 1e-15).sum())
    p_value = (count + 1) / (n_resamples + 1)
    return float(adapted_alignment - base_alignment), float(p_value)


# ---------------------------------------------------------------------------
# Pipeline state bundle for the causal checks
# ---------------------------------------------------------------------------

@dataclass
class EvalContext:
    """Everything the counterfactual and placebo checks need, post-training."""

    store: TripleStore
    table: EmbeddingTable
    gates_a: GateMatrix
    gates_b: GateMatrix
    f_a: ProfileFeatures
    f_b: ProfileFeatures
    head: BiasHead
    bias: BiasVector
    ranks_adapted: RankTable


@dataclass
class Alignment:
    """Per-query Alignment@10 of the base and the adapted scorer over the
    test queries, against the aligned set of the real-feature bias."""

    aligned: AlignedSet
    queries: list[tuple[int, int]]
    filters: list[np.ndarray]
    base_pq: np.ndarray
    adapted_pq: np.ndarray


def _adapted_scores(table: EmbeddingTable, values: np.ndarray):
    return lambda h, r: table.score_all_tails(h, r) + values


def measure_alignment(ctx: EvalContext, percentile_p: int) -> Alignment:
    """Base and adapted alignment of one trained head, measured once and
    shared by the sign-flip test and the placebo check."""
    aligned = aligned_set(ctx.bias, percentile_p)
    queries = [(int(h), int(r)) for h, r, _ in ctx.store.test]
    filters = query_filters(ctx.store, "test")
    base_pq = alignment_per_query(queries, filters, ctx.table.score_all_tails,
                                  aligned, ALIGNMENT_K)
    adapted_pq = alignment_per_query(queries, filters,
                                     _adapted_scores(ctx.table, ctx.bias.values),
                                     aligned, ALIGNMENT_K)
    return Alignment(aligned=aligned, queries=queries, filters=filters,
                     base_pq=base_pq, adapted_pq=adapted_pq)


@dataclass
class CRResult:
    cr: float
    pct_improved: float
    n_in: int
    n_out: int


def counterfactual_responsiveness(
    ctx: EvalContext, group: str, epsilon: float
) -> CRResult | None:
    """Scale one group's features by (1 + epsilon), recompute bias with the
    trained head fixed, and compare mean rank change inside vs outside the
    group's positive-contribution set. Negative CR means in-group true tails
    moved toward rank 1 relative to the rest. Returns None when every test
    true tail falls on one side of the split.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if group not in ("A", "B"):
        raise ValueError(f"group must be 'A' or 'B', got {group!r}")
    contrib = ctx.bias.contrib_a if group == "A" else ctx.bias.contrib_b
    in_mask = contrib[ctx.ranks_adapted.true_tails] > 0
    n_in, n_out = int(in_mask.sum()), int((~in_mask).sum())
    if n_in == 0 or n_out == 0:
        log.warning("CR_%s undefined: %d in-group / %d out-of-group test tails",
                    group, n_in, n_out)
        return None
    f_a = ctx.f_a.scaled(1.0 + epsilon) if group == "A" else ctx.f_a
    f_b = ctx.f_b.scaled(1.0 + epsilon) if group == "B" else ctx.f_b
    bias_after = compute_bias(ctx.head, ctx.gates_a, ctx.gates_b, f_a, f_b)
    ranks_after = compute_rank_table(ctx.store, ctx.table, bias_after.values)
    delta = ranks_after.ranks.astype(np.float64) - ctx.ranks_adapted.ranks.astype(np.float64)
    cr = float(delta[in_mask].mean() - delta[~in_mask].mean())
    pct_improved = float((delta[in_mask] < 0).mean())
    return CRResult(cr=cr, pct_improved=pct_improved, n_in=n_in, n_out=n_out)


@dataclass
class PlaceboResult:
    real_delta: float
    shuffled_delta_mean: float
    ratio: float | None
    per_shuffle: list[float]


def placebo_validation(ctx: EvalContext, alignment: Alignment, n_shuffles: int,
                       seed: int) -> PlaceboResult:
    """ΔAlignment@10 with real features vs feature-shuffled reruns.

    The aligned set, queries and base and real per-query alignment come from
    measure_alignment and stay frozen; each shuffle permutes both groups'
    feature vectors, recomputes the bias with the trained head fixed, and
    re-measures the delta against the same base alignment and mask. Ratio is
    real / shuffled-mean, absent when the denominator is numerically zero.
    """
    if n_shuffles < 1:
        raise ValueError("n_shuffles must be >= 1")
    base_mean = alignment.base_pq.mean()
    real_delta = float(alignment.adapted_pq.mean() - base_mean)

    rng = np.random.default_rng(seed)
    shuffle_seeds = rng.integers(0, 2**63 - 1, size=(n_shuffles, 2))
    per_shuffle = []
    for s in range(n_shuffles):
        f_a = shuffle_features(ctx.f_a, int(shuffle_seeds[s, 0]))
        f_b = shuffle_features(ctx.f_b, int(shuffle_seeds[s, 1]))
        bias_s = compute_bias(ctx.head, ctx.gates_a, ctx.gates_b, f_a, f_b)
        pq = alignment_per_query(alignment.queries, alignment.filters,
                                 _adapted_scores(ctx.table, bias_s.values),
                                 alignment.aligned, ALIGNMENT_K)
        per_shuffle.append(float(pq.mean() - base_mean))
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
