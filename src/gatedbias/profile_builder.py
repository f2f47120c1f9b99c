"""User interaction logs -> per-group profile feature vectors.

Three stages: per-user attribute frequencies over the interaction history,
summation across users, then scale-and-clip normalization into [0, tau].
Item attributes are read from the group's gate matrix, so profiles and gates
share the training graph as their single source of structure.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .kg_store import AttributeUniverse, GateMatrix, TripleStore

logger = logging.getLogger(__name__)


@dataclass
class InteractionLog:
    interactions: dict[str, np.ndarray]  # user -> sorted unique item entity ids

    def users(self) -> list[str]:
        return sorted(self.interactions)

    def __len__(self) -> int:
        return len(self.interactions)


def load_interactions(path: str, store: TripleStore) -> InteractionLog:
    """Read a user\\titem TSV; repeated pairs collapse, unknown items are dropped."""
    raw: dict[str, set[int]] = {}
    unknown = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected user<TAB>item, got {len(fields)} fields")
            user, item = fields
            if item not in store.entity_vocab:
                unknown += 1
                continue
            raw.setdefault(user, set()).add(store.entity_vocab.id(item))
    if unknown:
        logger.warning("%s: dropped %d interactions with unknown items", path, unknown)
    return InteractionLog(interactions={u: np.array(sorted(items), dtype=np.int64)
                                        for u, items in raw.items()})


def user_preference(log: InteractionLog, user: str, gates: GateMatrix) -> np.ndarray:
    """Attribute frequencies within one user's history: p_u(a) in [0, 1]."""
    if user not in log.interactions:
        raise KeyError(f"unknown user {user!r}")
    items = log.interactions[user]
    _, cols = gates.gather_rows(items)
    counts = np.bincount(cols, minlength=gates.num_columns).astype(np.float64)
    return counts / len(items)


def aggregate_population(log: InteractionLog, gates: GateMatrix,
                         users: list[str] | None = None) -> np.ndarray:
    """Sum per-user preferences over a user set (ascending user id order)."""
    if users is None:
        users = log.users()
    else:
        missing = set(users) - set(log.interactions)
        if missing:
            raise KeyError(f"users not in log: {sorted(missing)[:5]}")
        users = sorted(users)
    total = np.zeros(gates.num_columns, dtype=np.float64)
    for user in users:
        total += user_preference(log, user, gates)
    return total


def normalize_features(w: np.ndarray, scale_alpha: float, cap_tau: float,
                       universe: AttributeUniverse) -> np.ndarray:
    """Scale-and-clip: f[j] = clip(scale_alpha * w[j], 0, cap_tau), one
    float64 preference weight per universe column."""
    if scale_alpha <= 0 or cap_tau <= 0:
        raise ValueError("scale_alpha and cap_tau must be positive")
    w = np.asarray(w, dtype=np.float64)
    if w.shape[0] != len(universe):
        raise ValueError(f"weight vector length {w.shape[0]} != universe size {len(universe)}")
    if not np.all(np.isfinite(w)):
        raise ValueError("aggregated weights contain non-finite values")
    return np.clip(scale_alpha * w, 0.0, cap_tau)


def shuffle_features(values: np.ndarray, seed: int) -> np.ndarray:
    """Permute feature values uniformly at random; the multiset is preserved."""
    rng = np.random.default_rng(seed)
    return values[rng.permutation(len(values))]


def build_profile(log: InteractionLog, gates: GateMatrix, scale_alpha: float,
                  cap_tau: float, users: list[str] | None = None) -> np.ndarray:
    """Full three-stage pipeline for one relation group: the feature vector f_k."""
    w = aggregate_population(log, gates, users)
    return normalize_features(w, scale_alpha, cap_tau, gates.universe)
