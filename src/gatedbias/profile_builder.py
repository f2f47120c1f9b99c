"""User interaction logs -> per-group profile feature vectors.

Each user's history gives attribute frequencies p_u(a) in [0, 1]; these are
summed over the users in ascending user order, then scaled and clipped into
[0, cap_tau]. Item attributes are read from the group's gate matrix, so
profiles and gates share the training graph as their single source of
structure.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import ConfigError
from .fileio import read_tsv
from .kg_store import GateMatrix, TripleStore

logger = logging.getLogger(__name__)


def load_interactions(path: str, store: TripleStore) -> list[np.ndarray]:
    """Read a user\\titem TSV into each user's sorted item ids, users in
    ascending order; repeated pairs collapse, unknown items are dropped. A
    log with no known item at all is refused: it would train a head on no
    profile."""
    raw: dict[str, set[int]] = {}
    unknown = 0
    for user, item in read_tsv(path, 2):
        if item not in store.entity_vocab:
            unknown += 1
            continue
        raw.setdefault(user, set()).add(store.entity_vocab[item])
    if not raw:
        raise ConfigError(f"{path}: no interaction names an item of the graph "
                          f"({unknown} lines with unknown items)")
    if unknown:
        logger.warning("%s: dropped %d interactions with unknown items", path, unknown)
    return [np.array(sorted(raw[user]), dtype=np.int64) for user in sorted(raw)]


def shuffle_features(values: np.ndarray, seed: int) -> np.ndarray:
    """Permute feature values uniformly at random; the multiset is preserved."""
    rng = np.random.default_rng(seed)
    return values[rng.permutation(len(values))]


def build_profile(histories: list[np.ndarray], gates: GateMatrix, scale_alpha: float,
                  cap_tau: float) -> np.ndarray:
    """The feature vector f_k of one relation group: each history's attribute
    frequencies p_u(a) = |{items with a}| / |items|, summed in order into w,
    then f[j] = clip(scale_alpha * w[j], 0, cap_tau). A per-user profile is
    a call with that user's history alone."""
    total = np.zeros(gates.num_columns, dtype=np.float64)
    for items in histories:
        _, cols = gates.gather_rows(items)
        counts = np.bincount(cols, minlength=gates.num_columns).astype(np.float64)
        total += counts / len(items)
    if not np.all(np.isfinite(total)):
        raise ValueError("aggregated weights contain non-finite values")
    return np.clip(scale_alpha * total, 0.0, cap_tau)
