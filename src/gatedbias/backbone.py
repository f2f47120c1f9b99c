"""Frozen DistMult scorer and a small deterministic trainer for desk-scale runs.

The scorer is s(h,r,t) = sum_j e_h[j] * e_r[j] * e_t[j], stored in float32
with float64 accumulation. A table is read-only from construction on;
personalization never writes through this module.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError
from .fileio import atomic_write
from .kg_store import TripleStore

MAGIC = b"KGE1"
_HEADER = struct.Struct("<4sQQQ")


@dataclass
class BackboneTrainConfig:
    """Backbone trainer settings; config_from_dict checks their ranges."""

    dim: int = 32
    epochs: int = 200
    learning_rate: float = 0.05
    batch_size: int = 256
    negatives_per_positive: int = 1
    margin: float = 1.0
    seed: int = 0


class EmbeddingTable:
    """Read-only entity and relation embeddings with DistMult scoring."""

    def __init__(self, entity_emb: np.ndarray, relation_emb: np.ndarray):
        if entity_emb.ndim != 2 or relation_emb.ndim != 2:
            raise ValueError("embeddings must be 2-d arrays")
        if entity_emb.shape[1] != relation_emb.shape[1]:
            raise ValueError("entity and relation embeddings disagree on dim")
        if not (np.all(np.isfinite(entity_emb)) and np.all(np.isfinite(relation_emb))):
            raise ValueError("embeddings contain non-finite values")
        self.entity_emb = np.ascontiguousarray(entity_emb, dtype=np.float32)
        self.relation_emb = np.ascontiguousarray(relation_emb, dtype=np.float32)
        # float64 copies for scoring, cached once
        self._ent64 = self.entity_emb.astype(np.float64)
        self._rel64 = self.relation_emb.astype(np.float64)
        for arr in (self.entity_emb, self.relation_emb, self._ent64, self._rel64):
            arr.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.entity_emb.shape[1]

    @property
    def num_entities(self) -> int:
        return self.entity_emb.shape[0]

    @property
    def num_relations(self) -> int:
        return self.relation_emb.shape[0]

    def score_all_tails(self, h: int, r: int) -> np.ndarray:
        """Scores of every entity as tail of (h, r, ?)."""
        return self._ent64 @ (self._ent64[h] * self._rel64[r])

    def score_triples(self, heads: np.ndarray, rels: np.ndarray, tails: np.ndarray) -> np.ndarray:
        ent = self._ent64
        return np.einsum("ij,ij,ij->i", ent[heads], self._rel64[rels], ent[tails])

    def checksum(self) -> str:
        h = hashlib.sha256()
        h.update(_HEADER.pack(MAGIC, self.num_entities, self.num_relations, self.dim))
        h.update(self.entity_emb.tobytes())
        h.update(self.relation_emb.tobytes())
        return h.hexdigest()


def train_backbone(store: TripleStore, cfg: BackboneTrainConfig) -> EmbeddingTable:
    """Train DistMult with margin ranking loss over uniform corrupt tails.

    Deterministic given cfg.seed; returns a read-only table. Internal math runs
    in float64, storage is float32.
    """
    if store.train.shape[0] == 0:
        raise ValueError("cannot train backbone on an empty train split")

    nE, nR, d = store.num_entities, store.num_relations, cfg.dim
    rng = np.random.default_rng(cfg.seed)
    bound = 0.5 / np.sqrt(d)
    ent = rng.uniform(-bound, bound, size=(nE, d))
    rel = rng.uniform(-bound, bound, size=(nR, d))

    train = store.train
    n = train.shape[0]
    npp = cfg.negatives_per_positive

    for _ in range(cfg.epochs):
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

    return EmbeddingTable(ent.astype(np.float32), rel.astype(np.float32))


def save_embeddings(table: EmbeddingTable, path: str) -> None:
    """Write magic + (|E|, |R|, d) header + row-major little-endian float32 data."""
    with atomic_write(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, table.num_entities, table.num_relations, table.dim))
        fh.write(np.ascontiguousarray(table.entity_emb, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(table.relation_emb, dtype="<f4").tobytes())


def load_embeddings(
    path: str,
    expected_entities: int | None = None,
    expected_relations: int | None = None,
) -> EmbeddingTable:
    """Load a saved table (read-only). Corrupt or mismatched files raise."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise CheckpointError(f"{path}: truncated header")
    magic, nE, nR, d = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes {magic!r}")
    if d == 0 or nE == 0:
        raise CheckpointError(f"{path}: invalid header (|E|={nE}, d={d})")
    expected_len = _HEADER.size + 4 * (nE * d + nR * d)
    if len(data) != expected_len:
        raise CheckpointError(f"{path}: expected {expected_len} bytes, found {len(data)}")
    if expected_entities is not None and nE != expected_entities:
        raise CheckpointError(f"{path}: file has {nE} entities, vocabulary has {expected_entities}")
    if expected_relations is not None and nR != expected_relations:
        raise CheckpointError(f"{path}: file has {nR} relations, vocabulary has {expected_relations}")
    floats = np.frombuffer(data, dtype="<f4", offset=_HEADER.size)
    return EmbeddingTable(floats[: nE * d].reshape(nE, d), floats[nE * d:].reshape(nR, d))
