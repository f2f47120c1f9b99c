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

    def checksum(self) -> str:
        h = hashlib.sha256()
        h.update(_HEADER.pack(MAGIC, self.num_entities, self.num_relations, self.dim))
        h.update(self.entity_emb.tobytes())
        h.update(self.relation_emb.tobytes())
        return h.hexdigest()


def train_backbone(store: TripleStore, cfg: BackboneTrainConfig) -> EmbeddingTable:
    """Train DistMult with margin ranking loss over uniform corrupt tails.

    Deterministic given cfg.seed; returns a read-only table. Internal math runs
    in float64, storage is float32; a table float32 cannot hold raises.
    """
    ent, rel = _train_float64(store, cfg)
    with np.errstate(over="ignore"):  # a value past float32's range casts to inf
        ent, rel = ent.astype(np.float32), rel.astype(np.float32)
    if not (np.isfinite(ent).all() and np.isfinite(rel).all()):
        raise FloatingPointError("backbone embeddings exceed float32 range after epoch "
                                 f"{cfg.epochs - 1}")
    return EmbeddingTable(ent, rel)


def corrupt_pairs(store: TripleStore, epochs: int, npp: int, rng: np.random.Generator,
                  what: str):
    """The training pairs of each epoch, for the backbone and both heads:
    yields (epoch, ids), ids being one (4, len(train) * npp) array of
    (r, h, t_pos, t_neg) rewritten each epoch. An epoch permutes the train
    triples and repeats each npp times, its pairs adjacent; t_neg is uniform
    over the entities other than t_pos. The first next() refuses a store
    that cannot be trained, even for zero epochs."""
    if store.train.shape[0] == 0:
        raise ValueError(f"cannot train {what} on an empty train split")
    if store.num_entities < 2:
        raise ValueError(f"cannot train {what}: corrupt tails need at least two entities; "
                         f"the store has {store.num_entities}")
    train = store.train
    n = train.shape[0]
    # r comes first so one gather takes the three entity rows of a batch
    cols = np.ascontiguousarray(train[:, [1, 0, 2]].T)
    ids = np.empty((4, n * npp), dtype=train.dtype)
    t_neg = ids[3]
    for epoch in range(epochs):
        np.take(cols, np.repeat(rng.permutation(n), npp), axis=1, out=ids[:3], mode="clip")
        # one draw for the epoch consumes the generator's stream as one draw
        # per batch did
        t_neg[:] = rng.integers(0, store.num_entities - 1, size=t_neg.shape[0])
        t_neg[t_neg >= ids[2]] += 1
        yield epoch, ids


def score_pairs(ent: np.ndarray, rel: np.ndarray, r: np.ndarray, e: np.ndarray,
                rows: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One batch's gather and scores, for the backbone and both heads. r holds
    the relations of m pairs and e their (h, t_pos, t_neg) rows; rows and
    scores are workspaces for at least m pairs, of 4 * m * d floats and of
    shape (2, >= m). Gathers e_h, e_tp, e_tn and e_r from the float64 tables
    ent and rel, and scores s(h, r, t_pos) and s(h, r, t_neg) with one
    einsum each, over e_h, e_r and the tail rows in that order; returns them
    as (4, m, d) and (2, m) views of the workspaces. Every take uses
    mode="clip", which writes straight into out where "raise" buffers it; no
    id is out of range."""
    m, d = r.shape[0], ent.shape[1]
    g = rows[:4 * m * d].reshape(4, m, d)
    np.take(ent, e, axis=0, out=g[:3], mode="clip")
    np.take(rel, r, axis=0, out=g[3], mode="clip")
    e_h, e_tp, e_tn, e_r = g
    s = scores[:, :m]
    np.einsum("ij,ij,ij->i", e_h, e_r, e_tp, out=s[0])
    np.einsum("ij,ij,ij->i", e_h, e_r, e_tn, out=s[1])
    return g, s


# no overflow warnings: a non-finite value stays non-finite, and the check after
# each epoch names the epoch
@np.errstate(over="ignore", invalid="ignore")
def _train_float64(store: TripleStore, cfg: BackboneTrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """train_backbone's entity and relation tables before float32 storage.
    Raises at the end of the first epoch that leaves a non-finite value."""
    nE, nR, d = store.num_entities, store.num_relations, cfg.dim
    rng = np.random.default_rng(cfg.seed)
    bound = 0.5 / np.sqrt(d)
    ent = rng.uniform(-bound, bound, size=(nE, d))
    rel = rng.uniform(-bound, bound, size=(nR, d))

    npp = cfg.negatives_per_positive
    # a batch of b triples is b * npp pairs; step is the pair count of a full batch
    step = min(cfg.batch_size, store.train.shape[0]) * npp
    # flat cell indices of every entity and relation row
    ent_cells = np.arange(nE * d).reshape(nE, d)
    rel_cells = np.arange(nR * d).reshape(nR, d)
    # workspaces reused by every batch, so no batch allocates a large temporary;
    # a short batch uses views of their heads. Every take uses mode="clip",
    # as in score_pairs
    rows = np.empty(4 * step * d)        # gathered e_h, e_tp, e_tn, e_r
    act_rows = np.empty(4 * step * d)    # their active rows, then the updates
    ent_idx = np.empty(3 * step * d, dtype=np.intp)
    rel_idx = np.empty(step * d, dtype=np.intp)
    scores, hinge = np.empty((2, step)), np.empty(step)
    active = np.empty(step, dtype=bool)

    for epoch, ids in corrupt_pairs(store, cfg.epochs, npp, rng, "backbone"):
        for start in range(0, ids.shape[1], step):
            r, e = ids[0, start:start + step], ids[1:, start:start + step]
            m = r.shape[0]
            g, (s_pos, s_neg) = score_pairs(ent, rel, r, e, rows, scores)
            np.subtract(cfg.margin, s_pos, out=hinge[:m])
            np.add(hinge[:m], s_neg, out=hinge[:m])
            act = np.flatnonzero(np.greater(hinge[:m], 0, out=active[:m]))
            k = act.shape[0]
            if k == 0:
                continue

            scale = cfg.learning_rate / m
            w = act_rows[:4 * k * d].reshape(4, k, d)
            np.take(g, act, axis=1, out=w, mode="clip")
            a_h, a_tp, a_tn, a_r = w
            g_r = rows[:k * d].reshape(k, d)      # g is spent once copied
            np.subtract(a_tn, a_tp, out=a_tp)     # diff
            np.multiply(a_h, a_r, out=a_tn)       # g_core
            np.multiply(a_h, a_tp, out=g_r)
            np.multiply(a_r, a_tp, out=a_h)       # g_h
            # the updates of h, t_pos, t_neg and r
            np.multiply(a_h, -scale, out=a_h)
            np.multiply(a_tn, scale, out=a_tp)
            np.multiply(a_tn, -scale, out=a_tn)
            np.multiply(g_r, -scale, out=g_r)
            # one scatter per table; the entity table takes the h rows, then
            # t_pos, then t_neg, so repeated rows add in the order they always did
            e_idx = ent_idx[:3 * k * d].reshape(3, k, d)
            r_idx = rel_idx[:k * d].reshape(k, d)
            np.take(ent_cells, e[:, act], axis=0, out=e_idx, mode="clip")
            np.take(rel_cells, r[act], axis=0, out=r_idx, mode="clip")
            np.add.at(ent.reshape(-1), e_idx.reshape(-1), w[:3].reshape(-1))
            np.add.at(rel.reshape(-1), r_idx.reshape(-1), g_r.reshape(-1))
        if not (np.isfinite(ent).all() and np.isfinite(rel).all()):
            raise FloatingPointError(f"non-finite backbone embeddings at epoch {epoch}")

    return ent, rel


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
