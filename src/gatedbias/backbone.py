"""Frozen DistMult scorer and a small deterministic trainer for desk-scale runs.

The scorer is s(h,r,t) = sum_j e_h[j] * e_r[j] * e_t[j], over values
rounded to float32 and held in float64. A table is read-only from
construction on; personalization never writes through this module.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .config import BackboneTrainConfig, CheckpointError
from .kg_store import TripleStore, atomic_write

MAGIC = b"KGE1"
_HEADER = struct.Struct("<4sQQQ")


class EmbeddingTable:
    """Read-only DistMult embeddings of one (|E| + |R|, d) block, entity rows
    then relation rows (relation r at row |E| + r): rows64, the block rounded
    to float32 and held as float64, narrows back to the KGE1 payload exactly."""

    def __init__(self, emb: np.ndarray, num_entities: int):
        if emb.ndim != 2 or not 0 <= num_entities <= emb.shape[0]:
            raise ValueError(f"embeddings must be 2-d with at least {num_entities} rows, got {emb.shape}")
        with np.errstate(over="ignore"):  # a value past float32's range rounds to inf
            self.rows64 = np.asarray(emb, dtype=np.float32).astype(np.float64, order="C")
        if not np.isfinite(self.rows64).all():
            raise ValueError("embeddings contain non-finite values")
        self.rows64.flags.writeable = False
        self._num_entities = num_entities

    @property
    def dim(self) -> int:
        return self.rows64.shape[1]

    @property
    def num_entities(self) -> int:
        return self._num_entities

    @property
    def num_relations(self) -> int:
        return self.rows64.shape[0] - self._num_entities

    def score_all_tails(self, h: int, r: int) -> np.ndarray:
        """Scores of every entity as tail of (h, r, ?)."""
        ent = self.rows64[:self.num_entities]
        return ent @ (ent[h] * self.rows64[self.num_entities + r])

    def checksum(self) -> str:
        h = hashlib.sha256()
        h.update(_HEADER.pack(MAGIC, self.num_entities, self.num_relations, self.dim))
        h.update(self.rows64.astype("<f4"))
        return h.hexdigest()


def train_backbone(store: TripleStore, cfg: BackboneTrainConfig) -> EmbeddingTable:
    """Train DistMult with margin ranking loss over uniform corrupt tails.

    Deterministic given cfg.seed; returns a read-only table. Internal math runs
    in float64, the table rounds to float32; a table float32 cannot hold raises.
    """
    emb = _train_float64(store, cfg)
    try:
        return EmbeddingTable(emb, store.num_entities)
    except ValueError:  # emb is finite, so only rounding to float32 made inf
        raise FloatingPointError("backbone embeddings exceed float32 range after epoch "
                                 f"{cfg.epochs - 1}") from None


def corrupt_pairs(store: TripleStore, epochs: int, npp: int, rng: np.random.Generator,
                  what: str):
    """The training pairs of each epoch, for the backbone and both heads:
    yields (epoch, ids), ids being one (4, len(train) * npp) array of table
    rows (|E| + r, h, t_pos, t_neg) rewritten each epoch. An epoch permutes
    the train triples and repeats each npp times, its pairs adjacent; t_neg
    is uniform over the entities other than t_pos. The first next() refuses
    a store that cannot be trained, even for zero epochs."""
    if store.train.shape[0] == 0:
        raise ValueError(f"cannot train {what} on an empty train split")
    if store.num_entities < 2:
        raise ValueError(f"cannot train {what}: corrupt tails need at least two entities; "
                         f"the store has {store.num_entities}")
    train = store.train
    n = train.shape[0]
    cols = np.ascontiguousarray(train[:, [1, 0, 2]].T)
    cols[0] += store.num_entities
    ids = np.empty((4, n * npp), dtype=train.dtype)
    t_neg = ids[3]
    for epoch in range(epochs):
        np.take(cols, np.repeat(rng.permutation(n), npp), axis=1, out=ids[:3], mode="clip")
        # one draw for the epoch consumes the generator's stream as one draw
        # per batch did
        t_neg[:] = rng.integers(0, store.num_entities - 1, size=t_neg.shape[0])
        np.add(t_neg, t_neg >= ids[2], out=t_neg)
        yield epoch, ids


def score_pairs(table: np.ndarray, ids: np.ndarray,
                rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One batch's gather and scores, for the backbone and both heads. ids
    holds the table rows (|E| + r, h, t_pos, t_neg) of m pairs, table is
    EmbeddingTable.rows64 or the trainer's float64 table of that layout, and
    rows is a workspace of at least 4 * m * d floats. Gathers e_r, e_h, e_tp
    and e_tn with one take into a (4, m, d) view of rows and scores
    s(h, r, t_pos) and s(h, r, t_neg) with one einsum, over e_h, e_r and the
    tail rows in that order; returns the view and the (2, m) scores. Every
    take uses mode="clip", which writes straight into out where "raise"
    buffers it; no id is out of range."""
    m, d = ids.shape[1], table.shape[1]
    g = rows[:4 * m * d].reshape(4, m, d)
    np.take(table, ids, axis=0, out=g, mode="clip")
    return g, np.einsum("ij,ij,kij->ki", g[1], g[0], g[2:])


# no overflow warnings: a non-finite value stays non-finite, and the check after
# each epoch names the epoch
@np.errstate(over="ignore", invalid="ignore")
def _train_float64(store: TripleStore, cfg: BackboneTrainConfig) -> np.ndarray:
    """train_backbone's table before float32 rounding, in EmbeddingTable's row
    layout. Raises at the end of the first epoch leaving a non-finite value."""
    nE, d = store.num_entities, cfg.dim
    rng = np.random.default_rng(cfg.seed)
    bound = 0.5 / np.sqrt(d)
    # one draw of both tables is the entity draw, then the relation draw
    emb = rng.uniform(-bound, bound, size=(nE + store.num_relations, d))

    npp = cfg.negatives_per_positive
    # a batch of b triples is b * npp pairs; step is the pair count of a full batch
    step = min(cfg.batch_size, store.train.shape[0]) * npp
    cells = np.arange(emb.size).reshape(emb.shape)  # flat cell indices of each row
    # the (4, pairs, d) workspaces, reused by every batch so that none allocates
    # a large temporary; a short batch uses views of their heads. Every take
    # uses mode="clip", as in score_pairs
    rows = np.empty(4 * step * d)          # gathered e_r, e_h, e_tp, e_tn
    updates = np.empty(4 * step * d)       # the active pairs' rows, then their updates
    update_cells = np.empty(4 * step * d, dtype=np.intp)
    scatter_rows = np.array([[1], [0], [2], [3]])  # h, r, t_pos, t_neg, as rows of ids

    for epoch, ids in corrupt_pairs(store, cfg.epochs, npp, rng, "backbone"):
        for start in range(0, ids.shape[1], step):
            batch = ids[:, start:start + step]
            m = batch.shape[1]
            g, (s_pos, s_neg) = score_pairs(emb, batch, rows)
            act = np.flatnonzero(cfg.margin - s_pos + s_neg > 0)
            k = act.shape[0]
            if k == 0:
                continue

            # the updates of h, r, t_pos and t_neg, in place
            scale = cfg.learning_rate / m
            w = updates[:4 * k * d].reshape(4, k, d)
            np.take(g, act, axis=1, out=w, mode="clip")  # e_r, e_h, e_tp, e_tn
            np.subtract(w[3], w[2], out=w[2])            # diff = e_tn - e_tp
            np.multiply(w[1], w[0], out=w[3])            # e_h * e_r
            w[:2] *= w[2]                                # the gradients of h, then r
            w[:2] *= -scale
            np.multiply(w[3], scale, out=w[2])
            np.negative(w[2], out=w[3])                  # exact: e_h * e_r * -scale
            # one scatter: entity rows take h, then t_pos, then t_neg, relation
            # rows only r, so repeated rows add in the order they always did
            idx = update_cells[:4 * k * d].reshape(4, k, d)
            np.take(cells, batch[scatter_rows, act], axis=0, out=idx, mode="clip")
            np.add.at(emb.reshape(-1), idx.reshape(-1), w.reshape(-1))
        if not np.isfinite(emb).all():
            raise FloatingPointError(f"non-finite backbone embeddings at epoch {epoch}")

    return emb


def save_embeddings(table: EmbeddingTable, path: str) -> None:
    """Write magic + (|E|, |R|, d) header + the row-major little-endian float32
    table, entity rows then relation rows."""
    with atomic_write(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, table.num_entities, table.num_relations, table.dim))
        fh.write(table.rows64.astype("<f4"))


def load_embeddings(path: str, expected_entities: int, expected_relations: int
                    ) -> EmbeddingTable:
    """Load a saved table (read-only) for a vocabulary of expected_entities
    entities and expected_relations relations. Corrupt or mismatched files raise."""
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
    if nE != expected_entities:
        raise CheckpointError(f"{path}: file has {nE} entities, vocabulary has {expected_entities}")
    if nR != expected_relations:
        raise CheckpointError(f"{path}: file has {nR} relations, vocabulary has {expected_relations}")
    floats = np.frombuffer(data, dtype="<f4", offset=_HEADER.size)
    try:
        return EmbeddingTable(floats.reshape(nE + nR, d), nE)
    except ValueError as exc:  # a non-finite payload
        raise CheckpointError(f"{path}: {exc}") from exc
