"""Trainable personalization heads over a frozen backbone.

The gated head holds per-group weight vectors and scalar gates; its per-entity
bias is alpha_A * <w_A, g_A(t) * f_A> + alpha_B * <w_B, g_B(t) * f_B>,
precomputed in one sparse pass. Training minimizes a pairwise hinge loss with
L1/L2 regularization, touching only the head parameters. A profile-agnostic
MLP head (PatientNode) is provided as an ablation; both heads share one SGD
loop and one checkpoint format, which binds a head to its backbone.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .backbone import EmbeddingTable
from .errors import CheckpointError
from .fileio import write_json
from .kg_store import GateMatrix, TripleStore


@dataclass
class BiasHead:
    """Learnable parameters: one weight per attribute column plus two scalar gates."""

    w_a: np.ndarray
    w_b: np.ndarray
    alpha_a: float = 1.0
    alpha_b: float = 1.0

    @property
    def param_count(self) -> int:
        return len(self.w_a) + len(self.w_b) + 2


@dataclass
class BiasVector:
    """Per-entity additive bias split into per-group contributions."""

    values: np.ndarray
    contrib_a: np.ndarray
    contrib_b: np.ndarray


@dataclass
class HeadTrainConfig:
    """Head trainer settings; config_from_dict checks their ranges."""

    batch_size: int = 4096
    learning_rate: float = 1e-3
    epochs: int = 5
    lambda1: float = 1e-4
    lambda2: float = 1e-4
    negatives_per_positive: int = 1
    seed: int = 0


def new_head(gates_a: GateMatrix, gates_b: GateMatrix) -> BiasHead:
    """Zero-initialized head: the personalized scorer starts exactly at the backbone."""
    return BiasHead(
        w_a=np.zeros(gates_a.num_columns, dtype=np.float64),
        w_b=np.zeros(gates_b.num_columns, dtype=np.float64),
        alpha_a=1.0,
        alpha_b=1.0,
    )


def compute_bias(head: BiasHead, gates_a: GateMatrix, gates_b: GateMatrix,
                 f_a: np.ndarray, f_b: np.ndarray) -> BiasVector:
    """One sparse pass over gate nonzeros; entities with empty rows get exactly 0."""
    if len(head.w_a) != gates_a.num_columns or len(f_a) != gates_a.num_columns:
        raise ValueError("group A dimensions disagree (w_a, f_a, gates_a)")
    if len(head.w_b) != gates_b.num_columns or len(f_b) != gates_b.num_columns:
        raise ValueError("group B dimensions disagree (w_b, f_b, gates_b)")
    contrib_a = head.alpha_a * gates_a.matvec(head.w_a * f_a)
    contrib_b = head.alpha_b * gates_b.matvec(head.w_b * f_b)
    return BiasVector(values=contrib_a + contrib_b, contrib_a=contrib_a, contrib_b=contrib_b)


def head_loss_and_grad(
    head: BiasHead,
    table: EmbeddingTable,
    gates_a: GateMatrix,
    gates_b: GateMatrix,
    f_a: np.ndarray,
    f_b: np.ndarray,
    heads: np.ndarray,
    rels: np.ndarray,
    t_pos: np.ndarray,
    t_neg: np.ndarray,
    lambda1: float,
    lambda2: float,
) -> tuple[float, BiasHead]:
    """Batch hinge loss (margin 1) plus regularizers, with analytic gradients
    returned as a BiasHead of the same shape.

    The hinge term is averaged over pairs; regularizers enter at full strength.
    L1 subgradient at zero is taken as 0.
    """
    n_pairs = len(t_pos)
    s_margin = table.score_triples(heads, rels, t_pos) - table.score_triples(heads, rels, t_neg)

    dots = {}
    gathered = {}
    for tag, gates, w, f, tails in (
        ("a_pos", gates_a, head.w_a, f_a, t_pos),
        ("a_neg", gates_a, head.w_a, f_a, t_neg),
        ("b_pos", gates_b, head.w_b, f_b, t_pos),
        ("b_neg", gates_b, head.w_b, f_b, t_neg),
    ):
        owners, cols = gates.gather_rows(tails)
        gathered[tag] = (owners, cols)
        terms = (w * f)[cols]
        dots[tag] = np.bincount(owners, weights=terms, minlength=n_pairs)

    bias_margin = (
        head.alpha_a * (dots["a_pos"] - dots["a_neg"])
        + head.alpha_b * (dots["b_pos"] - dots["b_neg"])
    )
    hinge = np.maximum(0.0, 1.0 - (s_margin + bias_margin))
    active = hinge > 0

    loss = float(hinge.mean())
    loss += lambda1 * (np.abs(head.w_a).sum() + np.abs(head.w_b).sum())
    loss += lambda2 * (np.square(head.w_a).sum() + np.square(head.w_b).sum())

    def grad_w(gates: GateMatrix, f: np.ndarray, w: np.ndarray, alpha: float,
               pos_tag: str, neg_tag: str) -> np.ndarray:
        owners_p, cols_p = gathered[pos_tag]
        owners_n, cols_n = gathered[neg_tag]
        g = np.zeros(gates.num_columns, dtype=np.float64)
        if cols_p.size:
            g -= np.bincount(cols_p, weights=active[owners_p] * f[cols_p],
                             minlength=gates.num_columns)
        if cols_n.size:
            g += np.bincount(cols_n, weights=active[owners_n] * f[cols_n],
                             minlength=gates.num_columns)
        g *= alpha / n_pairs
        g += lambda1 * np.sign(w) + 2.0 * lambda2 * w
        return g

    grads = BiasHead(
        w_a=grad_w(gates_a, f_a, head.w_a, head.alpha_a, "a_pos", "a_neg"),
        w_b=grad_w(gates_b, f_b, head.w_b, head.alpha_b, "b_pos", "b_neg"),
        alpha_a=float(-(active * (dots["a_pos"] - dots["a_neg"])).sum() / n_pairs),
        alpha_b=float(-(active * (dots["b_pos"] - dots["b_neg"])).sum() / n_pairs),
    )
    return loss, grads


def _sgd(head, loss_and_grad, store: TripleStore, cfg: HeadTrainConfig, what: str):
    """Mini-batch gradient descent on every field of head; returns head.

    loss_and_grad(head, heads, rels, t_pos, t_neg) returns the batch loss and
    a gradient of head's own type. Negatives are uniform corrupt tails
    (excluding the positive) resampled each epoch. Deterministic given
    cfg.seed; the backbone is read-only, so only head moves.
    """
    if store.train.shape[0] == 0:
        raise ValueError(f"cannot train {what} on an empty train split")
    rng = np.random.default_rng(cfg.seed)
    train = store.train
    for epoch in range(cfg.epochs):
        order = rng.permutation(train.shape[0])
        pos = np.repeat(train[order], cfg.negatives_per_positive, axis=0)
        t_neg = rng.integers(0, store.num_entities - 1, size=pos.shape[0])
        t_neg[t_neg >= pos[:, 2]] += 1
        for start in range(0, pos.shape[0], cfg.batch_size):
            sl = slice(start, start + cfg.batch_size)
            loss, grad = loss_and_grad(head, pos[sl, 0], pos[sl, 1], pos[sl, 2], t_neg[sl])
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite {what} loss {loss} at epoch {epoch}, batch offset {start}"
                )
            for f in dataclasses.fields(head):
                setattr(head, f.name,
                        getattr(head, f.name) - cfg.learning_rate * getattr(grad, f.name))
    return head


def train_head(
    store: TripleStore,
    table: EmbeddingTable,
    gates_a: GateMatrix,
    gates_b: GateMatrix,
    f_a: np.ndarray,
    f_b: np.ndarray,
    cfg: HeadTrainConfig,
) -> BiasHead:
    """Train {w_a, w_b, alpha_a, alpha_b} from a zero head; nothing else moves."""
    def loss_and_grad(head, *batch):
        return head_loss_and_grad(head, table, gates_a, gates_b, f_a, f_b, *batch,
                                  cfg.lambda1, cfg.lambda2)

    return _sgd(new_head(gates_a, gates_b), loss_and_grad, store, cfg, "head")


# ---------------------------------------------------------------------------
# PatientNode ablation: fixed per-entity bias from the entity embedding alone.
# ---------------------------------------------------------------------------

@dataclass
class PatientNodeHead:
    """One-hidden-layer MLP d -> hidden (ReLU) -> scalar bias."""

    w1: np.ndarray  # (hidden, d)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: float

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    @property
    def param_count(self) -> int:
        h, d = self.w1.shape
        return h * d + h + h + 1

    def bias_for(self, emb: np.ndarray) -> np.ndarray:
        z = emb @ self.w1.T + self.b1
        return np.maximum(z, 0.0) @ self.w2 + self.b2


def new_patientnode(dim: int, hidden: int, seed: int) -> PatientNodeHead:
    """Random hidden layer, zero output layer: initial bias is exactly 0 everywhere."""
    rng = np.random.default_rng(seed)
    bound = 0.5 / np.sqrt(dim)
    return PatientNodeHead(
        w1=rng.uniform(-bound, bound, size=(hidden, dim)),
        b1=np.zeros(hidden, dtype=np.float64),
        w2=np.zeros(hidden, dtype=np.float64),
        b2=0.0,
    )


def patientnode_loss_and_grad(
    head: PatientNodeHead,
    table: EmbeddingTable,
    heads: np.ndarray,
    rels: np.ndarray,
    t_pos: np.ndarray,
    t_neg: np.ndarray,
    lambda1: float = 0.0,
    lambda2: float = 0.0,
) -> tuple[float, PatientNodeHead]:
    """Same pairwise hinge as the gated head; backprop through the tiny MLP.
    The gradient is returned as a PatientNodeHead of the same shape.

    Regularizers (when configured) apply to the weight matrices, not biases.
    """
    n_pairs = len(t_pos)
    s_margin = table.score_triples(heads, rels, t_pos) - table.score_triples(heads, rels, t_neg)

    e_pos = table.entity_emb[t_pos].astype(np.float64)
    e_neg = table.entity_emb[t_neg].astype(np.float64)
    z_pos = e_pos @ head.w1.T + head.b1
    z_neg = e_neg @ head.w1.T + head.b1
    a_pos, a_neg = np.maximum(z_pos, 0.0), np.maximum(z_neg, 0.0)
    bias_pos = a_pos @ head.w2 + head.b2
    bias_neg = a_neg @ head.w2 + head.b2

    hinge = np.maximum(0.0, 1.0 - (s_margin + bias_pos - bias_neg))
    active = hinge > 0
    loss = float(hinge.mean())
    loss += lambda1 * (np.abs(head.w1).sum() + np.abs(head.w2).sum())
    loss += lambda2 * (np.square(head.w1).sum() + np.square(head.w2).sum())

    # upstream gradient of the mean hinge w.r.t. bias(t): -1/P for positives,
    # +1/P for negatives, zero for inactive pairs
    gamma_pos = -active.astype(np.float64) / n_pairs
    gamma_neg = active.astype(np.float64) / n_pairs

    g_w2 = gamma_pos @ a_pos + gamma_neg @ a_neg
    g_b2 = float(gamma_pos.sum() + gamma_neg.sum())
    dz_pos = (gamma_pos[:, None] * head.w2[None, :]) * (z_pos > 0)
    dz_neg = (gamma_neg[:, None] * head.w2[None, :]) * (z_neg > 0)
    g_w1 = dz_pos.T @ e_pos + dz_neg.T @ e_neg
    g_b1 = dz_pos.sum(axis=0) + dz_neg.sum(axis=0)

    g_w1 += lambda1 * np.sign(head.w1) + 2.0 * lambda2 * head.w1
    g_w2 += lambda1 * np.sign(head.w2) + 2.0 * lambda2 * head.w2
    return loss, PatientNodeHead(w1=g_w1, b1=g_b1, w2=g_w2, b2=g_b2)


def train_patientnode(
    store: TripleStore,
    table: EmbeddingTable,
    cfg: HeadTrainConfig,
    hidden: int = 16,
    lambda1: float = 0.0,
    lambda2: float = 0.0,
) -> PatientNodeHead:
    """Train the MLP ablation; profile features and gates are never consulted."""
    def loss_and_grad(head, *batch):
        return patientnode_loss_and_grad(head, table, *batch, lambda1, lambda2)

    return _sgd(new_patientnode(table.dim, hidden, cfg.seed), loss_and_grad, store, cfg,
                "patientnode")


def compute_bias_patientnode(head: PatientNodeHead, table: EmbeddingTable) -> np.ndarray:
    """Fixed bias per entity from its embedding; identical for every profile."""
    return head.bias_for(table.entity_emb.astype(np.float64))


# ---------------------------------------------------------------------------
# Checkpoints: JSON holding the head's fields, its train config and the
# checksums of what it was trained against (the backbone, and for the gated
# head the two attribute universes). Loading refuses any other backbone.
# ---------------------------------------------------------------------------

_KIND = {BiasHead: "gatedbias-head", PatientNodeHead: "patientnode-head"}


def _write_checkpoint(path: str, head, cfg: HeadTrainConfig, table: EmbeddingTable,
                      **bindings: str) -> None:
    payload = {"kind": _KIND[type(head)], "train_config": vars(cfg),
               "backbone_checksum": table.checksum(), **bindings}
    for f in dataclasses.fields(head):
        value = getattr(head, f.name)
        payload[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    write_json(path, payload)


def _read_checkpoint(path: str, cls, cfg: HeadTrainConfig, table: EmbeddingTable,
                     **bindings: str):
    """The head of type cls saved at path. Eval reports cfg, so the head must
    have been trained with it, seed included; the backbone and the other
    bindings must match the checksums the head was saved with."""
    kind = _KIND[cls]
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or payload.get("kind") != kind:
            raise CheckpointError(f"{path}: not a {kind} checkpoint")
        trained = payload["train_config"]
        diffs = [f"{name} {trained.get(name)!r} (config: {want!r})"
                 for name, want in vars(cfg).items() if trained.get(name) != want]
        if diffs:
            raise CheckpointError(f"{path} was trained with other head settings: "
                                  f"{', '.join(diffs)}")
        for key, have in {"backbone_checksum": table.checksum(), **bindings}.items():
            if payload[key] != have:
                raise CheckpointError(f"{path}: {key} mismatch (checkpoint "
                                      f"{payload[key]!s:.12}..., current {have:.12}...)")
        return cls(**{f.name: np.asarray(payload[f.name], dtype=np.float64)
                      if isinstance(payload[f.name], list) else float(payload[f.name])
                      for f in dataclasses.fields(cls)})
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing key {exc}") from exc


def _universe_bindings(gates_a: GateMatrix, gates_b: GateMatrix) -> dict[str, str]:
    return {"universe_checksum_a": gates_a.universe.checksum(),
            "universe_checksum_b": gates_b.universe.checksum()}


def save_head(head: BiasHead, cfg: HeadTrainConfig, table: EmbeddingTable,
              gates_a: GateMatrix, gates_b: GateMatrix, path: str) -> None:
    _write_checkpoint(path, head, cfg, table, **_universe_bindings(gates_a, gates_b))


def load_head(path: str, cfg: HeadTrainConfig, table: EmbeddingTable,
              gates_a: GateMatrix, gates_b: GateMatrix) -> BiasHead:
    return _read_checkpoint(path, BiasHead, cfg, table, **_universe_bindings(gates_a, gates_b))


def save_patientnode(head: PatientNodeHead, cfg: HeadTrainConfig, table: EmbeddingTable,
                     path: str) -> None:
    _write_checkpoint(path, head, cfg, table)


def load_patientnode(path: str, cfg: HeadTrainConfig, table: EmbeddingTable,
                     hidden: int) -> PatientNodeHead:
    head = _read_checkpoint(path, PatientNodeHead, cfg, table)
    if head.w1.shape[1] != table.dim:
        raise CheckpointError(f"{path}: checkpoint dim {head.w1.shape[1]} != backbone dim "
                              f"{table.dim}")
    if head.hidden != hidden:
        raise CheckpointError(f"{path} has {head.hidden} hidden units; the config says "
                              f"head.patientnode_hidden: {hidden}")
    return head
