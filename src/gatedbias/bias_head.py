"""Trainable personalization heads over a frozen backbone.

The gated head holds per-group weight vectors and scalar gates; its per-entity
bias is alpha_A * <w_A, g_A(t) * f_A> + alpha_B * <w_B, g_B(t) * f_B>, whose
two terms are precomputed in one sparse pass as the rows of one array.
Training minimizes a pairwise hinge loss with L1/L2 regularization, touching
only the head parameters. A profile-agnostic MLP head (PatientNode) is
provided as an ablation; both heads share one SGD loop and one checkpoint
format, which binds a head to its backbone.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .backbone import EmbeddingTable, corrupt_pairs, score_pairs
from .config import CheckpointError, HeadTrainConfig
from .kg_store import GROUP_TAGS, GateMatrix, TripleStore, write_json


@dataclass
class BiasHead:
    """Learnable parameters: one weight per attribute column plus two scalar gates."""

    w_a: np.ndarray
    w_b: np.ndarray
    alpha_a: float = 1.0
    alpha_b: float = 1.0


def new_head(gates: tuple[GateMatrix, GateMatrix]) -> BiasHead:
    """Zero-initialized head over the (A, B) gate matrices: the personalized
    scorer starts exactly at the backbone."""
    return BiasHead(*(np.zeros(g.num_columns, dtype=np.float64) for g in gates))


def _groups(head: BiasHead, gates, features):
    """Each group's (tag, gate matrix, w, f, alpha), in GROUP_TAGS order, from
    the head and the (A, B) pairs of gate matrices and profile features."""
    return zip(GROUP_TAGS, gates, (head.w_a, head.w_b), features, (head.alpha_a, head.alpha_b))


def compute_bias(head: BiasHead, gates: tuple[GateMatrix, GateMatrix],
                 features: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """(2, |E|) float64 group contributions, row k alpha_k * G_k(w_k * f_k)
    for GROUP_TAGS[k], from one sparse pass (empty gate rows give exactly 0).
    The bias is contrib[0] + contrib[1]; an axis-0 sum may turn -0.0 to +0.0."""
    contrib = []
    for tag, g, w, f, alpha in _groups(head, gates, features):
        if len(w) != g.num_columns or len(f) != g.num_columns:
            raise ValueError(f"group {tag} dimensions disagree (w, f, gates)")
        contrib.append(alpha * g.matvec(w * f))
    return np.stack(contrib)


class Workspace:
    """Buffers that every batch of a head's training reuses, so no batch
    allocates a large temporary: the gathered rows of up to step pairs for
    score_pairs, and PatientNode's pre-activations z, relu(z), their gradient
    dz and the ReLU mask, each (2, step, hidden) for t_pos and t_neg. A short
    batch uses views of their heads."""

    def __init__(self, step: int, dim: int, hidden: int = 0):
        self.rows = np.empty(4 * step * dim)
        self.z, self.relu, self.dz = np.empty((3, 2, step, hidden))
        self.mask = np.empty((2, step, hidden), dtype=bool)


def _workspace(store: TripleStore, cfg: HeadTrainConfig, dim: int, hidden: int = 0) -> Workspace:
    """A workspace for the largest batch: min(batch_size, pairs per epoch)."""
    pairs = store.train.shape[0] * cfg.negatives_per_positive
    return Workspace(min(cfg.batch_size, pairs), dim, hidden)


def head_loss_and_grad(
    head: BiasHead,
    table: EmbeddingTable,
    gates: tuple[GateMatrix, GateMatrix],
    features: tuple[np.ndarray, np.ndarray],
    ids: np.ndarray,
    lambda1: float,
    lambda2: float,
    work: Workspace | None = None,
) -> tuple[float, BiasHead]:
    """Batch hinge loss (margin 1) plus regularizers, with analytic gradients
    returned as a BiasHead of the same shape. ids holds the pairs' table rows
    (|E| + r, h, t_pos, t_neg), as corrupt_pairs yields them; work is a
    Workspace for at least ids.shape[1] pairs, a new one if None.

    The hinge term is averaged over pairs; regularizers enter at full strength.
    L1 subgradient at zero is taken as 0.
    """
    n_pairs = ids.shape[1]
    if work is None:
        work = Workspace(n_pairs, table.dim)
    _, (s_pos, s_neg) = score_pairs(table.rows64, ids, work.rows)
    s_margin = s_pos - s_neg

    groups = list(_groups(head, gates, features))
    # per group: one gather of the gate rows of t_pos, then of t_neg; the
    # t_pos cells come first, and there are n_pos of them
    tails, t_pos = ids[2:].reshape(-1), ids[2]
    gathered, diffs = [], []
    for _, g, w, f, _ in groups:
        owners, cols = g.gather_rows(tails)
        n_pos = int(g.indptr[t_pos + 1].sum() - g.indptr[t_pos].sum())
        gathered.append((owners, cols, n_pos))
        dots = np.bincount(owners, weights=(w * f)[cols], minlength=2 * n_pairs)
        diffs.append(dots[:n_pairs] - dots[n_pairs:])

    bias_margin = head.alpha_a * diffs[0] + head.alpha_b * diffs[1]
    hinge = np.maximum(0.0, 1.0 - (s_margin + bias_margin))
    active = hinge > 0

    loss = float(hinge.mean())
    loss += lambda1 * (np.abs(head.w_a).sum() + np.abs(head.w_b).sum())
    loss += lambda2 * (np.square(head.w_a).sum() + np.square(head.w_b).sum())

    active2 = np.concatenate((active, active))  # by owner: t_pos, then t_neg
    grads = []
    for (_, g, w, f, alpha), (owners, cols, n_pos), diff in zip(groups, gathered, diffs):
        weights = active2[owners] * f[cols]
        # float zeros, so a bincount over no cells (int64) adds in place too
        grad = np.zeros(g.num_columns, dtype=np.float64)
        for update, part in ((np.subtract, slice(None, n_pos)), (np.add, slice(n_pos, None))):
            update(grad, np.bincount(cols[part], weights=weights[part],
                                     minlength=g.num_columns), out=grad)
        grad *= alpha / n_pairs
        grad += lambda1 * np.sign(w) + 2.0 * lambda2 * w
        grads.append((grad, float(-(active * diff).sum() / n_pairs)))
    (w_a, alpha_a), (w_b, alpha_b) = grads
    return loss, BiasHead(w_a=w_a, w_b=w_b, alpha_a=alpha_a, alpha_b=alpha_b)


# no overflow warnings: a non-finite loss raises below, naming the epoch, as
# the backbone trainer does
@np.errstate(over="ignore", invalid="ignore")
def _sgd(head, loss_and_grad, store: TripleStore, cfg: HeadTrainConfig, what: str):
    """Mini-batch gradient descent on every field of head; returns head.

    loss_and_grad(head, ids) returns the batch loss and a gradient of head's
    own type, ids being the batch's table rows (|E| + r, h, t_pos, t_neg).
    The pairs are the backbone's corrupt_pairs, a batch being
    cfg.batch_size pairs. Deterministic given cfg.seed; the backbone is
    read-only, so only head moves.
    """
    rng = np.random.default_rng(cfg.seed)
    names = [f.name for f in dataclasses.fields(head)]
    step = cfg.batch_size
    for epoch, ids in corrupt_pairs(store, cfg.epochs, cfg.negatives_per_positive, rng, what):
        for start in range(0, ids.shape[1], step):
            loss, grad = loss_and_grad(head, ids[:, start:start + step])
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite {what} loss {loss} at epoch {epoch}, batch offset {start}"
                )
            for name in names:
                setattr(head, name,
                        getattr(head, name) - cfg.learning_rate * getattr(grad, name))
    return head


def train_head(
    store: TripleStore,
    table: EmbeddingTable,
    gates: tuple[GateMatrix, GateMatrix],
    features: tuple[np.ndarray, np.ndarray],
    cfg: HeadTrainConfig,
) -> BiasHead:
    """Train {w_a, w_b, alpha_a, alpha_b} from a zero head; nothing else moves."""
    work = _workspace(store, cfg, table.dim)

    def loss_and_grad(head, ids):
        return head_loss_and_grad(head, table, gates, features, ids,
                                  cfg.lambda1, cfg.lambda2, work)

    return _sgd(new_head(gates), loss_and_grad, store, cfg, "head")


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


def param_count(head) -> int:
    """The number of trainable parameters: the sizes of head's fields."""
    return sum(np.size(getattr(head, f.name)) for f in dataclasses.fields(head))


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
    ids: np.ndarray,
    work: Workspace | None = None,
) -> tuple[float, PatientNodeHead]:
    """Same pairwise hinge as the gated head, unregularized; backprop through
    the tiny MLP. The gradient is returned as a PatientNodeHead of the same
    shape. ids and work are as for head_loss_and_grad, work also holding
    the MLP's hidden width."""
    n_pairs = ids.shape[1]
    if work is None:
        work = Workspace(n_pairs, table.dim, head.w1.shape[0])
    g, (s_pos, s_neg) = score_pairs(table.rows64, ids, work.rows)
    s_margin = s_pos - s_neg

    # the gathered tail rows are table.rows64[t]; t_pos and t_neg pass the
    # MLP apart, as a BLAS row may round differently with M
    e_tails = g[2:]
    z, a, dz, mask = (x[:, :n_pairs] for x in (work.z, work.relu, work.dz, work.mask))
    for k in (0, 1):
        np.matmul(e_tails[k], head.w1.T, out=z[k])
    z += head.b1
    np.maximum(z, 0.0, out=a)
    bias_pos = a[0] @ head.w2 + head.b2
    bias_neg = a[1] @ head.w2 + head.b2

    hinge = np.maximum(0.0, 1.0 - (s_margin + bias_pos - bias_neg))
    active = hinge > 0
    loss = float(hinge.mean())

    # upstream gradient of the mean hinge w.r.t. bias(t): -1/P for positives,
    # +1/P for negatives, zero for inactive pairs
    gamma = np.stack((-active.astype(np.float64), active.astype(np.float64))) / n_pairs

    g_w2 = gamma[0] @ a[0] + gamma[1] @ a[1]
    g_b2 = float(gamma[0].sum() + gamma[1].sum())
    np.multiply(gamma[:, :, None], head.w2, out=dz)
    dz *= np.greater(z, 0, out=mask)
    g_w1 = dz[0].T @ e_tails[0] + dz[1].T @ e_tails[1]
    g_b1 = dz[0].sum(axis=0) + dz[1].sum(axis=0)
    return loss, PatientNodeHead(w1=g_w1, b1=g_b1, w2=g_w2, b2=g_b2)


def train_patientnode(
    store: TripleStore,
    table: EmbeddingTable,
    cfg: HeadTrainConfig,
    hidden: int,
) -> PatientNodeHead:
    """Train the MLP ablation; profile features and gates are never consulted.

    cfg.lambda1 and cfg.lambda2 regularize the gated head's weight vectors
    only: the MLP trains unregularized, so the comparison is capacity against
    capacity, not penalty against penalty.
    """
    work = _workspace(store, cfg, table.dim, hidden)

    def loss_and_grad(head, ids):
        return patientnode_loss_and_grad(head, table, ids, work)

    return _sgd(new_patientnode(table.dim, hidden, cfg.seed), loss_and_grad, store, cfg,
                "patientnode")


def compute_bias_patientnode(head: PatientNodeHead, table: EmbeddingTable) -> np.ndarray:
    """Fixed bias per entity from its embedding; identical for every profile."""
    z = table.rows64[:table.num_entities] @ head.w1.T + head.b1
    return np.maximum(z, 0.0) @ head.w2 + head.b2


# ---------------------------------------------------------------------------
# Checkpoints: JSON holding the head's fields, its train config and the
# checksums of what it was trained against (the backbone, and for the gated
# head the two attribute universes). Loading refuses any other backbone.
# ---------------------------------------------------------------------------

_KIND = {BiasHead: "gatedbias-head", PatientNodeHead: "patientnode-head"}
_SHAPED_BY = {BiasHead: "the attribute universes",
              PatientNodeHead: "head.patientnode_hidden and the backbone dim"}


def _write_checkpoint(path: str, head, cfg: HeadTrainConfig, table: EmbeddingTable,
                      **bindings: str) -> None:
    payload = {"kind": _KIND[type(head)], "train_config": vars(cfg),
               "backbone_checksum": table.checksum(), **bindings}
    for f in dataclasses.fields(head):
        value = getattr(head, f.name)
        payload[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    write_json(path, payload)


def _read_checkpoint(path: str, template, cfg: HeadTrainConfig, table: EmbeddingTable,
                     **bindings: str):
    """The head saved at path, of template's type and field shapes. Eval
    reports cfg, so the head must have been trained with it, seed included;
    the backbone and the other bindings must match the checksums the head was
    saved with. A scalar field must be a finite JSON number, an array field a
    finite array of the template's shape."""
    kind = _KIND[type(template)]
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or payload.get("kind") != kind:
            raise CheckpointError(f"{path}: not a {kind} checkpoint")
        trained = payload["train_config"]
        if not isinstance(trained, dict):
            raise CheckpointError(f"{path}: train_config must be a mapping")
        diffs = [f"{name} {trained.get(name)!r} (config: {want!r})"
                 for name, want in vars(cfg).items() if trained.get(name) != want]
        if diffs:
            raise CheckpointError(f"{path} was trained with other head settings: "
                                  f"{', '.join(diffs)}")
        for key, have in {"backbone_checksum": table.checksum(), **bindings}.items():
            if payload[key] != have:
                raise CheckpointError(f"{path}: {key} mismatch (checkpoint "
                                      f"{payload[key]!s:.12}..., current {have:.12}...)")
        fields = {}
        for f in dataclasses.fields(template):
            want, value = np.shape(getattr(template, f.name)), payload[f.name]
            if not want and (isinstance(value, bool) or not isinstance(value, (int, float))):
                raise CheckpointError(f"{path}: {f.name} must be a number, "
                                      f"got {json.dumps(value):.40}")
            try:
                array = np.asarray(value, dtype=np.float64)
            except (TypeError, ValueError):
                raise CheckpointError(f"{path}: {f.name} is not a numeric array") from None
            if array.shape != want:
                raise CheckpointError(f"{path}: {f.name} has shape {array.shape}; "
                                      f"{_SHAPED_BY[type(template)]} give {want}")
            if not np.isfinite(array).all():
                raise CheckpointError(f"{path}: {f.name} holds non-finite values")
            fields[f.name] = array if want else float(value)
        return type(template)(**fields)
    except FileNotFoundError:
        raise FileNotFoundError(f"no {kind} checkpoint at {path}; run the pipeline first") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing key {exc}") from exc


def _universe_bindings(gates: tuple[GateMatrix, GateMatrix]) -> dict[str, str]:
    return {f"universe_checksum_{tag.lower()}": g.checksum()
            for tag, g in zip(GROUP_TAGS, gates)}


def save_head(head: BiasHead, cfg: HeadTrainConfig, table: EmbeddingTable,
              gates: tuple[GateMatrix, GateMatrix], path: str) -> None:
    _write_checkpoint(path, head, cfg, table, **_universe_bindings(gates))


def load_head(path: str, cfg: HeadTrainConfig, table: EmbeddingTable,
              gates: tuple[GateMatrix, GateMatrix]) -> BiasHead:
    return _read_checkpoint(path, new_head(gates), cfg, table, **_universe_bindings(gates))


def save_patientnode(head: PatientNodeHead, cfg: HeadTrainConfig, table: EmbeddingTable,
                     path: str) -> None:
    _write_checkpoint(path, head, cfg, table)


def load_patientnode(path: str, cfg: HeadTrainConfig, table: EmbeddingTable,
                     hidden: int) -> PatientNodeHead:
    """The MLP saved at path, whose w1 must be (hidden, backbone dim)."""
    return _read_checkpoint(path, new_patientnode(table.dim, hidden, cfg.seed), cfg, table)
