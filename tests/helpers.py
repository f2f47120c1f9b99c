"""Shared fixture builders for the test suite.

Stores, gate matrices and feature vectors are constructed in memory with
independent bookkeeping (plain dicts and dense matrices) so tests can compare
library output against brute-force oracles that share no code with the
implementation.
"""

from __future__ import annotations

import numpy as np

from gatedbias.backbone import EmbeddingTable
from gatedbias.bias_head import BiasHead
from gatedbias.kg_store import AttributeUniverse, GateMatrix, TripleStore, Vocab


def store_from_labels(train, valid=(), test=()):
    """Build a TripleStore from (head, relation, tail) label triples.

    Vocabulary ids follow first appearance in train, then valid, then test,
    matching the file loader. known_tails is rebuilt here by hand.
    """
    ev, rv = Vocab(), Vocab()

    def conv(rows):
        out = [(ev.add(h), rv.add(r), ev.add(t)) for h, r, t in rows]
        return np.asarray(out, dtype=np.int64).reshape(-1, 3)

    tr, va, te = conv(train), conv(valid), conv(test)
    grouped: dict[tuple[int, int], set[int]] = {}
    for h, r, t in [*tr.tolist(), *va.tolist()]:
        grouped.setdefault((h, r), set()).add(t)
    known = {k: np.array(sorted(v), dtype=np.int64) for k, v in grouped.items()}
    return TripleStore(entity_vocab=ev, relation_vocab=rv, train=tr, valid=va,
                       test=te, known_tails=known)


def random_store(rng, n_entities, n_relations, n_train, n_test, n_valid=0):
    """TripleStore of uniformly drawn triples; known_tails is rebuilt by hand
    from the train and valid draws."""
    ev, rv = Vocab(), Vocab()
    for i in range(n_entities):
        ev.add(f"e{i}")
    for r in range(n_relations):
        rv.add(f"r{r}")

    def draw(n):
        return np.column_stack([rng.integers(0, n_entities, n),
                                rng.integers(0, n_relations, n),
                                rng.integers(0, n_entities, n)]).astype(np.int64).reshape(-1, 3)

    train, test = draw(n_train), draw(n_test)
    valid = draw(n_valid)
    known = {}
    for h, r, t in [*train.tolist(), *valid.tolist()]:
        known.setdefault((h, r), set()).add(t)
    known = {k: np.array(sorted(v), dtype=np.int64) for k, v in known.items()}
    return TripleStore(entity_vocab=ev, relation_vocab=rv, train=train, valid=valid,
                       test=test, known_tails=known)


def gates_from_dense(dense, group="A", attrs=None):
    """GateMatrix built row by row from a dense 0/1 membership matrix."""
    dense = np.asarray(dense)
    n_e, n_u = dense.shape
    if attrs is None:
        attrs = np.arange(n_u, dtype=np.int64)
    uni = AttributeUniverse(group=group, attrs=np.asarray(attrs, dtype=np.int64))
    indptr = np.zeros(n_e + 1, dtype=np.int64)
    cols = []
    for t in range(n_e):
        row = np.flatnonzero(dense[t] != 0).astype(np.int64)
        cols.append(row)
        indptr[t + 1] = indptr[t] + row.size
    indices = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
    return GateMatrix(uni, n_e, indptr, indices.astype(np.int64))


def random_gates(rng, n_entities, n_cols, density=0.4, group="A"):
    """Random binary gates; returns (GateMatrix, dense oracle matrix)."""
    dense = (rng.random((n_entities, n_cols)) < density).astype(np.float64)
    return gates_from_dense(dense, group=group), dense


def make_features(gates, values):
    """Profile feature vector for gates: one float64 value per universe column."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (gates.num_columns,):
        raise ValueError(f"{values.shape[0]} feature values for {gates.num_columns} columns")
    return values


def random_table(rng, n_entities, n_relations, dim):
    ent = rng.standard_normal((n_entities, dim)).astype(np.float32)
    rel = rng.standard_normal((n_relations, dim)).astype(np.float32)
    return EmbeddingTable(ent, rel)


def make_head(w_a, w_b, alpha_a=1.0, alpha_b=1.0):
    return BiasHead(w_a=np.asarray(w_a, dtype=np.float64),
                    w_b=np.asarray(w_b, dtype=np.float64),
                    alpha_a=alpha_a, alpha_b=alpha_b)


def central_difference(f, x0, eps=1e-6):
    """Gradient of scalar f at flat parameter vector x0 by central differences."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += eps
        xm[i] -= eps
        grad[i] = (f(xp) - f(xm)) / (2.0 * eps)
    return grad
