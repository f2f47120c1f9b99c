import dataclasses
import json

import numpy as np
import pytest

from gatedbias.bias_head import (HeadTrainConfig, compute_bias,
                                 compute_bias_patientnode, head_loss_and_grad,
                                 load_head, load_patientnode, new_head, new_patientnode,
                                 patientnode_loss_and_grad, save_head, save_patientnode,
                                 train_head, train_patientnode)
from gatedbias.errors import CheckpointError
from helpers import (central_difference, gates_from_dense, make_features, make_head,
                     random_gates, random_table, store_from_labels)
from oracles import score


def zero_table(n_entities, n_relations=1, dim=4):
    from gatedbias.backbone import EmbeddingTable
    return EmbeddingTable(np.zeros((n_entities, dim), dtype=np.float32),
                          np.zeros((n_relations, dim), dtype=np.float32))


# ---------------------------------------------------------------------------
# compute_bias
# ---------------------------------------------------------------------------

def test_new_head_is_zero_with_unit_gates():
    ga = gates_from_dense(np.ones((3, 4)))
    gb = gates_from_dense(np.ones((3, 2)), group="B")
    head = new_head(ga, gb)
    assert head.w_a.tolist() == [0.0] * 4
    assert head.w_b.tolist() == [0.0] * 2
    assert head.alpha_a == 1.0 and head.alpha_b == 1.0
    assert head.param_count == 4 + 2 + 2


def test_compute_bias_zero_features_is_zero():
    rng = np.random.default_rng(0)
    ga, _ = random_gates(rng, 6, 3)
    gb, _ = random_gates(rng, 6, 2, group="B")
    head = make_head(rng.standard_normal(3), rng.standard_normal(2))
    bias = compute_bias(head, ga, gb, make_features(ga, np.zeros(3)),
                        make_features(gb, np.zeros(2)))
    assert np.all(bias.values == 0.0)


def test_compute_bias_single_entity_hand_value():
    ga = gates_from_dense([[1]])
    gb = gates_from_dense([[0]], group="B")
    head = make_head([2.0], [5.0])
    bias = compute_bias(head, ga, gb, make_features(ga, [0.5]), make_features(gb, [0.9]))
    assert bias.contrib_a.tolist() == [1.0]  # 1 * 2 * 0.5
    assert bias.contrib_b.tolist() == [0.0]  # empty row
    assert bias.values.tolist() == [1.0]


def test_compute_bias_matches_dense_oracle():
    rng = np.random.default_rng(1)
    ga, da = random_gates(rng, 20, 5)
    gb, db = random_gates(rng, 20, 3, group="B")
    head = make_head(rng.standard_normal(5), rng.standard_normal(3),
                     alpha_a=1.7, alpha_b=-0.4)
    f_a = make_features(ga, rng.random(5))
    f_b = make_features(gb, rng.random(3))
    bias = compute_bias(head, ga, gb, f_a, f_b)
    want_a = head.alpha_a * (da @ (head.w_a * f_a))
    want_b = head.alpha_b * (db @ (head.w_b * f_b))
    assert np.allclose(bias.contrib_a, want_a, atol=1e-12)
    assert np.allclose(bias.contrib_b, want_b, atol=1e-12)
    assert np.array_equal(bias.values, bias.contrib_a + bias.contrib_b)


def test_compute_bias_empty_rows_exact_zero():
    dense = np.zeros((5, 3))
    dense[2] = [1, 0, 1]
    ga = gates_from_dense(dense)
    gb = gates_from_dense(np.zeros((5, 2)), group="B")
    head = make_head([0.3, -0.2, 0.9], [1.0, 1.0])
    bias = compute_bias(head, ga, gb, make_features(ga, [0.5, 0.5, 0.5]),
                        make_features(gb, [0.5, 0.5]))
    for t in (0, 1, 3, 4):
        assert bias.values[t] == 0.0


def test_compute_bias_dimension_mismatch_raises():
    ga = gates_from_dense(np.ones((2, 3)))
    gb = gates_from_dense(np.ones((2, 2)), group="B")
    head = make_head(np.zeros(4), np.zeros(2))
    with pytest.raises(ValueError, match="group A"):
        compute_bias(head, ga, gb, make_features(ga, np.zeros(3)),
                     make_features(gb, np.zeros(2)))


def test_compute_bias_scaling_equivariant_in_features():
    rng = np.random.default_rng(2)
    ga, _ = random_gates(rng, 10, 4)
    gb, _ = random_gates(rng, 10, 4, group="B")
    head = make_head(rng.standard_normal(4), rng.standard_normal(4))
    f_a = make_features(ga, rng.random(4))
    f_b = make_features(gb, rng.random(4))
    base = compute_bias(head, ga, gb, f_a, f_b)
    for c in (2.0, 0.5):  # powers of two keep float scaling exact
        boosted = compute_bias(head, ga, gb, f_a * c, f_b)
        assert np.array_equal(boosted.contrib_a, c * base.contrib_a)
        assert np.array_equal(boosted.contrib_b, base.contrib_b)


# ---------------------------------------------------------------------------
# loss and gradients
# ---------------------------------------------------------------------------

def test_head_gradient_hand_value_single_pair():
    # positive tail 0 has the only gate bit, negative tail 1 has none;
    # zero backbone, zero weights: hinge = 1, dL/dw_a[0] = -alpha*f = -0.5
    ga = gates_from_dense([[1], [0]])
    gb = gates_from_dense([[0], [0]], group="B")
    table = zero_table(2)
    head = new_head(ga, gb)
    f_a = make_features(ga, [0.5])
    f_b = make_features(gb, [0.0])
    loss, grads = head_loss_and_grad(
        head, table, ga, gb, f_a, f_b,
        np.array([0]), np.array([0]), np.array([0]), np.array([1]),
        lambda1=0.0, lambda2=0.0)
    assert loss == 1.0
    assert grads.w_a.tolist() == [-0.5]
    assert grads.alpha_a == 0.0  # w is zero, so the alpha gradient vanishes
    assert grads.alpha_b == 0.0
    # one descent step at lr=1 reproduces the hand-computed +0.5
    head.w_a -= 1.0 * grads.w_a
    assert head.w_a.tolist() == [0.5]


def test_head_loss_matches_manual_formula():
    rng = np.random.default_rng(4)
    ga, da = random_gates(rng, 12, 4)
    gb, db = random_gates(rng, 12, 3, group="B")
    table = random_table(rng, 12, 2, 6)
    head = make_head(rng.standard_normal(4), rng.standard_normal(3),
                     alpha_a=0.8, alpha_b=1.3)
    f_a = make_features(ga, rng.random(4))
    f_b = make_features(gb, rng.random(3))
    h = rng.integers(0, 12, size=7)
    r = rng.integers(0, 2, size=7)
    tp = rng.integers(0, 12, size=7)
    tn = rng.integers(0, 12, size=7)
    lam1, lam2 = 3e-3, 2e-3

    loss, _ = head_loss_and_grad(head, table, ga, gb, f_a, f_b, h, r, tp, tn, lam1, lam2)

    bias = (head.alpha_a * (da @ (head.w_a * f_a))
            + head.alpha_b * (db @ (head.w_b * f_b)))
    hinges = []
    for i in range(7):
        sp = score(table, int(h[i]), int(r[i]), int(tp[i])) + bias[tp[i]]
        sn = score(table, int(h[i]), int(r[i]), int(tn[i])) + bias[tn[i]]
        hinges.append(max(0.0, 1.0 - (sp - sn)))
    want = (np.mean(hinges)
            + lam1 * (np.abs(head.w_a).sum() + np.abs(head.w_b).sum())
            + lam2 * (np.square(head.w_a).sum() + np.square(head.w_b).sum()))
    assert np.isclose(loss, want, rtol=1e-12)


def gated_fd_check(rng, lam1, lam2):
    n_e, ua, ub = 10, 4, 3
    ga, _ = random_gates(rng, n_e, ua)
    gb, _ = random_gates(rng, n_e, ub, group="B")
    table = random_table(rng, n_e, 2, 6)
    f_a = make_features(ga, rng.random(ua))
    f_b = make_features(gb, rng.random(ub))
    h = rng.integers(0, n_e, size=6)
    r = rng.integers(0, 2, size=6)
    tp = rng.integers(0, n_e, size=6)
    tn = rng.integers(0, n_e, size=6)
    # parameters away from the L1 kink at 0
    w = np.concatenate([rng.uniform(0.1, 0.5, ua) * rng.choice([-1, 1], ua),
                        rng.uniform(0.1, 0.5, ub) * rng.choice([-1, 1], ub),
                        rng.uniform(0.5, 1.5, 2)])

    def unpack(x):
        return make_head(x[:ua], x[ua:ua + ub], alpha_a=float(x[-2]), alpha_b=float(x[-1]))

    def loss_at(x):
        loss, _ = head_loss_and_grad(unpack(x), table, ga, gb, f_a, f_b,
                                     h, r, tp, tn, lam1, lam2)
        return loss

    loss, grads = head_loss_and_grad(unpack(w), table, ga, gb, f_a, f_b,
                                     h, r, tp, tn, lam1, lam2)
    # skip draws whose hinge sits on its kink (finite differences undefined)
    head = unpack(w)
    bias = compute_bias(head, ga, gb, f_a, f_b)
    margins = (table.score_triples(h, r, tp) + bias.values[tp]
               - table.score_triples(h, r, tn) - bias.values[tn])
    if np.any(np.abs(1.0 - margins) < 1e-3):
        return None
    analytic = np.concatenate([grads.w_a, grads.w_b, [grads.alpha_a, grads.alpha_b]])
    numeric = central_difference(loss_at, w)
    # the loss is piecewise linear/quadratic, so away from kinks the central
    # difference is exact up to rounding; the floor keeps near-zero coordinates
    # above that noise
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_head_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 8:
        err = gated_fd_check(rng, lam1=3e-4, lam2=1e-4)
        if err is None:
            continue
        assert err < 1e-4
        checked += 1


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def small_training_setup(seed=0):
    rng = np.random.default_rng(seed)
    store = store_from_labels([(f"u{i % 3}", "likes", f"b{rng.integers(5)}")
                               for i in range(20)])
    n_e = store.num_entities
    ga, _ = random_gates(rng, n_e, 3)
    gb, _ = random_gates(rng, n_e, 2, group="B")
    table = random_table(rng, n_e, store.num_relations, 6)
    f_a = make_features(ga, rng.random(3))
    f_b = make_features(gb, rng.random(2))
    return store, table, ga, gb, f_a, f_b


def test_train_head_deterministic():
    store, table, ga, gb, f_a, f_b = small_training_setup()
    cfg = HeadTrainConfig(batch_size=8, learning_rate=0.1, epochs=3, seed=7)
    h1 = train_head(store, table, ga, gb, f_a, f_b, cfg)
    h2 = train_head(store, table, ga, gb, f_a, f_b, cfg)
    assert np.array_equal(h1.w_a, h2.w_a)
    assert np.array_equal(h1.w_b, h2.w_b)
    assert h1.alpha_a == h2.alpha_a and h1.alpha_b == h2.alpha_b


def test_train_head_empty_train_raises():
    store, table, ga, gb, f_a, f_b = small_training_setup()
    empty = dataclasses.replace(store, train=np.empty((0, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="empty train"):
        train_head(empty, table, ga, gb, f_a, f_b, HeadTrainConfig(epochs=1))


def test_train_head_never_touches_backbone():
    store, table, ga, gb, f_a, f_b = small_training_setup()
    before = table.checksum()
    train_head(store, table, ga, gb, f_a, f_b,
               HeadTrainConfig(batch_size=8, learning_rate=0.5, epochs=3))
    assert table.checksum() == before


def test_train_head_zero_features_stays_at_init():
    store, table, ga, gb, _, _ = small_training_setup()
    f_a = make_features(ga, np.zeros(3))
    f_b = make_features(gb, np.zeros(2))
    head = train_head(store, table, ga, gb, f_a, f_b,
                      HeadTrainConfig(batch_size=8, learning_rate=0.5, epochs=3,
                                      lambda1=1e-3, lambda2=1e-3))
    # gated-out gradient: w stays at 0 (L1 subgradient at 0 is 0), alphas at 1
    assert np.all(head.w_a == 0.0) and np.all(head.w_b == 0.0)
    assert head.alpha_a == 1.0 and head.alpha_b == 1.0


def test_train_head_l1_shrinkage():
    store, table, ga, gb, f_a, f_b = small_training_setup(seed=1)
    free = train_head(store, table, ga, gb, f_a, f_b,
                      HeadTrainConfig(batch_size=8, learning_rate=0.05, epochs=10,
                                      lambda1=0.0, lambda2=0.0))
    pinned = train_head(store, table, ga, gb, f_a, f_b,
                        HeadTrainConfig(batch_size=8, learning_rate=0.05, epochs=10,
                                        lambda1=1.0, lambda2=0.0))
    free_mag = max(np.abs(free.w_a).max(), np.abs(free.w_b).max())
    pinned_mag = max(np.abs(pinned.w_a).max(), np.abs(pinned.w_b).max())
    assert free_mag > 0
    assert pinned_mag < 0.5 * free_mag


# ---------------------------------------------------------------------------
# PatientNode ablation
# ---------------------------------------------------------------------------

def test_patientnode_zero_output_layer_gives_zero_bias():
    head = new_patientnode(dim=6, hidden=4, seed=0)
    rng = np.random.default_rng(0)
    table = random_table(rng, 9, 1, 6)
    bias = compute_bias_patientnode(head, table)
    assert bias.shape == (9,) and np.all(bias == 0.0)


def test_patientnode_param_count_and_budget():
    head = new_patientnode(dim=32, hidden=16, seed=0)
    assert head.param_count == 32 * 16 + 16 + 16 + 1  # = 545


def test_patientnode_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    n_e, d, hid = 10, 6, 3
    table = random_table(rng, n_e, 2, d)
    h = rng.integers(0, n_e, size=5)
    r = rng.integers(0, 2, size=5)
    tp = rng.integers(0, n_e, size=5)
    tn = rng.integers(0, n_e, size=5)
    sizes = (hid * d, hid, hid, 1)

    def unpack(x):
        from gatedbias.bias_head import PatientNodeHead
        o = np.cumsum((0,) + sizes)
        return PatientNodeHead(w1=x[o[0]:o[1]].reshape(hid, d).copy(),
                               b1=x[o[1]:o[2]].copy(), w2=x[o[2]:o[3]].copy(),
                               b2=float(x[o[3]]))

    def loss_at(x):
        loss, _ = patientnode_loss_and_grad(unpack(x), table, h, r, tp, tn,
                                            lambda1=2e-4, lambda2=1e-4)
        return loss

    checked = 0
    while checked < 5:
        x = rng.uniform(0.1, 0.6, sum(sizes)) * rng.choice([-1, 1], sum(sizes))
        head = unpack(x)
        # keep every ReLU input and hinge margin away from its kink
        ent = table.entity_emb.astype(np.float64)
        z = np.concatenate([ent[tp] @ head.w1.T + head.b1,
                            ent[tn] @ head.w1.T + head.b1], axis=None)
        margins = (table.score_triples(h, r, tp) + head.bias_for(ent[tp])
                   - table.score_triples(h, r, tn) - head.bias_for(ent[tn]))
        if np.any(np.abs(z) < 1e-3) or np.any(np.abs(1.0 - margins) < 1e-3):
            continue
        loss, grads = patientnode_loss_and_grad(head, table, h, r, tp, tn,
                                                lambda1=2e-4, lambda2=1e-4)
        analytic = np.concatenate([grads.w1.ravel(), grads.b1, grads.w2, [grads.b2]])
        numeric = central_difference(loss_at, x)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4
        checked += 1


def test_train_patientnode_deterministic_and_frozen():
    store, table, *_ = small_training_setup(seed=2)
    cfg = HeadTrainConfig(batch_size=8, learning_rate=0.1, epochs=3, seed=1)
    before = table.checksum()
    p1 = train_patientnode(store, table, cfg, hidden=4)
    p2 = train_patientnode(store, table, cfg, hidden=4)
    assert np.array_equal(p1.w1, p2.w1) and np.array_equal(p1.w2, p2.w2)
    assert table.checksum() == before


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def checkpoint_setup(seed):
    rng = np.random.default_rng(seed)
    ga, _ = random_gates(rng, 8, 3)
    gb, _ = random_gates(rng, 8, 2, group="B")
    return ga, gb, random_table(rng, 8, 1, 6)


def test_save_load_head_round_trip(tmp_path):
    ga, gb, table = checkpoint_setup(7)
    rng = np.random.default_rng(7)
    head = make_head(rng.standard_normal(3), rng.standard_normal(2),
                     alpha_a=1.5, alpha_b=0.25)
    cfg = HeadTrainConfig(epochs=2, seed=3)
    path = str(tmp_path / "head.json")
    save_head(head, cfg, table, ga, gb, path)
    loaded = load_head(path, cfg, table, ga, gb)
    assert np.array_equal(loaded.w_a, head.w_a)
    assert np.array_equal(loaded.w_b, head.w_b)
    assert loaded.alpha_a == head.alpha_a and loaded.alpha_b == head.alpha_b


def test_load_head_universe_mismatch_raises(tmp_path):
    ga, gb, table = checkpoint_setup(8)
    path = str(tmp_path / "head.json")
    save_head(make_head(np.zeros(3), np.zeros(2)), HeadTrainConfig(), table, ga, gb, path)
    other = gates_from_dense(np.ones((8, 3)), attrs=np.array([5, 6, 7]))
    with pytest.raises(CheckpointError, match="universe_checksum_a mismatch"):
        load_head(path, HeadTrainConfig(), table, other, gb)


def test_load_head_wrong_kind_raises(tmp_path):
    path = tmp_path / "head.json"
    path.write_text('{"kind": "something-else"}', encoding="utf-8")
    ga, gb, table = checkpoint_setup(0)
    with pytest.raises(CheckpointError, match="not a gatedbias-head checkpoint"):
        load_head(str(path), HeadTrainConfig(), table, ga, gb)


def test_save_load_patientnode_round_trip(tmp_path):
    _, _, table = checkpoint_setup(2)
    head = new_patientnode(dim=6, hidden=4, seed=2)
    head.w2 = np.arange(4, dtype=np.float64)
    head.b2 = -0.5
    cfg = HeadTrainConfig(epochs=1)
    path = str(tmp_path / "pn.json")
    save_patientnode(head, cfg, table, path)
    loaded = load_patientnode(path, cfg, table, hidden=4)
    assert np.array_equal(loaded.w1, head.w1)
    assert np.array_equal(loaded.w2, head.w2)
    assert loaded.b2 == head.b2
    with pytest.raises(CheckpointError, match="patientnode_hidden: 5"):
        load_patientnode(path, cfg, table, hidden=5)
    # a w1 of another width under the right backbone checksum is refused by its dim
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["w1"] = [row + [0.0] for row in payload["w1"]]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    with pytest.raises(CheckpointError, match="checkpoint dim 7 != backbone dim 6"):
        load_patientnode(path, cfg, table, hidden=4)


def save_zero_checkpoint(kind, path, table, ga, gb):
    if kind == "head":
        save_head(new_head(ga, gb), HeadTrainConfig(), table, ga, gb, path)
    else:
        save_patientnode(new_patientnode(6, 4, seed=0), HeadTrainConfig(), table, path)


def load_checkpoint(kind, path, table, ga, gb):
    if kind == "head":
        return load_head(path, HeadTrainConfig(), table, ga, gb)
    return load_patientnode(path, HeadTrainConfig(), table, hidden=4)


@pytest.mark.parametrize("kind,key", [("head", "w_b"), ("patientnode", "w2")])
@pytest.mark.parametrize("fault", ["truncated", "missing key", "no backbone", "other backbone"])
def test_checkpoint_faults_name_the_file(kind, key, fault, tmp_path):
    ga, gb, table = checkpoint_setup(11)
    path = str(tmp_path / f"{kind}.json")
    save_zero_checkpoint(kind, path, table, ga, gb)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    payload = json.loads(text)
    assert payload["backbone_checksum"] == table.checksum()
    if fault == "truncated":
        text = text[:len(text) // 2]
    elif fault in ("missing key", "no backbone"):
        del payload[key if fault == "missing key" else "backbone_checksum"]
        text = json.dumps(payload)
    else:
        table = random_table(np.random.default_rng(12), 8, 1, 6)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(kind, path, table, ga, gb)
    message = str(exc.value)
    assert message.startswith(f"{path}: ")
    if fault == "missing key":
        assert message == f"{path}: missing key '{key}'"
    elif fault == "no backbone":
        assert message == f"{path}: missing key 'backbone_checksum'"
    elif fault == "other backbone":
        assert "backbone_checksum mismatch" in message
