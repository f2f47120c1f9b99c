import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gatedbias import backbone, bias_head
from gatedbias.backbone import BackboneTrainConfig, EmbeddingTable, train_backbone
from gatedbias.bias_head import (HeadTrainConfig, compute_bias,
                                 compute_bias_patientnode, head_loss_and_grad,
                                 load_head, load_patientnode, new_head, new_patientnode,
                                 param_count, patientnode_loss_and_grad, save_head,
                                 save_patientnode, train_head, train_patientnode)
from gatedbias.config import CheckpointError, load_config
from gatedbias.kg_store import (GROUP_TAGS, build_gates, build_profile, build_universe,
                                load_grouping, load_interactions, load_triples)
from gatedbias.pipeline import task_train_store
from gatedbias.synth import SynthParams, generate
from helpers import (central_difference, gates_from_dense, make_features, make_head,
                     random_gates, random_store, random_table, store_from_labels)
from oracles import score


def zero_table(n_entities, n_relations=1, dim=4):
    return EmbeddingTable(np.zeros((n_entities + n_relations, dim), dtype=np.float32),
                          n_entities)


# ---------------------------------------------------------------------------
# compute_bias
# ---------------------------------------------------------------------------

def test_new_head_is_zero_with_unit_gates():
    ga = gates_from_dense(np.ones((3, 4)))
    gb = gates_from_dense(np.ones((3, 2)), group="B")
    head = new_head((ga, gb))
    assert head.w_a.tolist() == [0.0] * 4
    assert head.w_b.tolist() == [0.0] * 2
    assert head.alpha_a == 1.0 and head.alpha_b == 1.0
    assert param_count(head) == 4 + 2 + 2


def test_compute_bias_zero_features_is_zero():
    rng = np.random.default_rng(0)
    ga, _ = random_gates(rng, 6, 3)
    gb, _ = random_gates(rng, 6, 2, group="B")
    head = make_head(rng.standard_normal(3), rng.standard_normal(2))
    contrib = compute_bias(head, (ga, gb), (make_features(ga, np.zeros(3)),
                                            make_features(gb, np.zeros(2))))
    assert np.all(contrib[0] + contrib[1] == 0.0)


def test_compute_bias_single_entity_hand_value():
    ga = gates_from_dense([[1]])
    gb = gates_from_dense([[0]], group="B")
    head = make_head([2.0], [5.0])
    contrib = compute_bias(head, (ga, gb), (make_features(ga, [0.5]), make_features(gb, [0.9])))
    assert contrib[0].tolist() == [1.0]  # 1 * 2 * 0.5
    assert contrib[1].tolist() == [0.0]  # empty row
    assert (contrib[0] + contrib[1]).tolist() == [1.0]


def test_compute_bias_matches_dense_oracle():
    rng = np.random.default_rng(1)
    ga, da = random_gates(rng, 20, 5)
    gb, db = random_gates(rng, 20, 3, group="B")
    head = make_head(rng.standard_normal(5), rng.standard_normal(3),
                     alpha_a=1.7, alpha_b=-0.4)
    f_a = make_features(ga, rng.random(5))
    f_b = make_features(gb, rng.random(3))
    contrib = compute_bias(head, (ga, gb), (f_a, f_b))
    want_a = head.alpha_a * (da @ (head.w_a * f_a))
    want_b = head.alpha_b * (db @ (head.w_b * f_b))
    # one row per group, in GROUP_TAGS order
    assert contrib.shape == (2, 20) and contrib.dtype == np.float64
    assert np.allclose(contrib[0], want_a, atol=1e-12)
    assert np.allclose(contrib[1], want_b, atol=1e-12)


def test_compute_bias_empty_rows_exact_zero():
    dense = np.zeros((5, 3))
    dense[2] = [1, 0, 1]
    ga = gates_from_dense(dense)
    gb = gates_from_dense(np.zeros((5, 2)), group="B")
    head = make_head([0.3, -0.2, 0.9], [1.0, 1.0])
    contrib = compute_bias(head, (ga, gb), (make_features(ga, [0.5, 0.5, 0.5]),
                                            make_features(gb, [0.5, 0.5])))
    for t in (0, 1, 3, 4):
        assert contrib[0, t] + contrib[1, t] == 0.0


def test_compute_bias_dimension_mismatch_raises():
    ga = gates_from_dense(np.ones((2, 3)))
    gb = gates_from_dense(np.ones((2, 2)), group="B")
    head = make_head(np.zeros(4), np.zeros(2))
    with pytest.raises(ValueError, match="group A"):
        compute_bias(head, (ga, gb), (make_features(ga, np.zeros(3)),
                                      make_features(gb, np.zeros(2))))
    # the one check names whichever group disagrees: here B's features
    head = make_head(np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError, match="^group B dimensions disagree"):
        compute_bias(head, (ga, gb), (make_features(ga, np.zeros(3)), np.zeros(5)))


def test_compute_bias_scaling_equivariant_in_features():
    rng = np.random.default_rng(2)
    ga, _ = random_gates(rng, 10, 4)
    gb, _ = random_gates(rng, 10, 4, group="B")
    head = make_head(rng.standard_normal(4), rng.standard_normal(4))
    f_a = make_features(ga, rng.random(4))
    f_b = make_features(gb, rng.random(4))
    base = compute_bias(head, (ga, gb), (f_a, f_b))
    for c in (2.0, 0.5):  # powers of two keep float scaling exact
        boosted = compute_bias(head, (ga, gb), (f_a * c, f_b))
        assert np.array_equal(boosted[0], c * base[0])
        assert np.array_equal(boosted[1], base[1])


# ---------------------------------------------------------------------------
# loss and gradients
# ---------------------------------------------------------------------------

def test_head_gradient_hand_value_single_pair():
    # positive tail 0 has the only gate bit, negative tail 1 has none;
    # zero backbone, zero weights: hinge = 1, dL/dw_a[0] = -alpha*f = -0.5
    ga = gates_from_dense([[1], [0]])
    gb = gates_from_dense([[0], [0]], group="B")
    table = zero_table(2)
    head = new_head((ga, gb))
    f_a = make_features(ga, [0.5])
    f_b = make_features(gb, [0.0])
    loss, grads = head_loss_and_grad(
        head, table, (ga, gb), (f_a, f_b),
        np.array([[2], [0], [0], [1]]),  # relation 0 is table row 2
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
    ids = np.stack([table.num_entities + r, h, tp, tn])  # table rows
    lam1, lam2 = 3e-3, 2e-3

    loss, _ = head_loss_and_grad(head, table, (ga, gb), (f_a, f_b), ids,
                                 lam1, lam2)

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
    ids = np.stack([table.num_entities + r, h, tp, tn])  # table rows
    # parameters away from the L1 kink at 0
    w = np.concatenate([rng.uniform(0.1, 0.5, ua) * rng.choice([-1, 1], ua),
                        rng.uniform(0.1, 0.5, ub) * rng.choice([-1, 1], ub),
                        rng.uniform(0.5, 1.5, 2)])

    def unpack(x):
        return make_head(x[:ua], x[ua:ua + ub], alpha_a=float(x[-2]), alpha_b=float(x[-1]))

    def loss_at(x):
        loss, _ = head_loss_and_grad(unpack(x), table, (ga, gb), (f_a, f_b),
                                     ids, lam1, lam2)
        return loss

    loss, grads = head_loss_and_grad(unpack(w), table, (ga, gb), (f_a, f_b),
                                     ids, lam1, lam2)
    # skip draws whose hinge sits on its kink (finite differences undefined)
    head = unpack(w)
    bias = np.add(*compute_bias(head, (ga, gb), (f_a, f_b)))
    margins = (oracles.score_triples(table, h, r, tp) + bias[tp]
               - oracles.score_triples(table, h, r, tn) - bias[tn])
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
    return store, table, (ga, gb), (f_a, f_b)


def test_train_head_deterministic():
    store, table, (ga, gb), (f_a, f_b) = small_training_setup()
    cfg = HeadTrainConfig(batch_size=8, learning_rate=0.1, epochs=3, seed=7)
    h1 = train_head(store, table, (ga, gb), (f_a, f_b), cfg)
    h2 = train_head(store, table, (ga, gb), (f_a, f_b), cfg)
    assert np.array_equal(h1.w_a, h2.w_a)
    assert np.array_equal(h1.w_b, h2.w_b)
    assert h1.alpha_a == h2.alpha_a and h1.alpha_b == h2.alpha_b


def test_train_head_empty_train_raises():
    store, table, (ga, gb), (f_a, f_b) = small_training_setup()
    empty = dataclasses.replace(store, train=np.empty((0, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="empty train"):
        train_head(empty, table, (ga, gb), (f_a, f_b), HeadTrainConfig(epochs=1))


def test_train_heads_one_entity_store_raises():
    store = store_from_labels([("a", "r", "a")])
    ga = gates_from_dense(np.ones((1, 2)))
    gb = gates_from_dense(np.ones((1, 2)), group="B")
    table, cfg = zero_table(1), HeadTrainConfig(epochs=1)
    with pytest.raises(ValueError, match="head: corrupt tails need at least two entities"):
        train_head(store, table, (ga, gb), (make_features(ga, np.ones(2)),
                                            make_features(gb, np.ones(2))), cfg)
    with pytest.raises(ValueError, match="patientnode: corrupt tails need at least two"):
        train_patientnode(store, table, cfg, hidden=4)


def test_train_head_never_touches_backbone():
    store, table, (ga, gb), (f_a, f_b) = small_training_setup()
    before = table.checksum()
    train_head(store, table, (ga, gb), (f_a, f_b),
               HeadTrainConfig(batch_size=8, learning_rate=0.5, epochs=3))
    assert table.checksum() == before


def test_train_head_zero_features_stays_at_init():
    store, table, (ga, gb), _ = small_training_setup()
    f_a = make_features(ga, np.zeros(3))
    f_b = make_features(gb, np.zeros(2))
    head = train_head(store, table, (ga, gb), (f_a, f_b),
                      HeadTrainConfig(batch_size=8, learning_rate=0.5, epochs=3,
                                      lambda1=1e-3, lambda2=1e-3))
    # gated-out gradient: w stays at 0 (L1 subgradient at 0 is 0), alphas at 1
    assert np.all(head.w_a == 0.0) and np.all(head.w_b == 0.0)
    assert head.alpha_a == 1.0 and head.alpha_b == 1.0


def test_train_head_l1_shrinkage():
    store, table, (ga, gb), (f_a, f_b) = small_training_setup(seed=1)
    free = train_head(store, table, (ga, gb), (f_a, f_b),
                      HeadTrainConfig(batch_size=8, learning_rate=0.05, epochs=10,
                                      lambda1=0.0, lambda2=0.0))
    pinned = train_head(store, table, (ga, gb), (f_a, f_b),
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
    assert param_count(head) == 32 * 16 + 16 + 16 + 1  # = 545


def test_patientnode_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    n_e, d, hid = 10, 6, 3
    table = random_table(rng, n_e, 2, d)
    h = rng.integers(0, n_e, size=5)
    r = rng.integers(0, 2, size=5)
    tp = rng.integers(0, n_e, size=5)
    tn = rng.integers(0, n_e, size=5)
    ids = np.stack([table.num_entities + r, h, tp, tn])  # table rows
    sizes = (hid * d, hid, hid, 1)

    def unpack(x):
        from gatedbias.bias_head import PatientNodeHead
        o = np.cumsum((0,) + sizes)
        return PatientNodeHead(w1=x[o[0]:o[1]].reshape(hid, d).copy(),
                               b1=x[o[1]:o[2]].copy(), w2=x[o[2]:o[3]].copy(),
                               b2=float(x[o[3]]))

    def loss_at(x):
        loss, _ = patientnode_loss_and_grad(unpack(x), table, ids)
        return loss

    checked = 0
    while checked < 5:
        x = rng.uniform(0.1, 0.6, sum(sizes)) * rng.choice([-1, 1], sum(sizes))
        head = unpack(x)
        # keep every ReLU input and hinge margin away from its kink
        ent = table.rows64[:table.num_entities]
        z = np.concatenate([ent[tp] @ head.w1.T + head.b1,
                            ent[tn] @ head.w1.T + head.b1], axis=None)
        bias = compute_bias_patientnode(head, table)
        margins = (oracles.score_triples(table, h, r, tp) + bias[tp]
                   - oracles.score_triples(table, h, r, tn) - bias[tn])
        if np.any(np.abs(z) < 1e-3) or np.any(np.abs(1.0 - margins) < 1e-3):
            continue
        loss, grads = patientnode_loss_and_grad(head, table, ids)
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
# trainers against the per-batch oracles
# ---------------------------------------------------------------------------

def same_head(got, want) -> bool:
    return all(np.asarray(getattr(got, f.name)).tobytes()
               == np.asarray(getattr(want, f.name)).tobytes()
               for f in dataclasses.fields(want))


# 1, a size that leaves a short last batch for most draws, and one past the split
BATCH_SIZES = {"one": 1, "ragged": 7, "over": 4096}


@pytest.mark.parametrize("batch", sorted(BATCH_SIZES))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), hub=st.booleans(), n_entities=st.integers(2, 12),
       n_relations=st.integers(1, 3), n_train=st.integers(1, 30), npp=st.integers(1, 3),
       dim=st.integers(1, 8), epochs=st.integers(1, 3),
       density=st.sampled_from([0.0, 0.3, 1.0]), scale=st.sampled_from([1.0, 30.0]))
def test_trainers_match_the_oracles(batch, seed, hub, n_entities, n_relations, n_train, npp,
                                    dim, epochs, density, scale):
    # density 0 leaves every gate row empty; scale 30 spreads the score
    # margins, so many one-pair batches have no active pair
    rng = np.random.default_rng(seed)
    store = random_store(rng, n_entities, n_relations, n_train, 0)
    if hub:  # entity 0 fills most tails: repeated gate rows within a gather
        train = store.train.copy()
        train[rng.random(n_train) < 0.8, 2] = 0
        store = dataclasses.replace(store, train=train)
    ga, _ = random_gates(rng, n_entities, 4, density)
    gb, _ = random_gates(rng, n_entities, 3, density, group="B")
    f_a, f_b = make_features(ga, rng.random(4)), make_features(gb, rng.random(3))
    base = random_table(rng, n_entities, n_relations, dim)
    emb = base.rows64.copy()
    emb[:n_entities] *= np.float32(scale)
    table = EmbeddingTable(emb, n_entities)
    cfg = HeadTrainConfig(batch_size=BATCH_SIZES[batch], learning_rate=0.3, epochs=epochs,
                          lambda1=2e-3, lambda2=1e-4, negatives_per_positive=npp, seed=seed)
    assert same_head(train_head(store, table, (ga, gb), (f_a, f_b), cfg),
                     oracles.train_head(store, table, (ga, gb), (f_a, f_b), cfg))
    hidden = 1 + seed % 5
    assert same_head(train_patientnode(store, table, cfg, hidden),
                     oracles.train_patientnode(store, table, cfg, hidden))


def test_trainers_match_the_oracles_without_active_pairs():
    # every positive outscores every negative by more than the margin: no
    # batch has an active pair, so both heads stay at their init
    store = store_from_labels([(f"u{i % 4}", "likes", "b0") for i in range(12)])
    b0 = store.entity_vocab["b0"]
    emb = np.ones((store.num_entities + 1, 4), dtype=np.float32)
    emb[b0] = 10.0
    table = EmbeddingTable(emb, store.num_entities)
    ga = gates_from_dense(np.eye(store.num_entities, 3))
    gb = gates_from_dense(np.zeros((store.num_entities, 2)), group="B")
    f_a, f_b = make_features(ga, [0.5, 1.0, 2.0]), make_features(gb, [1.0, 1.0])
    cfg = HeadTrainConfig(batch_size=5, learning_rate=0.5, epochs=3, lambda1=1e-2,
                          lambda2=1e-2, seed=3)
    zero = new_head((ga, gb))
    assert same_head(train_head(store, table, (ga, gb), (f_a, f_b), cfg), zero)
    assert same_head(oracles.train_head(store, table, (ga, gb), (f_a, f_b), cfg), zero)
    init = new_patientnode(4, 3, cfg.seed)
    assert same_head(train_patientnode(store, table, cfg, hidden=3), init)
    assert same_head(oracles.train_patientnode(store, table, cfg, hidden=3), init)


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """The heads' inputs at synth 200 items, seed 0: the task store (batches
    of 256 pairs end on a ragged one), gates and profiles as the pipeline
    builds them, and a briefly trained dim-32 backbone."""
    out = tmp_path_factory.mktemp("synth200")
    generate(SynthParams(n_items=200), str(out))
    cfg = load_config(str(out / "config.yaml"))
    store = load_triples(cfg.data.triples_dir)
    grouping = load_grouping(cfg.data.grouping_path, store)
    gates = tuple(build_gates(store, grouping, g, build_universe(store, grouping, g))
                  for g in GROUP_TAGS)
    histories = load_interactions(cfg.data.interactions_path, store)
    features = tuple(build_profile(histories, g, cfg.profile.scale_alpha, cfg.profile.cap_tau)
                     for g in gates)
    table = train_backbone(store, dataclasses.replace(cfg.backbone, epochs=20))
    return task_train_store(store, grouping), table, gates, features, cfg.head


@pytest.mark.parametrize("npp", [1, 3])
def test_trainers_match_the_oracles_at_desk_shape(desk, npp):
    store, table, gates, features, head_cfg = desk
    assert head_cfg.batch_size == 256 and store.train.shape[0] % 256 != 0
    cfg = dataclasses.replace(head_cfg, epochs=4, negatives_per_positive=npp)
    assert same_head(train_head(store, table, gates, features, cfg),
                     oracles.train_head(store, table, gates, features, cfg))
    assert same_head(train_patientnode(store, table, cfg, hidden=16),
                     oracles.train_patientnode(store, table, cfg, hidden=16))


def test_backbone_batches_count_triples_and_head_batches_count_pairs(monkeypatch):
    # 50 train triples at npp 2 are 100 pairs an epoch. The backbone's batch of
    # 16 triples is 32 pairs: 4 batches an epoch; a head's batch of 16 pairs:
    # 7 batches an epoch
    rng = np.random.default_rng(0)
    store = random_store(rng, 20, 2, 50, 0)
    ga, _ = random_gates(rng, 20, 3)
    gb, _ = random_gates(rng, 20, 2, group="B")
    features = (make_features(ga, rng.random(3)), make_features(gb, rng.random(2)))
    pairs = {"backbone": [], "head": [], "patientnode": []}

    def counted(module, name, what, ids_at):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            pairs[what].append(args[ids_at].shape[1])
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(backbone, "score_pairs", "backbone", 1)
    counted(bias_head, "head_loss_and_grad", "head", 4)
    counted(bias_head, "patientnode_loss_and_grad", "patientnode", 2)
    table = train_backbone(store, BackboneTrainConfig(dim=4, epochs=3, batch_size=16,
                                                      negatives_per_positive=2))
    cfg = HeadTrainConfig(batch_size=16, epochs=3, negatives_per_positive=2)
    train_head(store, table, (ga, gb), features, cfg)
    train_patientnode(store, table, cfg, hidden=4)
    assert pairs["backbone"] == [32, 32, 32, 4] * 3  # 12 batches
    assert pairs["head"] == pairs["patientnode"] == ([16] * 6 + [4]) * 3  # 21 batches


def test_head_workspaces_are_sized_to_the_epochs_pairs():
    # a 4096-pair batch over 20 train pairs: the workspace holds 20 pairs,
    # not 4096, so the trainers' peak stays below the rows of a 4096-pair one
    store, table, (ga, gb), (f_a, f_b) = small_training_setup()
    cfg = HeadTrainConfig(batch_size=4096, learning_rate=0.1, epochs=2)
    full_rows = 4 * 4096 * table.dim * 8
    for train in (lambda: train_head(store, table, (ga, gb), (f_a, f_b), cfg),
                  lambda: train_patientnode(store, table, cfg, hidden=16)):
        tracemalloc.start()
        try:
            train()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full_rows


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

SHAPED_BY = "head.patientnode_hidden and the backbone dim give"


def checkpoint_setup(seed):
    rng = np.random.default_rng(seed)
    ga, _ = random_gates(rng, 8, 3)
    gb, _ = random_gates(rng, 8, 2, group="B")
    return (ga, gb), random_table(rng, 8, 1, 6)


def test_save_load_head_round_trip(tmp_path):
    gates, table = checkpoint_setup(7)
    rng = np.random.default_rng(7)
    head = make_head(rng.standard_normal(3), rng.standard_normal(2),
                     alpha_a=1.5, alpha_b=0.25)
    cfg = HeadTrainConfig(epochs=2, seed=3)
    path = str(tmp_path / "head.json")
    save_head(head, cfg, table, gates, path)
    loaded = load_head(path, cfg, table, gates)
    assert np.array_equal(loaded.w_a, head.w_a)
    assert np.array_equal(loaded.w_b, head.w_b)
    assert loaded.alpha_a == head.alpha_a and loaded.alpha_b == head.alpha_b


def test_load_head_universe_mismatch_raises(tmp_path):
    gates, table = checkpoint_setup(8)
    path = str(tmp_path / "head.json")
    save_head(make_head(np.zeros(3), np.zeros(2)), HeadTrainConfig(), table, gates, path)
    other = gates_from_dense(np.ones((8, 3)), attrs=np.array([5, 6, 7]))
    with pytest.raises(CheckpointError, match="universe_checksum_a mismatch"):
        load_head(path, HeadTrainConfig(), table, (other, gates[1]))


def test_load_head_wrong_kind_raises(tmp_path):
    path = tmp_path / "head.json"
    path.write_text('{"kind": "something-else"}', encoding="utf-8")
    gates, table = checkpoint_setup(0)
    with pytest.raises(CheckpointError, match="not a gatedbias-head checkpoint"):
        load_head(str(path), HeadTrainConfig(), table, gates)


def test_save_load_patientnode_round_trip(tmp_path):
    _, table = checkpoint_setup(2)
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
    with pytest.raises(CheckpointError, match=rf"w1 has shape \(4, 6\); {SHAPED_BY} \(5, 6\)"):
        load_patientnode(path, cfg, table, hidden=5)
    # a w1 of another width under the right backbone checksum is refused by its dim
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["w1"] = [row + [0.0] for row in payload["w1"]]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    with pytest.raises(CheckpointError, match=rf"w1 has shape \(4, 7\); {SHAPED_BY} \(4, 6\)"):
        load_patientnode(path, cfg, table, hidden=4)


def save_zero_checkpoint(kind, path, table, gates):
    if kind == "head":
        save_head(new_head(gates), HeadTrainConfig(), table, gates, path)
    else:
        save_patientnode(new_patientnode(6, 4, seed=0), HeadTrainConfig(), table, path)


def load_checkpoint(kind, path, table, gates):
    if kind == "head":
        return load_head(path, HeadTrainConfig(), table, gates)
    return load_patientnode(path, HeadTrainConfig(), table, hidden=4)


@pytest.mark.parametrize("kind,key", [("head", "w_b"), ("patientnode", "w2")])
@pytest.mark.parametrize("fault", ["truncated", "missing key", "no backbone", "other backbone"])
def test_checkpoint_faults_name_the_file(kind, key, fault, tmp_path):
    gates, table = checkpoint_setup(11)
    path = str(tmp_path / f"{kind}.json")
    save_zero_checkpoint(kind, path, table, gates)
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
        load_checkpoint(kind, path, table, gates)
    message = str(exc.value)
    assert message.startswith(f"{path}: ")
    if fault == "missing key":
        assert message == f"{path}: missing key '{key}'"
    elif fault == "no backbone":
        assert message == f"{path}: missing key 'backbone_checksum'"
    elif fault == "other backbone":
        assert "backbone_checksum mismatch" in message


@pytest.mark.parametrize("kind", ["head", "patientnode"])
def test_checkpoint_not_utf8_names_the_file(kind, tmp_path):
    gates, table = checkpoint_setup(11)
    path = str(tmp_path / f"{kind}.json")
    save_zero_checkpoint(kind, path, table, gates)
    with open(path, "ab") as fh:
        fh.write(b"\xff")
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(kind, path, table, gates)
    assert str(exc.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff ")


@pytest.mark.parametrize("kind,key,value,fragment", [
    ("patientnode", "b1", [0.0], f"b1 has shape (1,); {SHAPED_BY} (4,)"),
    ("patientnode", "w1", [[0.0] * 6] * 3, f"w1 has shape (3, 6); {SHAPED_BY} (4, 6)"),
    ("patientnode", "w2", [[0.0]] * 4, f"w2 has shape (4, 1); {SHAPED_BY} (4,)"),
    ("patientnode", "w1", [[0.0] * 6] * 3 + [[0.0] * 5], "w1 is not a numeric array"),
    ("patientnode", "w2", ["x"] * 4, "w2 is not a numeric array"),
    ("patientnode", "b1", [0.0, None, 0.0, 0.0], "b1 holds non-finite values"),
    ("patientnode", "b2", [0.0], "b2 must be a number, got [0.0]"),
    ("head", "alpha_a", [1.0], "alpha_a must be a number, got [1.0]"),
    ("head", "alpha_b", "1.0", 'alpha_b must be a number, got "1.0"'),
    ("head", "alpha_b", True, "alpha_b must be a number, got true"),
    ("head", "alpha_a", float("inf"), "alpha_a holds non-finite values"),
    ("head", "w_a", [0.0, 0.0], "w_a has shape (2,); the attribute universes give (3,)"),
    ("head", "w_b", 0.0, "w_b has shape (); the attribute universes give (2,)"),
], ids=["b1-cut", "w1-short", "w2-2d", "w1-ragged", "w2-strings", "b1-null", "b2-list",
        "alpha_a-list", "alpha_b-string", "alpha_b-bool", "alpha_a-inf", "w_a-short",
        "w_b-scalar"])
def test_checkpoint_field_of_another_shape_or_type_raises(kind, key, value, fragment,
                                                          tmp_path):
    gates, table = checkpoint_setup(13)
    path = str(tmp_path / f"{kind}.json")
    save_zero_checkpoint(kind, path, table, gates)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload[key] = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(kind, path, table, gates)
    assert str(exc.value) == f"{path}: {fragment}"


@pytest.mark.parametrize("kind", ["head", "patientnode"])
@pytest.mark.parametrize("value", [[1], "x", None], ids=["list", "string", "null"])
def test_checkpoint_train_config_not_a_mapping_names_the_file(kind, value, tmp_path):
    gates, table = checkpoint_setup(14)
    path = str(tmp_path / f"{kind}.json")
    save_zero_checkpoint(kind, path, table, gates)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["train_config"] = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(kind, path, table, gates)
    assert str(exc.value) == f"{path}: train_config must be a mapping"
