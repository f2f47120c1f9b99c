import dataclasses
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedbias.backbone import (MAGIC, BackboneTrainConfig, EmbeddingTable, _train_float64,
                                corrupt_pairs, load_embeddings, save_embeddings,
                                train_backbone)
from gatedbias.errors import CheckpointError
from gatedbias.evaluator import compute_rank_table, query_set, ranking_metrics
from gatedbias.kg_store import load_triples
from gatedbias.synth import SynthParams, generate
from helpers import random_store, random_table, store_from_labels
from oracles import corrupt_pairs as oracle_corrupt_pairs
from oracles import score
from oracles import train_backbone as oracle_train_backbone


def table_from(ent, rel):
    return EmbeddingTable(np.asarray(ent, dtype=np.float32), np.asarray(rel, dtype=np.float32))


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def test_score_hand_arithmetic():
    table = table_from([[1, 2], [2, 1]], [[3, 1]])
    assert score(table, 0, 0, 1) == 1 * 3 * 2 + 2 * 1 * 1  # = 8


def test_score_orthogonal_product_is_zero():
    table = table_from([[1, 0], [0, 1]], [[1, 1]])
    assert score(table, 0, 0, 1) == 0.0


def test_score_distmult_symmetry():
    rng = np.random.default_rng(0)
    table = random_table(rng, 12, 3, 8)
    for h, r, t in rng.integers(0, [12, 3, 12], size=(30, 3)):
        assert score(table, int(h), int(r), int(t)) == score(table, int(t), int(r), int(h))


def test_score_all_tails_matches_per_triple():
    rng = np.random.default_rng(1)
    table = random_table(rng, 20, 4, 16)
    for h in range(3):
        for r in range(4):
            vec = table.score_all_tails(h, r)
            assert vec.shape == (20,)
            per = np.array([score(table, h, r, t) for t in range(20)])
            assert np.allclose(vec, per, rtol=1e-9, atol=0)


def test_score_all_tails_zero_relation():
    table = table_from(np.ones((5, 4)), np.zeros((1, 4)))
    assert np.all(table.score_all_tails(0, 0) == 0.0)


def test_score_triples_matches_score():
    rng = np.random.default_rng(2)
    table = random_table(rng, 10, 2, 8)
    h = rng.integers(0, 10, size=6)
    r = rng.integers(0, 2, size=6)
    t = rng.integers(0, 10, size=6)
    batch = table.score_triples(h, r, t)
    for i in range(6):
        assert np.isclose(batch[i], score(table, int(h[i]), int(r[i]), int(t[i])),
                          rtol=1e-12)


# ---------------------------------------------------------------------------
# table construction and read-only storage
# ---------------------------------------------------------------------------

def test_table_shape_and_finite_validation():
    with pytest.raises(ValueError, match="2-d"):
        EmbeddingTable(np.zeros(4, dtype=np.float32), np.zeros((1, 4), dtype=np.float32))
    with pytest.raises(ValueError, match="dim"):
        EmbeddingTable(np.zeros((2, 4), dtype=np.float32), np.zeros((1, 3), dtype=np.float32))
    bad = np.zeros((2, 4), dtype=np.float32)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        EmbeddingTable(bad, np.zeros((1, 4), dtype=np.float32))


def test_frozen_table_rejects_writes(tmp_path):
    direct = table_from(np.zeros((2, 4)), np.zeros((1, 4)))
    trained = train_backbone(chain_store(), BackboneTrainConfig(dim=4, epochs=1))
    path = str(tmp_path / "emb.kge")
    save_embeddings(direct, path)
    for table in (direct, trained, load_embeddings(path)):
        for emb in (table.entity_emb, table.relation_emb):
            with pytest.raises(ValueError, match="read-only"):
                emb[0, 0] = 1.0


def test_checksum_distinguishes_tables():
    a = table_from(np.zeros((2, 4)), np.zeros((1, 4)))
    b = table_from(np.ones((2, 4)), np.zeros((1, 4)))
    assert a.checksum() != b.checksum()
    assert a.checksum() == table_from(np.zeros((2, 4)), np.zeros((1, 4))).checksum()


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def chain_store():
    triples = [(f"e{i}", "next", f"e{i+1}") for i in range(9)]
    return store_from_labels(triples)


def test_train_deterministic():
    store = chain_store()
    cfg = BackboneTrainConfig(dim=8, epochs=20, learning_rate=0.5, batch_size=4, seed=5)
    t1 = train_backbone(store, cfg)
    t2 = train_backbone(store, cfg)
    assert np.array_equal(t1.entity_emb, t2.entity_emb)
    assert np.array_equal(t1.relation_emb, t2.relation_emb)
    assert t1.checksum() == t2.checksum()


def test_train_epochs_zero_returns_seeded_init():
    store = chain_store()
    cfg = BackboneTrainConfig(dim=8, epochs=0, seed=9)
    table = train_backbone(store, cfg)
    rng = np.random.default_rng(9)
    bound = 0.5 / np.sqrt(8)
    expected_ent = rng.uniform(-bound, bound, size=(store.num_entities, 8))
    expected_rel = rng.uniform(-bound, bound, size=(store.num_relations, 8))
    assert np.array_equal(table.entity_emb, expected_ent.astype(np.float32))
    assert np.array_equal(table.relation_emb, expected_rel.astype(np.float32))


def test_train_empty_store_raises():
    store = chain_store()
    store.train = np.empty((0, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="empty train"):
        train_backbone(store, BackboneTrainConfig(epochs=1))


def test_train_one_entity_store_raises():
    store = store_from_labels([("a", "r", "a")])
    with pytest.raises(ValueError, match="at least two entities"):
        train_backbone(store, BackboneTrainConfig(epochs=1))


@pytest.mark.parametrize("npp", [1, 2, 3])
def test_corrupt_pairs_match_the_oracle_draw(npp):
    # 37 train triples: prime, so every batch size but 1 and 37 leaves a short batch
    rng = np.random.default_rng(npp)
    store = random_store(rng, 9, 3, 37, 0)
    got = [(epoch, ids.copy()) for epoch, ids in
           corrupt_pairs(store, 4, npp, np.random.default_rng(5), "backbone")]
    want = oracle_corrupt_pairs(store, 4, npp, np.random.default_rng(5))
    assert [epoch for epoch, _ in got] == [0, 1, 2, 3]
    for (_, ids), expected in zip(got, want, strict=True):
        assert ids.shape == (4, 37 * npp) and np.array_equal(ids, expected)
        r, h, t_pos, t_neg = ids
        assert np.all(t_neg != t_pos)
        assert r.min() >= 0 and r.max() < store.num_relations
        for e in (h, t_pos, t_neg):
            assert e.min() >= 0 and e.max() < store.num_entities


@pytest.mark.parametrize("what", ["backbone", "head", "patientnode"])
def test_corrupt_pairs_refuse_untrainable_stores(what):
    empty = dataclasses.replace(chain_store(), train=np.empty((0, 3), dtype=np.int64))
    one = store_from_labels([("a", "r", "a")])
    for store, message in (
            (empty, f"cannot train {what} on an empty train split"),
            (one, f"cannot train {what}: corrupt tails need at least two entities; "
                  "the store has 1")):
        pairs = corrupt_pairs(store, 0, 1, np.random.default_rng(0), what)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            next(pairs)
    # the first next() checks, so a backbone of zero epochs refuses them too
    with pytest.raises(ValueError, match="empty train"):
        train_backbone(empty, BackboneTrainConfig(epochs=0))
    with pytest.raises(ValueError, match="at least two entities"):
        train_backbone(one, BackboneTrainConfig(epochs=0))


@pytest.mark.parametrize("batch", ["one", "ragged", "over"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), hub=st.booleans(), n_entities=st.integers(2, 12),
       n_relations=st.integers(1, 4), n_train=st.integers(3, 40), npp=st.integers(1, 3),
       dim=st.integers(1, 8), epochs=st.integers(1, 3),
       margin=st.sampled_from([-1.0, 0.0, 0.02, 1.0]),
       learning_rate=st.sampled_from([0.05, 0.5]))
def test_train_matches_oracle(batch, seed, hub, n_entities, n_relations, n_train, npp, dim,
                              epochs, margin, learning_rate):
    rng = np.random.default_rng(seed)
    store = random_store(rng, n_entities, n_relations, n_train, 0)
    if hub:  # entity 0 fills most heads and tails: many repeated rows per scatter
        train = store.train.copy()
        for col in (0, 2):
            train[rng.random(n_train) < 0.8, col] = 0
        store = dataclasses.replace(store, train=train)
    # 1, a size that leaves a short last batch, and one past the split
    size = {"one": 1, "ragged": n_train - 1, "over": n_train + 5}[batch]
    cfg = BackboneTrainConfig(dim=dim, epochs=epochs, learning_rate=learning_rate,
                              batch_size=size, negatives_per_positive=npp, margin=margin,
                              seed=seed)
    ent, rel = oracle_train_backbone(store, cfg)
    lib_ent, lib_rel = _train_float64(store, cfg)
    assert lib_ent.tobytes() == ent.tobytes() and lib_rel.tobytes() == rel.tobytes()
    assert train_backbone(store, cfg).checksum() == table_from(ent, rel).checksum()


def test_integer_draws_split_equal_one_draw():
    # _train_float64 draws an epoch's negatives in one call where the oracle
    # draws them batch by batch. Odd sizes leave an unused high half of a
    # 64-bit word, which the next call must start on.
    sizes = (1, 7, 255, 3)
    for m in (2, 7, 1069, 2**31 + 5):
        for seed in (0, 1, 17):
            split_rng, whole_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            split_rng.permutation(101)
            whole_rng.permutation(101)
            split = np.concatenate([split_rng.integers(0, m, size=k) for k in sizes])
            whole = whole_rng.integers(0, m, size=sum(sizes))
            after = [rng.permutation(101) for rng in (split_rng, whole_rng)]
            assert np.array_equal(split, whole) and np.array_equal(*after), (
                f"numpy {np.__version__} no longer draws Generator.integers(0, m, size=k) "
                "from 32-bit halves of the stream with an unused half carried into the "
                "next call, so that calls of sizes k1, k2, ... equal one call of their sum "
                "and leave the same state; _train_float64 assumes it "
                f"(m {m}, seed {seed})")


@pytest.fixture(scope="module")
def desk_store(tmp_path_factory):
    """Synth at 200 items, seed 0: 270 entities and 1,790 train triples, so
    batches of 256 end on a ragged one of 254."""
    out = tmp_path_factory.mktemp("synth200")
    generate(SynthParams(n_items=200), str(out))
    return load_triples(str(out / "triples"))


@pytest.mark.parametrize("npp", [1, 3])
def test_train_matches_oracle_at_desk_shape(desk_store, npp):
    cfg = BackboneTrainConfig(dim=32, epochs=3, learning_rate=2.0, batch_size=256,
                              negatives_per_positive=npp, margin=0.5, seed=0)
    ent, rel = oracle_train_backbone(desk_store, cfg)
    lib_ent, lib_rel = _train_float64(desk_store, cfg)
    assert lib_ent.tobytes() == ent.tobytes() and lib_rel.tobytes() == rel.tobytes()


@pytest.mark.parametrize("npp", [1, 3])
def test_train_diverges_at_the_oracle_epoch(desk_store, npp):
    cfg = BackboneTrainConfig(dim=32, epochs=3, learning_rate=1000.0, batch_size=256,
                              negatives_per_positive=npp, margin=1.0, seed=0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError, match="at epoch 1$") as want:
        oracle_train_backbone(desk_store, cfg)
    with pytest.raises(FloatingPointError, match=f"^{re.escape(str(want.value))}$"):
        _train_float64(desk_store, cfg)


def test_train_easy_graph_beats_random_baseline():
    # 10 cliques of 5 entities; one within-clique edge per clique held out.
    # the held-out tail is predictable from the remaining clique edges
    rng = np.random.default_rng(0)
    train, test = [], []
    for g in range(10):
        members = [f"e{g}_{i}" for i in range(5)]
        pairs = [(a, "linked", b) for a in members for b in members if a != b]
        held = rng.integers(len(pairs))
        for i, p in enumerate(pairs):
            (test if i == held else train).append(p)
    store = store_from_labels(train, test=test)
    assert store.num_entities == 50

    cfg = BackboneTrainConfig(dim=16, epochs=200, learning_rate=1.0,
                              batch_size=128, margin=1.0, seed=0)
    table = train_backbone(store, cfg)
    queries = query_set(store)
    trained = ranking_metrics(compute_rank_table(queries, table)[0], [1])["mrr"]

    baseline_table = train_backbone(store, BackboneTrainConfig(dim=16, epochs=0, seed=0))
    baseline = ranking_metrics(compute_rank_table(queries, baseline_table)[0], [1])["mrr"]

    assert trained >= 0.5
    assert trained > 3 * baseline


# ---------------------------------------------------------------------------
# save / load
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    table = random_table(rng, 7, 3, 6)
    path = str(tmp_path / "emb.kge")
    save_embeddings(table, path)
    loaded = load_embeddings(path, expected_entities=7, expected_relations=3)
    assert np.array_equal(loaded.entity_emb, table.entity_emb)
    assert np.array_equal(loaded.relation_emb, table.relation_emb)
    assert loaded.checksum() == table.checksum()


def test_embedding_file_layout(tmp_path):
    table = table_from([[1.5, -2.0]], [[0.25, 4.0]])
    path = str(tmp_path / "emb.kge")
    save_embeddings(table, path)
    with open(path, "rb") as f:
        data = f.read()
    magic, n_e, n_r, d = struct.unpack_from("<4sQQQ", data)
    assert magic == MAGIC and (n_e, n_r, d) == (1, 1, 2)
    floats = np.frombuffer(data, dtype="<f4", offset=struct.calcsize("<4sQQQ"))
    assert floats.tolist() == [1.5, -2.0, 0.25, 4.0]


def test_load_truncated_file_raises(tmp_path):
    rng = np.random.default_rng(5)
    path = str(tmp_path / "emb.kge")
    save_embeddings(random_table(rng, 4, 2, 4), path)
    with open(path, "rb") as f:
        data = f.read()
    with open(path, "wb") as f:
        f.write(data[:-3])
    with pytest.raises(CheckpointError, match="bytes"):
        load_embeddings(path)


def test_load_bad_magic_raises(tmp_path):
    path = tmp_path / "emb.kge"
    path.write_bytes(b"NOPE" + b"\x00" * 24)
    with pytest.raises(CheckpointError, match="magic"):
        load_embeddings(str(path))


def test_load_zero_dim_header_raises(tmp_path):
    path = tmp_path / "emb.kge"
    path.write_bytes(struct.pack("<4sQQQ", MAGIC, 1, 1, 0))
    with pytest.raises(CheckpointError, match="invalid header"):
        load_embeddings(str(path))


def test_load_vocab_mismatch_raises(tmp_path):
    rng = np.random.default_rng(6)
    path = str(tmp_path / "emb.kge")
    save_embeddings(random_table(rng, 4, 2, 4), path)
    with pytest.raises(CheckpointError, match="entities"):
        load_embeddings(path, expected_entities=5)
    with pytest.raises(CheckpointError, match="relations"):
        load_embeddings(path, expected_relations=3)
