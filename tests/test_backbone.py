import struct

import numpy as np
import pytest

from gatedbias.backbone import (MAGIC, BackboneTrainConfig, EmbeddingTable,
                                load_embeddings, save_embeddings, train_backbone)
from gatedbias.errors import CheckpointError
from gatedbias.evaluator import compute_rank_table, query_set, ranking_metrics
from helpers import random_table, store_from_labels
from oracles import score


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
    data = open(path, "rb").read()
    magic, n_e, n_r, d = struct.unpack_from("<4sQQQ", data)
    assert magic == MAGIC and (n_e, n_r, d) == (1, 1, 2)
    floats = np.frombuffer(data, dtype="<f4", offset=struct.calcsize("<4sQQQ"))
    assert floats.tolist() == [1.5, -2.0, 0.25, 4.0]


def test_load_truncated_file_raises(tmp_path):
    rng = np.random.default_rng(5)
    path = str(tmp_path / "emb.kge")
    save_embeddings(random_table(rng, 4, 2, 4), path)
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-3])
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
