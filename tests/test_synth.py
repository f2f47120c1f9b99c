import json
import os
from collections import Counter

import pytest

from gatedbias.config import load_config
from gatedbias.errors import ConfigError
from gatedbias.kg_store import load_grouping, load_triples
from gatedbias.synth import (ATTRS_PER_ENTITY_B, ATTRS_PER_ITEM_A,
                             INTERACTIONS_PER_USER, REL_A, REL_B, REL_LIKES,
                             SynthParams, generate)


@pytest.fixture(scope="module")
def big(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth_big")
    params = SynthParams(n_items=200, n_attrs_per_group=20, n_users=40,
                         preference_skew=1.0, seed=3)
    manifest = generate(params, str(out))
    return str(out), params, manifest


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth_small")
    params = SynthParams(n_items=50, n_attrs_per_group=20, n_users=10,
                         preference_skew=1.0, seed=1)
    manifest = generate(params, str(out))
    return str(out), params, manifest


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t")) for line in fh if line.strip()]


def train_rows(out):
    return read_rows(os.path.join(out, "triples", "train.tsv"))


# ---------------------------------------------------------------------------
# layout, counts, determinism
# ---------------------------------------------------------------------------

def test_layout_and_manifest_counts(big):
    out, params, manifest = big
    for rel in ("triples/train.tsv", "triples/valid.tsv", "triples/test.tsv",
                "interactions.tsv", "grouping.yaml", "config.yaml", "manifest.json"):
        assert os.path.exists(os.path.join(out, rel))

    counts = manifest["counts"]
    train = train_rows(out)
    assert len(train) == (counts["train_likes"] + counts["attr_a_triples"]
                          + counts["attr_b_triples"])
    assert len(read_rows(os.path.join(out, "triples", "valid.tsv"))) == counts["valid"]
    assert len(read_rows(os.path.join(out, "triples", "test.tsv"))) == counts["test"]
    assert len(read_rows(os.path.join(out, "interactions.tsv"))) == (
        params.n_users * INTERACTIONS_PER_USER)

    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        assert json.load(fh) == manifest


def walk_bytes(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_same_seed_same_bytes(tmp_path):
    params = SynthParams(n_items=20, n_attrs_per_group=5, n_users=5, seed=11)
    generate(params, str(tmp_path / "one"))
    generate(SynthParams(n_items=20, n_attrs_per_group=5, n_users=5, seed=11),
             str(tmp_path / "two"))
    left, right = walk_bytes(tmp_path / "one"), walk_bytes(tmp_path / "two")
    assert left.keys() == right.keys()
    for rel in left:
        assert left[rel] == right[rel], rel


def test_different_seed_changes_output(tmp_path):
    generate(SynthParams(n_items=20, n_attrs_per_group=5, n_users=5, seed=0),
             str(tmp_path / "one"))
    generate(SynthParams(n_items=20, n_attrs_per_group=5, n_users=5, seed=1),
             str(tmp_path / "two"))
    left, right = walk_bytes(tmp_path / "one"), walk_bytes(tmp_path / "two")
    assert any(left[rel] != right[rel] for rel in left)


def test_params_validation():
    with pytest.raises(ConfigError, match="n_items"):
        generate(SynthParams(n_items=9), "/tmp/unused")
    with pytest.raises(ConfigError, match="n_attrs_per_group"):
        generate(SynthParams(n_attrs_per_group=4), "/tmp/unused")
    with pytest.raises(ConfigError, match="n_users"):
        generate(SynthParams(n_users=0), "/tmp/unused")
    with pytest.raises(ConfigError, match="preference_skew"):
        generate(SynthParams(preference_skew=1.5), "/tmp/unused")
    with pytest.raises(ConfigError, match="seed"):
        generate(SynthParams(seed=-1), "/tmp/unused")


# ---------------------------------------------------------------------------
# planted structure
# ---------------------------------------------------------------------------

def test_planted_items_carry_only_planted_attrs(big):
    out, _, manifest = big
    planted_items = set(manifest["planted_items"])
    planted_attrs = set(manifest["planted_attrs"])
    per_item = {}
    for h, r, t in train_rows(out):
        if r == REL_A:
            per_item.setdefault(t, set()).add(h)
    for item, attrs in per_item.items():
        assert len(attrs) == ATTRS_PER_ITEM_A
        if item in planted_items:
            assert attrs <= planted_attrs, item
        else:
            assert not (attrs & planted_attrs), item


def like_degrees(out):
    deg = Counter()
    for h, r, t in train_rows(out):
        if r == REL_LIKES:
            deg[t] += 1
    return deg


def test_like_degrees_uniform_within_strata(small):
    out, params, manifest = small
    planted = set(manifest["planted_items"])
    deg = like_degrees(out)
    for i in range(params.n_items):
        item = f"item_{i}"
        # 3 community likes + 4 extras, minus 2 holdouts for planted items;
        # 3 community likes minus 1 holdout for the rest
        assert deg[item] == (5 if item in planted else 2), item


def test_holdout_counts_per_item(small):
    out, params, manifest = small
    planted = set(manifest["planted_items"])
    held = Counter(t for _, _, t in
                   read_rows(os.path.join(out, "triples", "valid.tsv"))
                   + read_rows(os.path.join(out, "triples", "test.tsv")))
    assert sum(held.values()) == params.n_items + len(planted)
    for i in range(params.n_items):
        item = f"item_{i}"
        assert held[item] == (2 if item in planted else 1)


# ---------------------------------------------------------------------------
# group-B balance
# ---------------------------------------------------------------------------

def b_attrs_by_tail(out):
    per_tail = {}
    for h, r, t in train_rows(out):
        if r == REL_B:
            per_tail.setdefault(t, set()).add(h)
    return per_tail

def test_every_entity_has_fixed_b_degree(big):
    out, _, _ = big
    for tail, attrs in b_attrs_by_tail(out).items():
        assert len(attrs) == ATTRS_PER_ENTITY_B, tail


def test_b_columns_balanced_within_strata(small):
    out, params, manifest = small
    planted = set(manifest["planted_items"])
    per_tail = b_attrs_by_tail(out)
    for stratum in (planted, {f"item_{i}" for i in range(params.n_items)} - planted):
        cover = Counter()
        for item in stratum:
            cover.update(per_tail[item])
        counts = [cover[f"attr_b_{a}"] for a in range(params.n_attrs_per_group)]
        assert max(counts) - min(counts) <= 1


def test_b_columns_balanced_under_like_weighting(big):
    # weight each item's group-B columns by its train like-degree; per-column
    # totals must coincide exactly, leaving group B with no ranking signal
    out, params, _ = big
    deg = like_degrees(out)
    per_tail = b_attrs_by_tail(out)
    weighted = Counter()
    for i in range(params.n_items):
        item = f"item_{i}"
        for attr in per_tail[item]:
            weighted[attr] += deg[item]
    totals = {weighted[f"attr_b_{a}"] for a in range(params.n_attrs_per_group)}
    assert len(totals) == 1


# ---------------------------------------------------------------------------
# interactions
# ---------------------------------------------------------------------------

def test_skew_one_interactions_stay_on_planted_items(big):
    out, params, manifest = big
    planted = set(manifest["planted_items"])
    rows = read_rows(os.path.join(out, "interactions.tsv"))
    users = Counter(u for u, _ in rows)
    assert len(users) == params.n_users
    assert set(users.values()) == {INTERACTIONS_PER_USER}
    assert {item for _, item in rows} <= planted


def test_skew_zero_interactions_hit_background(tmp_path):
    manifest = generate(SynthParams(n_items=50, n_users=10, preference_skew=0.0,
                                    seed=0), str(tmp_path))
    planted = set(manifest["planted_items"])
    items = {item for _, item in read_rows(str(tmp_path / "interactions.tsv"))}
    assert items - planted


# ---------------------------------------------------------------------------
# the emitted bundle is directly consumable
# ---------------------------------------------------------------------------

def test_emitted_config_loads_with_resolved_paths(big):
    out, _, _ = big
    cfg = load_config(os.path.join(out, "config.yaml"))
    assert cfg.method == "gatedbias"
    assert cfg.data.triples_dir == os.path.join(out, "triples")
    assert os.path.exists(cfg.data.interactions_path)
    assert os.path.exists(cfg.data.grouping_path)
    assert cfg.eval.seeds == [0, 1, 2]
    assert cfg.backbone.dim == 32
    assert cfg.head.lambda1 == 2.0e-3


def test_emitted_triples_and_grouping_load_cleanly(big):
    out, _, manifest = big
    store = load_triples(os.path.join(out, "triples"))
    counts = manifest["counts"]
    assert store.train.shape[0] == (counts["train_likes"] + counts["attr_a_triples"]
                                    + counts["attr_b_triples"])
    assert store.valid.shape[0] == counts["valid"]
    assert store.test.shape[0] == counts["test"]
    grouping = load_grouping(os.path.join(out, "grouping.yaml"), store)
    assert grouping.groups[store.relation_vocab.id(REL_A)] == "A"
    assert grouping.groups[store.relation_vocab.id(REL_B)] == "B"
    assert grouping.groups[store.relation_vocab.id(REL_LIKES)] == "none"
