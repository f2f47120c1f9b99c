"""Synthetic dataset generator with a planted personalization signal.

Layout: items belong to round-robin communities; each community has a few hub
entities that "like" all of its items, and every item holds out one community
like edge (planted items also one cross-community edge) to supply valid/test
queries whose answers stay predictable from the remaining edges. A planted
subset of items carries a planted subset of group-A attributes, each planted
item is liked by a fixed number of hubs across community lines (so
planted-attr tails really are likelier positives), and user interaction
histories are skewed toward planted items by `preference_skew`.
At skew 1 the profile features saturate on exactly the planted attribute
columns, so the expected sign of counterfactual and placebo metrics is known
by construction; at skew 0 they saturate uniformly at the cap, making feature
shuffles no-ops. Group-B attributes attach to every entity (items, hubs and
attribute nodes alike) in a balanced round-robin; together with the uniform
like-degrees within each item stratum this keeps per-column group-B
statistics matched between positive and corrupt tails even when weighted by
how often a tail occurs in training, so the only learnable ranking signal
lives in group A.

Byte-deterministic given the seed.
"""

from __future__ import annotations

import os
from dataclasses import asdict

import numpy as np
import yaml

from .config import (N_COMMUNITIES, BackboneTrainConfig, EvalSettings, HeadTrainConfig,
                     ProfileConfig, SynthParams)
from .kg_store import SPLIT_FILES, atomic_write, write_json

REL_LIKES = "likes"
REL_A = "pref_attr_of"
REL_B = "meta_attr_of"

HUBS_PER_COMMUNITY = 3
PLANTED_ITEM_FRAC = 0.3
ATTRS_PER_ITEM_A = 2
ATTRS_PER_ENTITY_B = 3
EXTRA_LIKES_PER_PLANTED_ITEM = 4
INTERACTIONS_PER_USER = 20
TEST_SHARE = 2.0 / 3.0

# a generated dataset's files, relative to its directory: DataConfig's paths, then the manifest
DATA_LAYOUT = {"triples_dir": "triples", "interactions_path": "interactions.tsv",
               "grouping_path": "grouping.yaml"}
MANIFEST = "manifest.json"


def _item(i: int) -> str:
    return f"item_{i}"


def _hub(c: int, j: int) -> str:
    return f"hub_{c}_{j}"


def _attr(group: str, a: int) -> str:
    return f"attr_{group}_{a}"


def save_config(cfg_dict: dict, path: str) -> None:
    """Write a config mapping as YAML (stable key order)."""
    with atomic_write(path) as fh:
        yaml.safe_dump(cfg_dict, fh, sort_keys=True, default_flow_style=False)


def generate(params: SynthParams, out_dir: str) -> dict:
    """Write triples/, interactions.tsv, grouping.yaml, config.yaml and
    manifest.json under out_dir. Returns the manifest. An existing manifest
    is removed first and the new one written last, so a generate that fails
    partway leaves no manifest beside the files it did replace. params are
    trusted to be in range: config.synth_params is where they are checked."""
    manifest_path = os.path.join(out_dir, MANIFEST)
    paths = {field: os.path.join(out_dir, rel) for field, rel in DATA_LAYOUT.items()}
    if os.path.exists(manifest_path):
        os.remove(manifest_path)
    rng = np.random.default_rng(params.seed)
    n_items = params.n_items
    n_attrs = params.n_attrs_per_group

    planted = sorted(rng.choice(
        n_items, size=max(1, round(PLANTED_ITEM_FRAC * n_items)), replace=False).tolist())
    planted_mask = np.zeros(n_items, dtype=bool)
    planted_mask[planted] = True

    # group-A attributes: planted items draw from the planted subset,
    # the rest draw from the background subset
    planted_attrs = np.arange(params.n_planted_attrs)
    background_attrs = np.arange(params.n_planted_attrs, n_attrs)
    attr_a_rows: list[tuple[str, str, str]] = []
    for i in range(n_items):
        pool = planted_attrs if planted_mask[i] else background_attrs
        attrs = np.sort(rng.choice(pool, size=ATTRS_PER_ITEM_A, replace=False))
        attr_a_rows += [(_attr("a", a), REL_A, _item(i)) for a in attrs.tolist()]

    # group-B attributes: round-robin within each entity stratum over a
    # seed-permuted column order, so every column covers an equal (+-1) share
    # of planted items, other items, hubs and attribute nodes. Positive and
    # corrupt tails then see matching group-B statistics column by column and
    # no learnable ranking signal leaks into group B. An entity's slot is its
    # index within its stratum.
    perm_b = rng.permutation(n_attrs).tolist()

    def b_rows(slot: int, tail: str, own: int | None = None) -> list[tuple[str, str, str]]:
        ring = [perm_b[(ATTRS_PER_ENTITY_B * slot + o) % n_attrs]
                for o in range(ATTRS_PER_ENTITY_B + 1)]
        cols = ring[:-1]
        if own in cols:  # no self-loop: the ring's next column is neither own nor in cols
            cols[cols.index(own)] = ring[-1]
        return [(_attr("b", b), REL_B, tail) for b in sorted(cols)]

    item_slot = {int(i): slot for stratum in (planted_mask, ~planted_mask)
                 for slot, i in enumerate(np.flatnonzero(stratum))}
    hubs = [(c, j) for c in range(N_COMMUNITIES) for j in range(HUBS_PER_COMMUNITY)]
    attr_b_rows = [row for i in range(n_items) for row in b_rows(item_slot[i], _item(i))]
    attr_b_rows += [row for slot, (c, j) in enumerate(hubs) for row in b_rows(slot, _hub(c, j))]
    attr_b_rows += [row for a in range(n_attrs) for row in b_rows(a, _attr("a", a))]
    attr_b_rows += [row for b in range(n_attrs) for row in b_rows(b, _attr("b", b), b)]

    # like edges: every hub of a community likes every item in it, and every
    # planted item is additionally liked by a fixed number of hubs from other
    # communities. The extra edges put the planted signal into the graph
    # itself: planted-attr tails are genuinely likelier positives, which is
    # what the head can learn. Assigning exactly the same number of extras to
    # each planted item (round-robin over foreign hubs) keeps like-degrees
    # uniform within the planted stratum, which the group-B balance relies on.
    likes = {(i % N_COMMUNITIES, j, i) for i in range(n_items) for j in range(HUBS_PER_COMMUNITY)}
    extras: dict[int, list[tuple[int, int]]] = {}
    for k, i in enumerate(planted):
        start = EXTRA_LIKES_PER_PLANTED_ITEM * k % len(hubs)
        foreign = [(c, j) for c, j in hubs[start:] + hubs[:start] if c != i % N_COMMUNITIES]
        extras[i] = foreign[:EXTRA_LIKES_PER_PLANTED_ITEM]
        likes.update((c, j, i) for c, j in extras[i])

    def like_row(c: int, j: int, i: int) -> tuple[str, str, str]:
        return _hub(c, j), REL_LIKES, _item(i)

    # every item holds out exactly one community like edge for valid/test, and
    # every planted item additionally holds out one of its cross-community
    # edges. Like-degrees stay uniform within each item stratum (so the
    # group-B balance survives) and roughly half the eval queries have planted
    # answers, the other half answers from the non-planted pool.
    valid_rows: list[tuple[str, str, str]] = []
    test_rows: list[tuple[str, str, str]] = []

    def hold_out(c: int, j: int, i: int) -> None:
        likes.discard((c, j, i))
        (test_rows if rng.random() < TEST_SHARE else valid_rows).append(like_row(c, j, i))

    for i in range(n_items):
        hold_out(i % N_COMMUNITIES, int(rng.integers(HUBS_PER_COMMUNITY)), i)
        if i in extras:
            hold_out(*extras[i][int(rng.integers(len(extras[i])))], i)
    like_rows = [like_row(*edge) for edge in sorted(likes)]

    for split, rows in (("train", like_rows + attr_a_rows + attr_b_rows),
                        ("valid", valid_rows), ("test", test_rows)):
        with atomic_write(os.path.join(paths["triples_dir"], SPLIT_FILES[split])) as fh:
            fh.writelines(f"{h}\t{r}\t{t}\n" for h, r, t in rows)

    # interaction histories: each draw lands on a planted item with
    # probability preference_skew, otherwise on a uniform item
    with atomic_write(paths["interactions_path"]) as fh:
        for u in range(params.n_users):
            for _ in range(INTERACTIONS_PER_USER):
                if rng.random() < params.preference_skew:
                    i = planted[rng.integers(len(planted))]
                else:
                    i = int(rng.integers(n_items))
                fh.write(f"user_{u}\t{_item(i)}\n")

    with atomic_write(paths["grouping_path"]) as fh:
        fh.write(f"group_a: [{REL_A}]\ngroup_b: [{REL_B}]\n")

    # the config's defaults, but trainers sized for these graphs (a few hundred
    # entities): the stock ones target much larger corpora and barely move here
    save_config({
        "data": dict(DATA_LAYOUT),
        "backbone": asdict(BackboneTrainConfig(epochs=400, learning_rate=2.0, margin=0.5)),
        "head": asdict(HeadTrainConfig(batch_size=256, learning_rate=0.3, epochs=60,
                                       lambda1=2.0e-3)),
        "profile": asdict(ProfileConfig()),
        "eval": asdict(EvalSettings()),
        "method": "gatedbias",
    }, os.path.join(out_dir, "config.yaml"))

    manifest = {
        "params": vars(params),
        "relation_groups": {"group_a": [REL_A], "group_b": [REL_B]},
        "planted_attrs": [_attr("a", a) for a in planted_attrs.tolist()],
        "planted_items": [_item(i) for i in planted],
        "counts": {
            "train_likes": len(like_rows),
            "extra_planted_likes": sum(map(len, extras.values())),
            "valid": len(valid_rows),
            "test": len(test_rows),
            "attr_a_triples": len(attr_a_rows),
            "attr_b_triples": len(attr_b_rows),
        },
        "generator": {
            "n_communities": N_COMMUNITIES,
            "hubs_per_community": HUBS_PER_COMMUNITY,
            "planted_item_frac": PLANTED_ITEM_FRAC,
            "attrs_per_item_a": ATTRS_PER_ITEM_A,
            "attrs_per_entity_b": ATTRS_PER_ENTITY_B,
            "extra_likes_per_planted_item": EXTRA_LIKES_PER_PLANTED_ITEM,
            "interactions_per_user": INTERACTIONS_PER_USER,
            "test_share": TEST_SHARE,
        },
    }
    write_json(manifest_path, manifest)
    return manifest
