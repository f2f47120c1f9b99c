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
from dataclasses import dataclass

import numpy as np
import yaml

from .errors import ConfigError
from .fileio import atomic_write, write_json

REL_LIKES = "likes"
REL_A = "pref_attr_of"
REL_B = "meta_attr_of"

N_COMMUNITIES = 10
HUBS_PER_COMMUNITY = 3
PLANTED_ITEM_FRAC = 0.3
ATTRS_PER_ITEM_A = 2
ATTRS_PER_ENTITY_B = 3
EXTRA_LIKES_PER_PLANTED_ITEM = 4
INTERACTIONS_PER_USER = 20
TEST_SHARE = 2.0 / 3.0


@dataclass
class SynthParams:
    n_items: int = 200
    n_attrs_per_group: int = 20
    n_users: int = 100
    preference_skew: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.n_items < N_COMMUNITIES:
            raise ConfigError(f"synth: n_items must be >= {N_COMMUNITIES}, got {self.n_items}")
        if self.n_attrs_per_group < 5:
            raise ConfigError("synth: n_attrs_per_group must be >= 5")
        if self.n_users < 1:
            raise ConfigError("synth: n_users must be >= 1")
        if not 0.0 <= self.preference_skew <= 1.0:
            raise ConfigError("synth: preference_skew must be in [0, 1]")
        if self.seed < 0:
            raise ConfigError("synth: seed must be an unsigned int")

    @property
    def n_planted_attrs(self) -> int:
        return max(2, self.n_attrs_per_group // 10)


def _item(i: int) -> str:
    return f"item_{i}"


def _hub(c: int, j: int) -> str:
    return f"hub_{c}_{j}"


def _attr(group: str, a: int) -> str:
    return f"attr_{group}_{a}"


# Training settings sized for these graphs (a few hundred entities); the
# stock defaults target much larger corpora and barely move at this scale.
DESK_BACKBONE = {
    "dim": 32,
    "epochs": 400,
    "learning_rate": 2.0,
    "batch_size": 256,
    "negatives_per_positive": 1,
    "margin": 0.5,
    "seed": 0,
}

DESK_HEAD = {
    "batch_size": 256,
    "learning_rate": 0.3,
    "epochs": 60,
    "lambda1": 2.0e-3,
    "lambda2": 1.0e-4,
    "negatives_per_positive": 1,
    "seed": 0,
}


def save_config(cfg_dict: dict, path: str) -> None:
    """Write a config mapping as YAML (stable key order)."""
    with atomic_write(path) as fh:
        yaml.safe_dump(cfg_dict, fh, sort_keys=True, default_flow_style=False)


def generate(params: SynthParams, out_dir: str) -> dict:
    """Write triples/, interactions.tsv, grouping.yaml, config.yaml and
    manifest.json under out_dir. Returns the manifest. An existing manifest
    is removed first and the new one written last, so a generate that fails
    partway leaves no manifest beside the files it did replace."""
    params.validate()
    manifest_path = os.path.join(out_dir, "manifest.json")
    if os.path.exists(manifest_path):
        os.remove(manifest_path)
    rng = np.random.default_rng(params.seed)
    n_items = params.n_items
    n_attrs = params.n_attrs_per_group
    n_planted_attrs = params.n_planted_attrs

    planted_items = np.sort(rng.choice(
        n_items, size=max(1, round(PLANTED_ITEM_FRAC * n_items)), replace=False))
    planted_mask = np.zeros(n_items, dtype=bool)
    planted_mask[planted_items] = True
    planted_attr_ids = np.arange(n_planted_attrs)
    background_attr_ids = np.arange(n_planted_attrs, n_attrs)

    # group-A attributes: planted items draw from the planted subset,
    # the rest draw from the background subset
    attrs_a: list[np.ndarray] = []
    for i in range(n_items):
        pool = planted_attr_ids if planted_mask[i] else background_attr_ids
        take = min(ATTRS_PER_ITEM_A, pool.size)
        attrs_a.append(np.sort(rng.choice(pool, size=take, replace=False)))

    # group-B attributes: round-robin within each entity stratum over a
    # seed-permuted column order, so every column covers an equal (+-1) share
    # of planted items, other items, hubs and attribute nodes. Positive and
    # corrupt tails then see matching group-B statistics column by column and
    # no learnable ranking signal leaks into group B.
    take_b = min(ATTRS_PER_ENTITY_B, n_attrs - 1)
    perm_b = rng.permutation(n_attrs)

    def rr_row(slot: int) -> np.ndarray:
        return np.sort(perm_b[[(take_b * slot + o) % n_attrs for o in range(take_b)]])

    attrs_b = [np.empty(0, dtype=np.int64)] * n_items
    for slot, i in enumerate(np.flatnonzero(planted_mask)):
        attrs_b[int(i)] = rr_row(slot)
    for slot, i in enumerate(np.flatnonzero(~planted_mask)):
        attrs_b[int(i)] = rr_row(slot)
    hub_attrs_b = {}
    for slot, (c, j) in enumerate((c, j) for c in range(N_COMMUNITIES)
                                  for j in range(HUBS_PER_COMMUNITY)):
        hub_attrs_b[(c, j)] = rr_row(slot)
    attra_attrs_b = [rr_row(slot) for slot in range(n_attrs)]
    attrb_attrs_b = []
    for b in range(n_attrs):
        row = rr_row(b)
        if b in row:  # avoid the self-loop; take the next free column instead
            repl = next(int(perm_b[(take_b * b + o) % n_attrs])
                        for o in range(take_b, take_b + n_attrs)
                        if perm_b[(take_b * b + o) % n_attrs] != b
                        and perm_b[(take_b * b + o) % n_attrs] not in row)
            row = np.sort(np.where(row == b, repl, row))
        attrb_attrs_b.append(row)

    # like edges: every hub of a community likes every item in it, and every
    # planted item is additionally liked by a fixed number of hubs from other
    # communities. The extra edges put the planted signal into the graph
    # itself: planted-attr tails are genuinely likelier positives, which is
    # what the head can learn. Assigning exactly the same number of extras to
    # each planted item (round-robin over foreign hubs) keeps like-degrees
    # uniform within the planted stratum, which the group-B balance relies on.
    community = np.arange(n_items) % N_COMMUNITIES
    likes = {(c, j, i)
             for i in range(n_items)
             for c in (int(community[i]),)
             for j in range(HUBS_PER_COMMUNITY)}
    n_hubs = N_COMMUNITIES * HUBS_PER_COMMUNITY
    hub_flat = [(c, j) for c in range(N_COMMUNITIES) for j in range(HUBS_PER_COMMUNITY)]
    extras_by_item: dict[int, list[tuple[int, int]]] = {}
    n_extra = 0
    if N_COMMUNITIES > 1:
        for k, i in enumerate(planted_items):
            got: list[tuple[int, int]] = []
            t = EXTRA_LIKES_PER_PLANTED_ITEM * k
            while len(got) < EXTRA_LIKES_PER_PLANTED_ITEM:
                c, j = hub_flat[t % n_hubs]
                t += 1
                if c == int(community[i]):
                    continue
                likes.add((c, j, int(i)))
                got.append((c, j))
                n_extra += 1
            extras_by_item[int(i)] = got

    # every item holds out exactly one community like edge for valid/test, and
    # every planted item additionally holds out one of its cross-community
    # edges. Like-degrees stay uniform within each item stratum (so the
    # group-B balance survives) and roughly half the eval queries have planted
    # answers, the other half answers from the non-planted pool.
    valid_edges: list[tuple[int, int, int]] = []
    test_edges: list[tuple[int, int, int]] = []

    def hold_out(edge: tuple[int, int, int]) -> None:
        likes.discard(edge)
        if rng.random() < TEST_SHARE:
            test_edges.append(edge)
        else:
            valid_edges.append(edge)

    for i in range(n_items):
        j = int(rng.integers(HUBS_PER_COMMUNITY))
        hold_out((int(community[i]), j, i))
        if i in extras_by_item:
            c, j = extras_by_item[i][int(rng.integers(len(extras_by_item[i])))]
            hold_out((c, j, i))

    def like_line(edge: tuple[int, int, int]) -> str:
        c, j, i = edge
        return f"{_hub(c, j)}\t{REL_LIKES}\t{_item(i)}\n"

    triples_dir = os.path.join(out_dir, "triples")
    with atomic_write(os.path.join(triples_dir, "train.tsv")) as fh:
        for edge in sorted(likes):
            fh.write(like_line(edge))
        for i in range(n_items):
            for a in attrs_a[i]:
                fh.write(f"{_attr('a', int(a))}\t{REL_A}\t{_item(i)}\n")
        for i in range(n_items):
            for b in attrs_b[i]:
                fh.write(f"{_attr('b', int(b))}\t{REL_B}\t{_item(i)}\n")
        for c in range(N_COMMUNITIES):
            for j in range(HUBS_PER_COMMUNITY):
                for b in hub_attrs_b[(c, j)]:
                    fh.write(f"{_attr('b', int(b))}\t{REL_B}\t{_hub(c, j)}\n")
        for a in range(n_attrs):
            for b in attra_attrs_b[a]:
                fh.write(f"{_attr('b', int(b))}\t{REL_B}\t{_attr('a', a)}\n")
        for a in range(n_attrs):
            for b in attrb_attrs_b[a]:
                fh.write(f"{_attr('b', int(b))}\t{REL_B}\t{_attr('b', a)}\n")
    with atomic_write(os.path.join(triples_dir, "valid.tsv")) as fh:
        for edge in valid_edges:
            fh.write(like_line(edge))
    with atomic_write(os.path.join(triples_dir, "test.tsv")) as fh:
        for edge in test_edges:
            fh.write(like_line(edge))

    # interaction histories: each draw lands on a planted item with
    # probability preference_skew, otherwise on a uniform item
    skew = params.preference_skew
    with atomic_write(os.path.join(out_dir, "interactions.tsv")) as fh:
        for u in range(params.n_users):
            for _ in range(INTERACTIONS_PER_USER):
                if rng.random() < skew:
                    i = int(planted_items[rng.integers(planted_items.size)])
                else:
                    i = int(rng.integers(n_items))
                fh.write(f"user_{u}\t{_item(i)}\n")

    with atomic_write(os.path.join(out_dir, "grouping.yaml")) as fh:
        fh.write(f"group_a: [{REL_A}]\ngroup_b: [{REL_B}]\n")

    save_config({
        "data": {
            "triples_dir": "triples",
            "interactions_path": "interactions.tsv",
            "grouping_path": "grouping.yaml",
        },
        "backbone": dict(DESK_BACKBONE),
        "head": dict(DESK_HEAD),
        "profile": {"scale_alpha": 0.1, "cap_tau": 0.5},
        "eval": {"ks": [1, 3, 10], "percentile_p": 70, "epsilon": 0.1,
                 "n_shuffles": 20, "seeds": [0, 1, 2]},
        "method": "gatedbias",
    }, os.path.join(out_dir, "config.yaml"))

    manifest = {
        "params": vars(params),
        "relation_groups": {"group_a": [REL_A], "group_b": [REL_B]},
        "planted_attrs": [_attr("a", int(a)) for a in planted_attr_ids],
        "planted_items": [_item(int(i)) for i in planted_items],
        "counts": {
            "train_likes": len(likes),
            "extra_planted_likes": n_extra,
            "valid": len(valid_edges),
            "test": len(test_edges),
            "attr_a_triples": int(sum(len(a) for a in attrs_a)),
            "attr_b_triples": int(
                sum(len(b) for b in attrs_b)
                + sum(len(b) for b in hub_attrs_b.values())
                + sum(len(b) for b in attra_attrs_b)
                + sum(len(b) for b in attrb_attrs_b)),
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
