"""Triple store, relation grouping, attribute universes and binary gate matrices.

Gates are built from training triples only: the bit pattern of a GateMatrix
never depends on the contents of the valid/test splits.
"""

from __future__ import annotations

import hashlib
import logging
import os
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import ConfigError, TripleParseError

logger = logging.getLogger(__name__)

GROUP_TAGS = ("A", "B")
SPLIT_FILES = {"train": "train.tsv", "valid": "valid.tsv", "test": "test.tsv"}


class Vocab:
    """Bidirectional label <-> dense-id map, ids assigned in first-appearance order."""

    def __init__(self):
        self._label_to_id: dict[str, int] = {}
        self._labels: list[str] = []

    def add(self, label: str) -> int:
        idx = self._label_to_id.get(label)
        if idx is None:
            idx = len(self._labels)
            self._label_to_id[label] = idx
            self._labels.append(label)
        return idx

    def id(self, label: str) -> int:
        return self._label_to_id[label]

    def label(self, idx: int) -> str:
        return self._labels[idx]

    def __contains__(self, label: str) -> bool:
        return label in self._label_to_id

    def __len__(self) -> int:
        return len(self._labels)


@dataclass
class TripleStore:
    """Integer-indexed triples with dense vocabularies and filtered-eval index.

    ``known_tails`` maps (head, relation) to the sorted array of tails seen in
    train or valid; it is what the filtered ranking protocol removes from the
    candidate pool.
    """

    entity_vocab: Vocab
    relation_vocab: Vocab
    train: np.ndarray  # (n, 3) int64 rows of (head, relation, tail)
    valid: np.ndarray
    test: np.ndarray
    known_tails: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    @property
    def num_entities(self) -> int:
        return len(self.entity_vocab)

    @property
    def num_relations(self) -> int:
        return len(self.relation_vocab)

    def split(self, name: str) -> np.ndarray:
        return {"train": self.train, "valid": self.valid, "test": self.test}[name]


def _parse_triple_file(path: str, entity_vocab: Vocab, relation_vocab: Vocab) -> tuple[np.ndarray, int]:
    """Parse one TSV split file. Returns (deduped triples, dedup count)."""
    triples: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    dups = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise TripleParseError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                )
            h = entity_vocab.add(fields[0])
            r = relation_vocab.add(fields[1])
            t = entity_vocab.add(fields[2])
            triple = (h, r, t)
            if triple in seen:
                dups += 1
                continue
            seen.add(triple)
            triples.append(triple)
    arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    return arr, dups


def _build_known_tails(train: np.ndarray, valid: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    grouped: dict[tuple[int, int], set[int]] = {}
    for arr in (train, valid):
        for h, r, t in arr:
            grouped.setdefault((int(h), int(r)), set()).add(int(t))
    return {key: np.array(sorted(tails), dtype=np.int64) for key, tails in grouped.items()}


def load_triples(path: str) -> TripleStore:
    """Load a triple dataset from a directory holding train.tsv and optionally
    valid.tsv and test.tsv.

    Lines starting with '#' are ignored; duplicates within a split are dropped
    with a logged count; a triple appearing in two splits is an error
    (filtered evaluation depends on split disjointness).
    """
    if not os.path.isdir(path):
        if not os.path.exists(path):
            raise FileNotFoundError(path)
        raise ConfigError(f"{path} is not a directory; data.triples_dir must be a directory "
                          f"holding {', '.join(SPLIT_FILES.values())}")
    if not os.path.exists(os.path.join(path, SPLIT_FILES["train"])):
        raise ConfigError(f"missing {SPLIT_FILES['train']} in {path}")
    entity_vocab = Vocab()
    relation_vocab = Vocab()
    splits: dict[str, np.ndarray] = {}
    for name, filename in SPLIT_FILES.items():
        split_path = os.path.join(path, filename)
        if os.path.exists(split_path):
            splits[name], dups = _parse_triple_file(split_path, entity_vocab, relation_vocab)
            if dups:
                logger.warning("%s: dropped %d duplicate triples within the %s split",
                               path, dups, name)
        else:
            splits[name] = np.empty((0, 3), dtype=np.int64)
    if splits["train"].shape[0] == 0:
        raise ConfigError(f"empty train split in {path}")

    as_sets = {name: set(map(tuple, arr.tolist())) for name, arr in splits.items()}
    for a, b in (("train", "valid"), ("train", "test"), ("valid", "test")):
        overlap = as_sets[a] & as_sets[b]
        if overlap:
            sample = sorted(overlap)[0]
            raise ConfigError(
                f"splits {a} and {b} share {len(overlap)} triple(s), e.g. {sample}; "
                "splits must be disjoint"
            )

    return TripleStore(
        entity_vocab=entity_vocab,
        relation_vocab=relation_vocab,
        train=splits["train"],
        valid=splits["valid"],
        test=splits["test"],
        known_tails=_build_known_tails(splits["train"], splits["valid"]),
    )


@dataclass
class RelationGrouping:
    """Assignment of every relation id to group 'A', 'B' or 'none'."""

    groups: dict[int, str]

    def relations_in(self, tag: str) -> list[int]:
        return sorted(r for r, g in self.groups.items() if g == tag)

    def validate_for_personalization(self) -> None:
        for tag in GROUP_TAGS:
            if not self.relations_in(tag):
                raise ConfigError(f"relation group {tag} is empty; personalization needs both groups")


def make_grouping(store: TripleStore, group_a: list[str], group_b: list[str]) -> RelationGrouping:
    """Build a grouping from relation labels. Unlisted relations map to 'none'."""
    both = set(group_a) & set(group_b)
    if both:
        raise ConfigError(f"relations listed in both groups: {sorted(both)}")
    groups = {r: "none" for r in range(store.num_relations)}
    for tag, labels in (("A", group_a), ("B", group_b)):
        for label in labels:
            if label not in store.relation_vocab:
                logger.warning("grouping lists unknown relation %r; ignored", label)
                continue
            groups[store.relation_vocab.id(label)] = tag
    return RelationGrouping(groups=groups)


def load_grouping(path: str, store: TripleStore) -> RelationGrouping:
    """Read a grouping file with keys ``group_a`` and ``group_b`` (lists of relation labels)."""
    with open(path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: grouping file must be a mapping")
    unknown = set(raw) - {"group_a", "group_b"}
    if unknown:
        raise ConfigError(f"{path}: unknown grouping keys {sorted(unknown)}")
    groups = []
    for key in ("group_a", "group_b"):
        labels = [] if raw.get(key) is None else raw[key]
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ConfigError(f"{path}: {key} must be a list of relation labels, got {labels!r}")
        groups.append(labels)
    return make_grouping(store, *groups)


@dataclass
class AttributeUniverse:
    """Ordered attribute columns for one relation group.

    Membership and ordering are determined by train triples only: attrs are
    the head entities of group triples, ordered by descending number of
    distinct connected tails, ties broken by ascending entity id.
    """

    group: str
    attrs: np.ndarray  # entity ids, ordered
    relations: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    index: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.index:
            self.index = {int(e): j for j, e in enumerate(self.attrs)}

    def __len__(self) -> int:
        return len(self.attrs)

    def checksum(self) -> str:
        h = hashlib.sha256()
        h.update(self.group.encode())
        h.update(np.ascontiguousarray(self.attrs, dtype=np.int64).tobytes())
        return h.hexdigest()


def build_universe(
    store: TripleStore,
    grouping: RelationGrouping,
    group: str,
    cap: int | None = None,
) -> AttributeUniverse:
    """Collect the attribute universe of a relation group from train triples.

    With ``cap`` set, only the cap most frequent attributes are kept
    (frequency = number of distinct tails an attribute connects to).
    """
    if group not in GROUP_TAGS:
        raise ValueError(f"group must be one of {GROUP_TAGS}, got {group!r}")
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")

    rel_ids = np.array(grouping.relations_in(group), dtype=np.int64)
    train = store.train
    mask = np.isin(train[:, 1], rel_ids) if len(rel_ids) else np.zeros(len(train), dtype=bool)
    if not mask.any():
        logger.warning("relation group %s has no train triples; universe is empty", group)
        return AttributeUniverse(group=group, attrs=np.empty(0, dtype=np.int64), relations=rel_ids)

    pairs = np.unique(train[mask][:, [0, 2]], axis=0)  # distinct (head, tail)
    heads, freqs = np.unique(pairs[:, 0], return_counts=True)
    order = np.lexsort((heads, -freqs))  # frequency desc, entity id asc
    attrs = heads[order]
    if cap is not None:
        attrs = attrs[:cap]
    return AttributeUniverse(group=group, attrs=attrs.astype(np.int64), relations=rel_ids)


class GateMatrix:
    """Sparse binary |E| x |U_k| matrix in CSR layout (column indices only).

    Row t, indices[indptr[t]:indptr[t + 1]], lists which universe columns
    connect to entity t through a group relation in the training graph.
    """

    def __init__(self, universe: AttributeUniverse, num_entities: int,
                 indptr: np.ndarray, indices: np.ndarray):
        self.universe = universe
        self.num_entities = num_entities
        self.indptr = indptr
        self.indices = indices
        self._row_ids = np.repeat(np.arange(num_entities), np.diff(indptr))

    @property
    def num_columns(self) -> int:
        return len(self.universe)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """G @ v with per-row summation in ascending column order."""
        if v.shape[0] != self.num_columns:
            raise ValueError(f"vector length {v.shape[0]} != universe size {self.num_columns}")
        weights = np.asarray(v, dtype=np.float64)[self.indices]
        return np.bincount(self._row_ids, weights=weights, minlength=self.num_entities)

    def row_counts(self, tails: np.ndarray) -> np.ndarray:
        return self.indptr[tails + 1] - self.indptr[tails]

    def gather_rows(self, tails: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenate the rows of ``tails``; returns (owner positions, column ids)."""
        counts = self.row_counts(tails)
        total = int(counts.sum())
        starts = self.indptr[tails]
        ends = np.cumsum(counts)
        offsets = np.arange(total) - np.repeat(ends - counts, counts)
        flat = np.repeat(starts, counts) + offsets
        owners = np.repeat(np.arange(len(tails)), counts)
        return owners, self.indices[flat]


def build_gates(store: TripleStore, universe: AttributeUniverse) -> GateMatrix:
    """Build the binary gate matrix of a universe from train triples only."""
    nE = store.num_entities
    nU = len(universe)
    if nU == 0:
        indptr = np.zeros(nE + 1, dtype=np.int64)
        return GateMatrix(universe, nE, indptr, np.empty(0, dtype=np.int64))

    train = store.train
    in_universe = np.isin(train[:, 0], universe.attrs)
    if universe.relations.size:
        in_universe &= np.isin(train[:, 1], universe.relations)
    heads = train[in_universe, 0]
    tails = train[in_universe, 2]
    cols = np.array([universe.index[int(h)] for h in heads], dtype=np.int64)

    # distinct (tail, col) pairs, sorted so each row's columns are ascending
    keys = np.unique(tails * np.int64(nU) + cols)
    row_of = keys // nU
    col_of = keys % nU
    indptr = np.zeros(nE + 1, dtype=np.int64)
    np.add.at(indptr, row_of + 1, 1)
    indptr = np.cumsum(indptr)

    # structural invariants: columns in range, rows duplicate-free and ascending
    # (strictly increasing keys encode strictly increasing (row, col) pairs)
    assert col_of.size == 0 or (col_of.min() >= 0 and col_of.max() < nU)
    assert np.all(np.diff(keys) > 0)
    return GateMatrix(universe, nE, indptr, col_of.astype(np.int64))
