"""Storage: the dataset's readers (triple store, relation grouping, user
interaction histories), the gate matrices and profiles built from them, and
the atomic writer that every artifact goes through.

A TSV is read as UTF-8, a leading BOM ignored: blank lines and lines starting
with '#' are skipped, and every other line must hold the file's number of
tab-separated fields. A file is written to a temporary sibling and moved over
its path in one os.replace, so a reader sees the old file or the new one,
never a torn one, and a failed write leaves the old file and no temporary
behind. Its directory is created at its first write, so a run refused before
it writes anything leaves no directory behind.

Gates are built from training triples only: the bit pattern of a GateMatrix
never depends on the contents of the valid/test splits. A profile sums each
user's attribute frequencies p_u(a) in [0, 1] in ascending user order, then
scales and clips the sum into [0, cap_tau].
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import yaml

from .config import ConfigError

logger = logging.getLogger(__name__)

GROUP_TAGS = ("A", "B")
SPLIT_FILES = {"train": "train.tsv", "valid": "valid.tsv", "test": "test.tsv"}


def read_tsv(path: str, n_fields: int):
    """Yield the fields of each data line of the TSV at path. A line with
    another number of fields, or a byte that is not UTF-8, raises ValueError
    naming path:lineno."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) != n_fields:
                    raise ValueError(f"{path}:{lineno}: expected {n_fields} tab-separated fields, "
                                     f"got {len(fields)}")
                yield fields
    except UnicodeDecodeError as exc:  # its position counts within a decode chunk
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
            lineno = next(n for n, line in enumerate(fh, start=1)
                          if re.search("[\udc80-\udcff]", line))
        raise ValueError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from exc


@contextmanager
def atomic_write(path: str, mode: str = "w"):
    """Yield a file object opened with mode on a sibling of path; on a clean
    exit it replaces path, on an error it is removed. Missing parent
    directories are created first."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_json(path: str, payload: dict) -> None:
    """payload as indented, key-sorted JSON with a trailing newline."""
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class TripleStore:
    """Integer-indexed triples with dense vocabularies: label -> id dicts whose
    insertion order is id order."""

    entity_vocab: dict[str, int]
    relation_vocab: dict[str, int]
    train: np.ndarray  # (n, 3) int64 rows of (head, relation, tail)
    valid: np.ndarray
    test: np.ndarray

    @property
    def num_entities(self) -> int:
        return len(self.entity_vocab)

    @property
    def num_relations(self) -> int:
        return len(self.relation_vocab)

    def split(self, name: str) -> np.ndarray:
        return {"train": self.train, "valid": self.valid, "test": self.test}[name]


def _parse_triple_file(path: str, entity_vocab: dict[str, int], relation_vocab: dict[str, int]
                       ) -> tuple[dict[tuple[int, int, int], None], int]:
    """Parse one TSV split file, giving each new label the next id. Returns
    its distinct triples, in order of first appearance, as the keys of a
    dict, and the count of duplicates."""
    rows = [(entity_vocab.setdefault(h, len(entity_vocab)),
             relation_vocab.setdefault(r, len(relation_vocab)),
             entity_vocab.setdefault(t, len(entity_vocab))) for h, r, t in read_tsv(path, 3)]
    triples = dict.fromkeys(rows)
    return triples, len(rows) - len(triples)


def load_triples(path: str) -> TripleStore:
    """Load a triple dataset from a directory holding train.tsv and optionally
    valid.tsv and test.tsv.

    Blank lines and lines starting with '#' are skipped; duplicates within a
    split are dropped with a logged count; a triple appearing in two splits
    is an error (filtered evaluation depends on split disjointness).
    """
    if not os.path.isdir(path):
        holding = f"data.triples_dir must be a directory holding {', '.join(SPLIT_FILES.values())}"
        if not os.path.exists(path):
            raise FileNotFoundError(f"{path} does not exist; {holding}")
        raise ConfigError(f"{path} is not a directory; {holding}")
    if not os.path.exists(os.path.join(path, SPLIT_FILES["train"])):
        raise ConfigError(f"missing {SPLIT_FILES['train']} in {path}")
    entity_vocab: dict[str, int] = {}
    relation_vocab: dict[str, int] = {}
    distinct: dict[str, dict[tuple[int, int, int], None]] = {}
    for name, filename in SPLIT_FILES.items():
        split_path = os.path.join(path, filename)
        if os.path.exists(split_path):
            distinct[name], dups = _parse_triple_file(split_path, entity_vocab, relation_vocab)
            if dups:
                logger.warning("%s: dropped %d duplicate triples within the %s split",
                               path, dups, name)
        else:
            distinct[name] = {}
    if not distinct["train"]:
        raise ConfigError(f"empty train split in {path}")

    for a, b in (("train", "valid"), ("train", "test"), ("valid", "test")):
        overlap = distinct[a].keys() & distinct[b].keys()
        if overlap:
            h, r, t = sorted(overlap)[0]
            entities, relations = list(entity_vocab), list(relation_vocab)  # labels by id
            sample = (entities[h], relations[r], entities[t])
            raise ConfigError(
                f"splits {a} and {b} share {len(overlap)} triple(s), e.g. {sample}; "
                "splits must be disjoint"
            )

    splits = {name: np.asarray(list(triples), dtype=np.int64).reshape(-1, 3)
              for name, triples in distinct.items()}
    return TripleStore(entity_vocab=entity_vocab, relation_vocab=relation_vocab, **splits)


def make_grouping(store: TripleStore, group_a: list[str], group_b: list[str]
                  ) -> dict[str, list[int]]:
    """The sorted relation ids of each tag of GROUP_TAGS, from relation
    labels, and under 'none' those of every unlisted relation."""
    both = set(group_a) & set(group_b)
    if both:
        raise ConfigError(f"relations listed in both groups: {sorted(both)}")
    tag_of = {}
    for tag, labels in zip(GROUP_TAGS, (group_a, group_b)):
        for label in labels:
            if label not in store.relation_vocab:
                logger.warning("grouping lists unknown relation %r; ignored", label)
                continue
            tag_of[store.relation_vocab[label]] = tag
    return {tag: [r for r in range(store.num_relations) if tag_of.get(r, "none") == tag]
            for tag in (*GROUP_TAGS, "none")}


def load_grouping(path: str, store: TripleStore) -> dict[str, list[int]]:
    """make_grouping of a file whose keys ``group_a`` and ``group_b`` list relation labels."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
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


def load_interactions(path: str, store: TripleStore) -> list[np.ndarray]:
    """Read a user\\titem TSV into each user's sorted item ids, users in
    ascending order; repeated pairs collapse, unknown items are dropped. A
    log with no known item at all is refused: it would train a head on no
    profile."""
    raw: dict[str, set[int]] = {}
    unknown = 0
    for user, item in read_tsv(path, 2):
        if item not in store.entity_vocab:
            unknown += 1
            continue
        raw.setdefault(user, set()).add(store.entity_vocab[item])
    if not raw:
        raise ConfigError(f"{path}: no interaction names an item of the graph "
                          f"({unknown} lines with unknown items)")
    if unknown:
        logger.warning("%s: dropped %d interactions with unknown items", path, unknown)
    return [np.array(sorted(raw[user]), dtype=np.int64) for user in sorted(raw)]


def build_universe(
    store: TripleStore,
    grouping: dict[str, list[int]],
    group: str,
    cap: int | None = None,
) -> np.ndarray:
    """The attribute universe of a relation group from train triples: the
    entity ids heading its triples, ordered by descending number of distinct
    connected tails, ties broken by ascending entity id.

    With ``cap`` set, only the cap most frequent attributes are kept.
    """
    if group not in GROUP_TAGS:
        raise ValueError(f"group must be one of {GROUP_TAGS}, got {group!r}")

    group_triples = store.train[np.isin(store.train[:, 1], grouping[group])]
    if not len(group_triples):
        logger.warning("relation group %s has no train triples; universe is empty", group)
    n_e = store.num_entities
    indptr, _ = pair_csr(group_triples[:, 0], group_triples[:, 2], n_e, n_e)
    freqs = np.diff(indptr)  # distinct tails per head
    attrs = np.argsort(-freqs, kind="stable")[:np.count_nonzero(freqs)]  # ties: lower id first
    return attrs[:cap]


def pair_csr(rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (row, col) pairs as a CSR: row i's columns, ascending, are
    indices[indptr[i]:indptr[i + 1]], and indptr has n_rows + 1 entries.

    The pairs are sorted as int64 codes row * n_cols + col, repeated codes
    dropped, and each row's start found by one searchsorted. Every code stays
    below 2**63 for any store that can be loaded: the largest is |E|**2, or
    n_keys * n_queries.
    """
    codes = np.sort(np.asarray(rows, dtype=np.int64) * n_cols + cols)
    codes = codes[np.diff(codes, prepend=-1) > 0]
    row_of, indices = np.divmod(codes, n_cols)
    return np.searchsorted(row_of, np.arange(n_rows + 1)), indices


class GateMatrix:
    """Sparse binary |E| x |U_k| matrix in CSR layout (column indices only).

    Column j is attrs[j], the j-th attribute of relation group ``group``'s
    universe. Row t, indices[indptr[t]:indptr[t + 1]], lists which columns
    connect to entity t through a group relation in the training graph.
    """

    def __init__(self, group: str, attrs: np.ndarray, indptr: np.ndarray, indices: np.ndarray):
        self.group = group
        self.attrs = attrs
        self.num_entities = len(indptr) - 1
        self.indptr = indptr
        self.indices = indices
        self._row_ids = np.repeat(np.arange(self.num_entities), np.diff(indptr))

    @property
    def num_columns(self) -> int:
        return len(self.attrs)

    def checksum(self) -> str:
        """sha256 of the group tag, then the universe attrs as int64."""
        h = hashlib.sha256()
        h.update(self.group.encode())
        h.update(np.ascontiguousarray(self.attrs, dtype=np.int64).tobytes())
        return h.hexdigest()

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """G @ v with per-row summation in ascending column order."""
        if v.shape[0] != self.num_columns:
            raise ValueError(f"vector length {v.shape[0]} != universe size {self.num_columns}")
        weights = np.asarray(v, dtype=np.float64)[self.indices]
        return np.bincount(self._row_ids, weights=weights, minlength=self.num_entities)

    def gather_rows(self, tails: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenate the rows of ``tails``; returns (owner positions, column ids)."""
        starts = self.indptr[tails]
        counts = self.indptr[tails + 1] - starts
        firsts = np.cumsum(counts) - counts  # where each row begins in the output
        cells = np.repeat(starts - firsts, counts) + np.arange(counts.sum())
        owners = np.repeat(np.arange(len(tails)), counts)
        return owners, self.indices[cells]


def build_gates(store: TripleStore, grouping: dict[str, list[int]], group: str,
                attrs: np.ndarray) -> GateMatrix:
    """Build the binary gate matrix of a group's universe attrs from train triples only."""
    nE = store.num_entities
    nU = len(attrs)
    train = store.train
    in_universe = np.isin(train[:, 0], attrs) & np.isin(train[:, 1], grouping[group])
    column = np.zeros(nE, dtype=np.int64)  # entity id -> universe column
    column[attrs] = np.arange(nU)
    indptr, indices = pair_csr(train[in_universe, 2], column[train[in_universe, 0]], nE, nU)
    return GateMatrix(group, attrs, indptr, indices)


def build_profile(histories: list[np.ndarray], gates: GateMatrix, scale_alpha: float,
                  cap_tau: float) -> np.ndarray:
    """The feature vector f_k of one relation group: each history's attribute
    frequencies p_u(a) = |{items with a}| / |items|, summed in order into w,
    then f[j] = clip(scale_alpha * w[j], 0, cap_tau). A per-user profile is
    a call with that user's history alone."""
    total = np.zeros(gates.num_columns, dtype=np.float64)
    for items in histories:
        _, cols = gates.gather_rows(items)
        counts = np.bincount(cols, minlength=gates.num_columns).astype(np.float64)
        total += counts / len(items)
    if not np.all(np.isfinite(total)):
        raise ValueError("aggregated weights contain non-finite values")
    return np.clip(scale_alpha * total, 0.0, cap_tau)
