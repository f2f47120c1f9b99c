"""Output checks: run-invariant digests of an op's outputs and an independent
filtered-rank oracle that reads the KGE1 checkpoint with plain numpy."""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np

KGE1_HEADER = struct.Struct("<4sQQQ")


def _normalized_json(path: str) -> bytes:
    """The JSON minus what legitimately differs between identical runs:
    the timestamp and the path-valued config.data.* and config.backbone.load."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop("timestamp", None)
    config = doc.get("config")
    if config is not None:
        config["data"] = {k: v for k, v in config.get("data", {}).items() if not isinstance(v, str)}
        config.get("backbone", {}).pop("load", None)
    return json.dumps(doc, sort_keys=True).encode()


def output_digest(root: str, files: list[str]) -> str:
    """sha256 over the named output files under root, JSON files normalized."""
    h = hashlib.sha256()
    for rel in files:
        path = os.path.join(root, rel)
        if rel.endswith(".json"):
            data = _normalized_json(path)
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        h.update(rel.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
    return h.hexdigest()


def tree_digest(root: str) -> str:
    """output_digest over every file under root."""
    files = [os.path.relpath(os.path.join(d, f), root)
             for d, _, names in os.walk(root) for f in names]
    return output_digest(root, sorted(files))


def _read_split(path: str, entities: dict, relations: dict) -> list[tuple[int, int, int]]:
    """Triples of one TSV split as ids; ids go to labels in order of first
    appearance over train, valid, test (head before tail), duplicates dropped."""
    out, seen = [], set()
    if not os.path.exists(path):
        return out
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            h, r, t = line.split("\t")
            triple = (entities.setdefault(h, len(entities)),
                      relations.setdefault(r, len(relations)),
                      entities.setdefault(t, len(entities)))
            if triple not in seen:
                seen.add(triple)
                out.append(triple)
    return out


def _read_kge1(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "rb") as fh:
        data = fh.read()
    magic, n_ent, n_rel, dim = KGE1_HEADER.unpack_from(data)
    if magic != b"KGE1" or len(data) != KGE1_HEADER.size + 4 * dim * (n_ent + n_rel):
        raise ValueError(f"{path}: not a KGE1 checkpoint")
    floats = np.frombuffer(data, dtype="<f4", offset=KGE1_HEADER.size)
    ent = floats[: n_ent * dim].reshape(n_ent, dim).astype(np.float64)
    rel = floats[n_ent * dim:].reshape(n_rel, dim).astype(np.float64)
    return ent, rel


def oracle_ranks(triples_dir: str, kge_path: str) -> list[tuple[str, str, str, int]]:
    """(head, relation, true_tail, filtered rank) per test query, test order.

    DistMult scores every tail; known train+valid tails other than the true
    one are dropped; ties go to the middle of the tied block, rounded down.
    """
    entities: dict[str, int] = {}
    relations: dict[str, int] = {}
    train = _read_split(os.path.join(triples_dir, "train.tsv"), entities, relations)
    valid = _read_split(os.path.join(triples_dir, "valid.tsv"), entities, relations)
    test = _read_split(os.path.join(triples_dir, "test.tsv"), entities, relations)
    ent, rel = _read_kge1(kge_path)
    if ent.shape[0] != len(entities) or rel.shape[0] != len(relations):
        raise ValueError(f"{kge_path}: shape does not match the triple vocabulary")
    known: dict[tuple[int, int], list[int]] = {}
    for h, r, t in train + valid:
        known.setdefault((h, r), []).append(t)
    ent_label = list(entities)
    rel_label = list(relations)
    out = []
    for h, r, t in test:
        scores = ent @ (ent[h] * rel[r])
        keep = np.ones(len(entities), dtype=bool)
        keep[known.get((h, r), [])] = False
        keep[t] = True
        kept = scores[keep]
        greater = int((kept > scores[t]).sum())
        ties = int((kept == scores[t]).sum()) - 1
        out.append((ent_label[h], rel_label[r], ent_label[t], 1 + greater + ties // 2))
    return out


def check_ranks_tsv(ranks_path: str, expected: list[tuple[str, str, str, int]]) -> list[str]:
    """Mismatches between ranks.tsv and the oracle; every seed block must match."""
    with open(ranks_path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh][1:]
    if not expected or len(rows) % len(expected):
        return [f"ranks.tsv has {len(rows)} rows for {len(expected)} test queries"]
    problems = []
    for i, row in enumerate(rows):
        got = (row[1], row[2], row[3], int(row[4]))
        if got != expected[i % len(expected)]:
            problems.append(f"ranks.tsv row {i + 1}: {got} != oracle {expected[i % len(expected)]}")
    return problems
