"""File input and output: every TSV the package reads and every artifact it
writes goes through here.

A TSV is read line by line: blank lines and lines starting with '#' are
skipped, and every other line must hold the file's number of tab-separated
fields. A file is written to a temporary sibling and moved over its path in
one os.replace, so a reader sees the old file or the new one, never a torn
one, and a write that fails leaves the old file and no temporary behind. The
file's directory is created here, right before its first file is written,
so a run refused before it writes anything leaves no directory behind.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager


def read_tsv(path: str, n_fields: int):
    """Yield the fields of each data line of the TSV at path. A line with
    another number of fields raises ValueError naming path:lineno."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != n_fields:
                raise ValueError(f"{path}:{lineno}: expected {n_fields} tab-separated fields, "
                                 f"got {len(fields)}")
            yield fields


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
