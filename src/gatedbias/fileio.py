"""Atomic file output: every artifact the package writes goes through here.

A file is written to a temporary sibling and moved over its path in one
os.replace, so a reader sees the old file or the new one, never a torn one,
and a write that fails leaves the old file and no temporary behind.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager


@contextmanager
def atomic_write(path: str, mode: str = "w"):
    """Yield a file object opened with mode on a sibling of path; on a clean
    exit it replaces path, on an error it is removed."""
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
