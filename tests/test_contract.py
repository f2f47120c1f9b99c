"""The result contract, pinned: a tiny `compare` must write the same bytes as
the commit its digest was recorded at.

The digest covers compare.tsv, each method's ranks.tsv, backbone.kge, the
head and patientnode checkpoints, and compare.json and each report.json with
`timestamp` dropped and the paths under the output directory made relative.
A refactor that changes one bit of a score, a trained weight or a report
value fails here. Every synth alignment_p_value sits at the floor
1 / (10,000 + 1), so the digest cannot see a changed sign stream; a tiny
`run` on preference-free data pins a p-value off the floor. The arithmetic
is numpy's and BLAS's, so both tests skip when either differs from the
versions the pins were recorded with.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from gatedbias.config import METHODS, config_from_dict
from gatedbias.pipeline import run_compare, run_pipeline

RECORDED_NUMPY = "2.4.6"
RECORDED_BLAS = "scipy-openblas 0.3.31.188.0"
DIGEST = "c1aac2ba008beeadb1ef850f3e80040704925b56f6259aad102a194a7b738b22"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _relative(value, root: str):
    if isinstance(value, dict):
        return {k: _relative(v, root) for k, v in value.items()}
    if isinstance(value, list):
        return [_relative(v, root) for v in value]
    if isinstance(value, str) and value.startswith(root + os.sep):
        return os.path.relpath(value, root)
    return value


def contract_digest(out: str) -> str:
    """sha256 over the compare outputs under out, file by file in a fixed order."""
    files = ["compare.tsv", "compare.json", "base/backbone.kge"]
    for m in METHODS:
        files += [f"{m}/ranks.tsv", f"{m}/report.json"]
    for seed in (0, 1):
        files += [f"patientnode/patientnode_seed{seed}.json", f"gatedbias/head_seed{seed}.json"]
    h = hashlib.sha256()
    for name in files:
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        if name.endswith(("compare.json", "report.json")):
            doc = json.loads(data)
            doc.pop("timestamp")
            data = json.dumps(_relative(doc, out), sort_keys=True).encode()
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def _skip_unless_recorded_arithmetic():
    have = (np.__version__, _blas())
    if have != (RECORDED_NUMPY, RECORDED_BLAS):
        pytest.skip(f"recorded with numpy {RECORDED_NUMPY} and {RECORDED_BLAS}; "
                    f"running numpy {have[0]} and {have[1]}")


def test_tiny_compare_matches_recorded_digest(tmp_path):
    _skip_unless_recorded_arithmetic()
    cfg = config_from_dict({
        "data": {"synthetic": {"n_items": 20, "n_attrs_per_group": 5, "n_users": 10,
                               "seed": 0}},
        "backbone": {"dim": 8, "epochs": 5, "learning_rate": 0.5, "batch_size": 32},
        "head": {"batch_size": 32, "learning_rate": 0.1, "epochs": 3,
                 "patientnode_hidden": 4},
        "eval": {"seeds": [0, 1], "n_shuffles": 2},
    })
    out = str(tmp_path / "cmp")
    run_compare(cfg, out)
    assert contract_digest(out) == DIGEST


def test_tiny_run_pins_the_sign_flip_p_values(tmp_path):
    """With no preference skew the adapted alignment barely moves, so seed 1's
    p-value lands off the floor and depends on every sign the test draws."""
    _skip_unless_recorded_arithmetic()
    cfg = config_from_dict({
        "data": {"synthetic": {"n_items": 20, "n_attrs_per_group": 5, "n_users": 10,
                               "seed": 0, "preference_skew": 0}},
        "backbone": {"dim": 8, "epochs": 5, "learning_rate": 0.5, "batch_size": 32},
        "head": {"batch_size": 32, "learning_rate": 0.02, "epochs": 1},
        "eval": {"seeds": [0, 1], "n_shuffles": 2},
    })
    report = run_pipeline(cfg, str(tmp_path / "run"))["report"]
    assert [entry["alignment_p_value"] for entry in report["per_seed"]] == [
        9.999000099990002e-05, 0.8295170482951705]
