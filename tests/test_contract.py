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
versions the pins were recorded with. The BLAS thread count, which a user
may set through OPENBLAS_NUM_THREADS, must not change a byte.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gatedbias.config import METHODS, config_from_dict
from gatedbias.pipeline import run_compare, run_pipeline

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
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


# Shapes large enough for OpenBLAS to split the gemv and the gemms across threads.
BLAS_CALLS = """
import hashlib
import numpy as np
from gatedbias.backbone import EmbeddingTable
from gatedbias.bias_head import (PatientNodeHead, compute_bias_patientnode,
                                 patientnode_loss_and_grad)
rng = np.random.default_rng(0)
n_e, n_r, d, hidden, m = 4000, 8, 32, 16, 4096
table = EmbeddingTable(rng.standard_normal((n_e + n_r, d)), n_e)
head = PatientNodeHead(w1=rng.standard_normal((hidden, d)), b1=rng.standard_normal(hidden),
                       w2=rng.standard_normal(hidden), b2=0.5)
ids = np.stack([n_e + rng.integers(0, n_r, m), *rng.integers(0, n_e, (3, m))])
loss, grad = patientnode_loss_and_grad(head, table, ids)
h = hashlib.sha256()
for x in (*(table.score_all_tails(i, i % n_r) for i in range(50)),
          compute_bias_patientnode(head, table), loss, grad.w1, grad.b1, grad.w2, grad.b2):
    h.update(np.asarray(x).tobytes())
print(h.hexdigest())
"""


def test_results_do_not_depend_on_the_blas_thread_count():
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=SRC)
        out = subprocess.run([sys.executable, "-c", BLAS_CALLS], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        digests.add(out.stdout.strip())
    assert len(digests) == 1
