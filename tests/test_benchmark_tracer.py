"""The benchmark's span tracer (perfbench/tracer.py) wraps named module
attributes of the package. This check resolves every one of them, so a
refactor that renames or moves a traced function fails here, not only in the
benchmark's own self-check."""

import importlib
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_resolves_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(REPO, "perfbench"))
    tracer = importlib.import_module("tracer")
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
