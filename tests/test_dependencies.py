"""numpy and pyyaml are the package's only runtime dependencies: every import
under src/gatedbias is one of them, the standard library or the package
itself, and pyproject.toml declares exactly those two. Within the package,
config is the leaf that every other module may import, and kg_store, which
reads every dataset file and writes every artifact, imports config alone."""

import ast
import glob
import os
import re
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWED = {"numpy", "yaml"} | set(sys.stdlib_module_names)


def test_source_imports_only_numpy_yaml_and_the_standard_library():
    paths = sorted(glob.glob(os.path.join(REPO, "src", "gatedbias", "*.py")))
    assert paths
    outside = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(os.path.basename(path), node.lineno, name) for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert outside == []


def test_pyproject_declares_exactly_numpy_and_pyyaml():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(REPO, "pyproject.toml"), "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in deps]
    assert sorted(names) == ["numpy", "pyyaml"]


def package_modules_after_import(module):
    """The gatedbias modules a fresh interpreter holds after importing module."""
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.startswith('gatedbias')))")
    env = {**os.environ, "PYTHONPATH": os.path.join(REPO, "src")}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_config_imports_no_other_package_module():
    """config holds the whole schema and the error types, so every module can
    import it and it imports none of them."""
    assert package_modules_after_import("gatedbias.config") == "['gatedbias', 'gatedbias.config']"


def test_kg_store_imports_only_config():
    """kg_store is the storage layer: it reads the dataset and writes artifacts
    for the modules above it, and needs none of them."""
    assert package_modules_after_import("gatedbias.kg_store") == \
        "['gatedbias', 'gatedbias.config', 'gatedbias.kg_store']"
