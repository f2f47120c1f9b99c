import json
import os
import pathlib
import shutil
import subprocess
import sys
import warnings

import pytest
import yaml

from gatedbias.backbone import EmbeddingTable, load_embeddings, save_embeddings
from gatedbias.cli import _print_aggregate, build_parser, main
from gatedbias.config import SECTIONS
from gatedbias.kg_store import load_triples
from gatedbias.synth import SynthParams, save_config

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli_data"))
    rc = main(["synth", "--out", out, "--n-items", "20", "--n-attrs-per-group", "5",
               "--n-users", "10", "--seed", "0"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def cfg_path(data_dir, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli_cfg") / "config.yaml")
    save_config({
        "data": {"triples_dir": os.path.join(data_dir, "triples"),
                 "interactions_path": os.path.join(data_dir, "interactions.tsv"),
                 "grouping_path": os.path.join(data_dir, "grouping.yaml")},
        "backbone": {"dim": 8, "epochs": 10, "learning_rate": 0.5,
                     "batch_size": 64, "margin": 0.5},
        "head": {"batch_size": 64, "learning_rate": 0.1, "epochs": 3,
                 "patientnode_hidden": 4},
        "eval": {"seeds": [0], "n_shuffles": 2},
        "method": "gatedbias",
    }, path)
    return path


@pytest.fixture(scope="module")
def run_out(cfg_path, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli_run"))
    assert main(["run", cfg_path, "--out", out]) == 0
    return out


def test_synth_writes_dataset(data_dir, capsys):
    for rel in ("triples/train.tsv", "interactions.tsv", "grouping.yaml",
                "config.yaml", "manifest.json"):
        assert os.path.exists(os.path.join(data_dir, rel))


def test_synth_defaults_are_synth_params(tmp_path):
    assert main(["synth", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "manifest.json", encoding="utf-8") as fh:
        assert json.load(fh)["params"] == vars(SynthParams())


def test_synth_rejects_bad_params(tmp_path, capsys):
    """Each flag is checked by its data.synthetic rule before anything is written."""
    for flags, rule in [(["--n-items", "5"], "n_items must be >= 10"),
                        (["--n-attrs-per-group", "4"], "n_attrs_per_group must be >= 5"),
                        (["--n-users", "0"], "n_users must be >= 1"),
                        (["--preference-skew", "1.5"], "preference_skew must be in [0, 1]"),
                        (["--preference-skew", "nan"], "preference_skew must be in [0, 1]"),
                        (["--seed", "-1"], "seed must be >= 0 and finite")]:
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out)] + flags) == 1, flags
        assert capsys.readouterr().err.splitlines() == [f"error: config: data.synthetic.{rule}"]
        assert not out.exists(), flags


def test_run_writes_artifacts(run_out):
    assert os.path.exists(os.path.join(run_out, "report.json"))
    assert os.path.exists(os.path.join(run_out, "ranks.tsv"))
    assert os.path.exists(os.path.join(run_out, "backbone.kge"))
    assert os.path.exists(os.path.join(run_out, "head_seed0.json"))
    with open(os.path.join(run_out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["method"] == "gatedbias"
    assert report["report"]["seeds"] == [0]


def test_run_overrides_method_and_seeds(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "base_run")
    rc = main(["run", cfg_path, "--out", out, "--method", "base", "--seeds", "0,1",
               "--ks", "1,5", "--epsilon", "0.25", "--percentile-p", "80", "--n-shuffles", "3"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "method: base" in stdout
    assert "mrr:" in stdout
    assert f"report written to {out}/report.json" in stdout
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["method"] == "base"
    assert report["report"]["seeds"] == [0, 1]
    assert report["config"]["method"] == "base"
    assert report["config"]["eval"] == {"ks": [1, 5], "percentile_p": 80, "epsilon": 0.25,
                                        "n_shuffles": 3, "seeds": [0, 1]}
    assert not os.path.exists(os.path.join(out, "head_seed0.json"))


def test_print_aggregate_marks_an_entry_without_a_mean_absent(capsys):
    aggregate = {"mrr": {"mean": 0.5, "stderr": 0.25, "n": 2},
                 "placebo_ratio": {"mean": None, "stderr": None, "n": 0},
                 "cr_A": {"mean": -1.5, "stderr": None, "n": 1}}
    _print_aggregate({"method": "gatedbias", "param_count": 12,
                      "report": {"aggregate": aggregate}})
    assert capsys.readouterr().out.splitlines() == [
        "method: gatedbias", "parameters added: 12", "mrr: 0.5 ± 0.25",
        "placebo_ratio: absent", "cr_A: -1.5"]


@pytest.mark.parametrize("command,section", [
    ("run", "eval"), ("compare", "eval"), ("eval", "eval"), ("synth", "data.synthetic"),
], ids=["run", "compare", "eval", "synth"])
def test_every_eval_key_has_an_override_flag(command, section):
    # every key of the section has a flag, and one not given reaches no config
    args = build_parser().parse_args([command] + (["--out", "data"] if command == "synth"
                                                  else ["config.yaml"]))
    assert all(getattr(args, key) is None for key in SECTIONS[section])


def test_eval_reuses_run_directory(cfg_path, run_out, capsys):
    assert main(["eval", cfg_path, "--out", run_out]) == 0
    assert "report written to" in capsys.readouterr().out
    with open(os.path.join(run_out, "report.json"), encoding="utf-8") as fh:
        assert json.load(fh)["artifact"] == "gatedbias-eval"


def test_eval_refuses_heads_trained_with_other_epochs(cfg_path, tmp_path, capsys):
    with open(cfg_path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    paths = {}
    for epochs in (2, 7):
        raw["head"]["epochs"] = epochs
        paths[epochs] = str(tmp_path / f"epochs{epochs}.yaml")
        save_config(raw, paths[epochs])
    out = str(tmp_path / "run")
    assert main(["run", paths[2], "--out", out, "--n-shuffles", "1"]) == 0
    capsys.readouterr()
    assert main(["eval", paths[7], "--out", out]) == 1
    err = capsys.readouterr().err
    assert "[head]" in err and "epochs 2 (config: 7)" in err
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        assert json.load(fh)["artifact"] == "gatedbias-run"


@pytest.mark.parametrize("method", ["patientnode", "gatedbias"])
def test_eval_refuses_heads_trained_on_another_backbone(method, data_dir, cfg_path, run_out,
                                                        tmp_path, capsys):
    trained_on = os.path.join(run_out, "backbone.kge")
    store = load_triples(os.path.join(data_dir, "triples"))
    table = load_embeddings(trained_on, store.num_entities, store.num_relations)
    other = str(tmp_path / "other.kge")
    emb = table.rows64.copy()
    emb[:table.num_entities] *= 2
    save_embeddings(EmbeddingTable(emb, table.num_entities), other)
    with open(cfg_path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    paths = {}
    for name, backbone in (("trained", trained_on), ("other", other)):
        raw["backbone"] = {"load": backbone}
        paths[name] = str(tmp_path / f"{name}.yaml")
        save_config(raw, paths[name])
    out = str(tmp_path / "run")
    assert main(["run", paths["trained"], "--out", out, "--method", method]) == 0
    capsys.readouterr()
    assert main(["eval", paths["other"], "--out", out, "--method", method]) == 1
    err = capsys.readouterr().err
    assert "error: [head]" in err and "backbone_checksum mismatch" in err


@pytest.mark.parametrize("method,checkpoint,key,value", [
    ("patientnode", "patientnode_seed0.json", "b1", [0.0]),
    ("gatedbias", "head_seed0.json", "alpha_a", [1.0]),
])
def test_eval_refuses_checkpoint_fields_of_another_shape(method, checkpoint, key, value,
                                                         cfg_path, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["run", cfg_path, "--out", out, "--method", method]) == 0
    path = os.path.join(out, checkpoint)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload[key] = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    capsys.readouterr()
    assert main(["eval", cfg_path, "--out", out, "--method", method]) == 1
    err = capsys.readouterr().err
    assert f"error: [head] {path}: {key} " in err


@pytest.mark.parametrize("method,checkpoint", [
    ("patientnode", "patientnode_seed5.json"),
    ("gatedbias", "head_seed5.json"),
])
def test_eval_without_a_seeds_head_fails_as_without_a_backbone(method, checkpoint, cfg_path,
                                                               tmp_path, capsys):
    # the run trains seed 0 only; eval of seed 5 names the missing file
    # the way a missing backbone does, and leaves the run's report alone
    out = str(tmp_path / "run")
    assert main(["run", cfg_path, "--out", out, "--method", method]) == 0
    with open(os.path.join(out, "report.json"), "rb") as fh:
        report = fh.read()
    capsys.readouterr()
    assert main(["eval", cfg_path, "--out", out, "--method", method, "--seeds", "5"]) == 1
    err = capsys.readouterr().err
    path = os.path.join(out, checkpoint)
    assert (f"error: [head] no {method}-head checkpoint at {path}; run the pipeline first"
            in err)
    with open(os.path.join(out, "report.json"), "rb") as fh:
        assert fh.read() == report


def test_eval_without_checkpoints_fails(cfg_path, tmp_path, capsys):
    rc = main(["eval", cfg_path, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "run the pipeline first" in err


def test_compare_writes_comparison(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "cmp")
    assert main(["compare", cfg_path, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("method\tadded_params\t")
    assert os.path.exists(os.path.join(out, "compare.json"))
    assert os.path.exists(os.path.join(out, "compare.tsv"))
    for method in ("base", "patientnode", "gatedbias"):
        assert os.path.exists(os.path.join(out, method, "report.json"))


def test_compare_takes_no_method_flag(cfg_path, tmp_path, capsys):
    # compare runs every method, so --method is a usage error, not ignored
    with pytest.raises(SystemExit) as exc:
        main(["compare", cfg_path, "--out", str(tmp_path / "cmp"), "--method", "base"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --method base" in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()


@pytest.mark.parametrize("flags,fragment", [
    (["--seeds", ""], "eval.seeds"),
    (["--ks", "0"], "eval.ks"),
    (["--percentile-p", "0"], "eval.percentile_p"),
    (["--epsilon", "-1"], "eval.epsilon"),
    (["--n-shuffles", "0"], "eval.n_shuffles"),
    (["--seeds", "0,0"], "eval.seeds"),
])
def test_override_validation(cfg_path, tmp_path, capsys, flags, fragment):
    rc = main(["run", cfg_path, "--out", str(tmp_path)] + flags)
    assert rc == 1
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("method", ["base", "gatedbias"])
@pytest.mark.parametrize("flags,line", [
    (["--epsilon", "inf"], "error: config: eval.epsilon must be >= 0 and finite"),
    (["--seeds", "-1"], "error: config: eval.seeds entries must be distinct and >= 0"),
], ids=["epsilon-inf", "seeds-negative"])
def test_out_of_range_override_refused_at_load(cfg_path, tmp_path, capsys, method, flags, line):
    out = tmp_path / "out"
    assert main(["run", cfg_path, "--out", str(out), "--method", method] + flags) == 1
    assert capsys.readouterr().err.splitlines() == [line]
    assert not out.exists()


@pytest.mark.parametrize("node,kind", [(5, "int"), ([1], "list")], ids=["int", "list"])
def test_override_leaves_a_non_mapping_section_refused(cfg_path, tmp_path, capsys, node, kind):
    with open(cfg_path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    raw["eval"] = node
    path = str(tmp_path / "config.yaml")
    save_config(raw, path)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out), "--seeds", "0"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: config: eval must be a mapping, got {kind}"]
    assert not out.exists()


@pytest.mark.parametrize("verbose", [False, True])
def test_stage_error_traceback_only_under_verbose(cfg_path, tmp_path, capsys, monkeypatch,
                                                  verbose):
    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr("gatedbias.pipeline.train_backbone", broken)
    rc = main(["-v"] * verbose + ["run", cfg_path, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "error: [backbone] boom"
    if verbose:
        assert "Traceback" in err and "ValueError: boom" in err
    else:
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if line.startswith("error:")] == \
            ["error: [backbone] boom"]


def test_diverging_backbone_fails_at_its_epoch(tmp_path, capsys):
    triples = tmp_path / "triples"
    triples.mkdir()
    (triples / "train.tsv").write_text("a\tr\tb\nb\tr\tc\nc\tr\ta\n", encoding="utf-8")
    (triples / "test.tsv").write_text("a\tr\tc\n", encoding="utf-8")
    path = str(tmp_path / "config.yaml")
    save_config({"data": {"triples_dir": str(triples)},
                 "backbone": {"learning_rate": 1e6, "epochs": 50}, "method": "base"}, path)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run", path, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines()[-1] == \
        "error: [backbone] non-finite backbone embeddings at epoch 8"
    assert not (out / "backbone.kge").exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_backbone_beyond_float32_range_fails_after_its_last_epoch(data_dir, tmp_path, capsys):
    # finite in float64 after every epoch, but past float32's range when stored
    path = str(tmp_path / "config.yaml")
    save_config({"data": {"triples_dir": os.path.join(data_dir, "triples")},
                 "backbone": {"learning_rate": 50, "epochs": 10}, "method": "base"}, path)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run", path, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines()[-1] == \
        "error: [backbone] backbone embeddings exceed float32 range after epoch 9"
    assert not (out / "backbone.kge").exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _files(directory):
    """Each file of a directory by name, as bytes."""
    return {path.name: path.read_bytes() for path in pathlib.Path(directory).iterdir()}


@pytest.mark.parametrize("command", ["run", "compare", "eval"])
@pytest.mark.parametrize("log,reason", [
    pytest.param(None, "No such file or directory", id="missing"),
    pytest.param("u0\n", "log.tsv:1: expected 2 tab-separated fields, got 1", id="malformed"),
    pytest.param("", "log.tsv: no interaction names an item of the graph "
                 "(0 lines with unknown items)", id="empty"),
    pytest.param("u0\tITEM-1\nu1\tITEM-2\n", "log.tsv: no interaction names an item of the "
                 "graph (2 lines with unknown items)", id="unknown-items")])
def test_unreadable_log_fails_at_profiles_before_training(command, log, reason, cfg_path,
                                                          run_out, tmp_path, capsys):
    # the profiles are built before the backbone trains or loads, so run and
    # compare write nothing, and eval leaves the run it reads as it was
    with open(cfg_path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    raw["data"]["interactions_path"] = str(tmp_path / "log.tsv")
    if log is not None:
        (tmp_path / "log.tsv").write_text(log, encoding="utf-8")
    path = str(tmp_path / "config.yaml")
    save_config(raw, path)
    out = run_out if command == "eval" else str(tmp_path / "out")
    before = _files(run_out)
    assert {"report.json", "ranks.tsv", "backbone.kge", "head_seed0.json"} <= set(before)
    assert main([command, path, "--out", out]) == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error: [profiles] ") and reason in last
    assert _files(run_out) == before
    assert command == "eval" or not os.path.exists(out)


@pytest.mark.parametrize("method,checkpoint", [("gatedbias", "head_seed0.json"),
                                               ("patientnode", "patientnode_seed0.json")])
def test_diverging_head_fails_at_the_head_stage(method, checkpoint, cfg_path, tmp_path, capsys):
    with open(cfg_path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    raw["head"]["learning_rate"] = 1e300
    path = str(tmp_path / "config.yaml")
    save_config(raw, path)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run", path, "--out", str(out), "--method", method])
    assert rc == 1
    last = capsys.readouterr().err.splitlines()[-1]
    what = "head" if method == "gatedbias" else method
    assert last.startswith(f"error: [head] non-finite {what} loss ")
    assert (out / "backbone.kge").exists() and not (out / checkpoint).exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_bad_config_file(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("data: {triples_dir: t}\nmystery: 1\n", encoding="utf-8")
    rc = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "unknown key" in capsys.readouterr().err


def test_profile_range_fails_before_training(cfg_path, tmp_path, capsys):
    with open(cfg_path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    raw["profile"] = {"cap_tau": 0}
    path = str(tmp_path / "cap0.yaml")
    save_config(raw, path)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: config: profile.cap_tau must be positive and finite"]
    assert not out.exists()


@pytest.mark.parametrize("command,stage,triples,reason", [
    ("run", "data", "train.tsv", "is not a directory"),
    ("compare", "data", "train.tsv", "is not a directory"),
    ("run", "data", "nowhere", "does not exist"),
    ("eval", "data", "nowhere", "does not exist"),
    ("eval", "backbone", None, "no backbone checkpoint"),
], ids=["run-data", "compare-data", "run-data-missing", "eval-data-missing", "eval-backbone"])
def test_refused_run_leaves_no_out_directory(command, stage, triples, reason, cfg_path, data_dir,
                                             tmp_path, capsys):
    """run and compare refused at load, eval with no triples directory or no
    checkpoint to load, create no --out directory: it is made only when a
    file goes into it. A refused triples_dir says why."""
    with open(cfg_path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if triples is not None:
        raw["data"]["triples_dir"] = os.path.join(data_dir, "triples", triples)
    path = str(tmp_path / "config.yaml")
    save_config(raw, path)
    out = tmp_path / "out"
    assert main([command, path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [{stage}] ") and reason in err
    if triples is not None:
        assert "data.triples_dir must be a directory holding train.tsv" in err
    assert not out.exists()


@pytest.mark.parametrize("command,method,n_test,error", [
    ("run", "gatedbias", None, "no test triples to rank"),
    ("compare", None, None, "no test triples to rank"),
    ("run", "base", 0, "no test triples to rank"),
    ("run", "gatedbias", 1, "method=gatedbias needs at least 2 test triples"),
    ("compare", None, 1, "method=gatedbias needs at least 2 test triples"),
    ("run", "base", 1, None),
    ("run", "patientnode", 1, None),
], ids=["run-no-split", "compare-no-split", "base-empty", "run-one", "compare-one",
        "base-one", "patientnode-one"])
def test_unusable_test_split_refused_before_training(command, method, n_test, error,
                                                     cfg_path, data_dir, tmp_path, capsys):
    """A missing or empty test split, and for gatedbias a one-query one (its
    paired test needs two), are refused at [data]: no backbone or head is
    trained or saved first. base and patientnode rank a single query."""
    triples = tmp_path / "triples"
    triples.mkdir()
    for split in ("train.tsv", "valid.tsv"):
        shutil.copy(os.path.join(data_dir, "triples", split), triples)
    if n_test is not None:
        with open(os.path.join(data_dir, "triples", "test.tsv"), encoding="utf-8") as fh:
            (triples / "test.tsv").write_text("".join(fh.readlines()[:n_test]),
                                              encoding="utf-8")
    with open(cfg_path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    raw["data"]["triples_dir"] = str(triples)
    path = str(tmp_path / "config.yaml")
    save_config(raw, path)
    out = tmp_path / "out"
    argv = [command, path, "--out", str(out)] + (["--method", method] if method else [])
    if error is None:
        assert main(argv) == 0
        return
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: [data] {error}")
    assert not out.exists()


def test_compare_with_relative_out_echoes_absolute_paths(tmp_path, monkeypatch):
    save_config({
        "data": {"synthetic": {"n_items": 20, "n_attrs_per_group": 5, "n_users": 5, "seed": 1}},
        "backbone": {"dim": 8, "epochs": 5, "learning_rate": 0.5, "batch_size": 64},
        "head": {"batch_size": 64, "learning_rate": 0.1, "epochs": 2, "patientnode_hidden": 4},
        "eval": {"seeds": [0], "n_shuffles": 2},
    }, str(tmp_path / "config.yaml"))
    monkeypatch.chdir(tmp_path)
    assert main(["compare", "config.yaml", "--out", "rel"]) == 0
    for method in ("base", "patientnode", "gatedbias"):
        with open(os.path.join("rel", method, "report.json"), encoding="utf-8") as fh:
            config = json.load(fh)["config"]
        assert set(config["data"]) == {"triples_dir", "interactions_path", "grouping_path"}
        paths = list(config["data"].values())
        if method != "base":  # the base run trains the backbone the others load
            paths.append(config["backbone"]["load"])
        for path in paths:
            assert os.path.isabs(path) and os.path.exists(path), (method, path)


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])


def test_malformed_int_list_exits(cfg_path):
    with pytest.raises(SystemExit):
        main(["run", cfg_path, "--ks", "abc"])


# Records OPENBLAS_NUM_THREADS when numpy is first imported, which is when
# OpenBLAS reads it, and whether the package root alone loads numpy.
NUMPY_IMPORT_PROBE = """
import importlib.abc, json, os, sys
seen = []
class Probe(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Probe())
import gatedbias
root_loads_numpy = "numpy" in sys.modules
import gatedbias.cli
print(json.dumps([root_loads_numpy, seen]))
"""


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_cli_sets_one_blas_thread_before_numpy_loads(preset, expected):
    """The CLI's default of one BLAS thread is in place when numpy loads, a
    value the user set is kept, and `import gatedbias` alone loads no numpy."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run([sys.executable, "-c", NUMPY_IMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert json.loads(out.stdout) == [False, [expected]]
