import dataclasses
import hashlib
import json
import logging
import os
import shutil

import numpy as np
import pytest

from gatedbias.config import config_from_dict
from gatedbias.errors import PipelineError
from gatedbias.evaluator import query_set
from gatedbias.kg_store import load_grouping, load_triples, make_grouping
from gatedbias.profile_builder import load_interactions
from gatedbias.pipeline import (METHOD_ORDER, _write_report, format_comparison,
                                query_checksum, run_compare, run_eval, run_pipeline,
                                task_train_store)
from gatedbias.synth import REL_LIKES, SynthParams, generate


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe_data")
    generate(SynthParams(n_items=20, n_attrs_per_group=5, n_users=10, seed=0), str(out))
    return str(out)


def tiny_cfg(data_dir, method="gatedbias", **over):
    raw = {
        "data": {"triples_dir": os.path.join(data_dir, "triples"),
                 "interactions_path": os.path.join(data_dir, "interactions.tsv"),
                 "grouping_path": os.path.join(data_dir, "grouping.yaml")},
        "backbone": {"dim": 8, "epochs": 10, "learning_rate": 0.5,
                     "batch_size": 64, "margin": 0.5, "seed": 0},
        "head": {"batch_size": 64, "learning_rate": 0.1, "epochs": 3,
                 "patientnode_hidden": 4},
        "eval": {"seeds": [0, 1], "n_shuffles": 2},
        "method": method,
    }
    raw.update(over)
    return config_from_dict(raw)


@pytest.fixture(scope="module")
def store(data_dir):
    return load_triples(os.path.join(data_dir, "triples"))


@pytest.fixture(scope="module")
def base_run(data_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run_base"))
    return out, run_pipeline(tiny_cfg(data_dir, "base"), out)


@pytest.fixture(scope="module")
def pn_run(data_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run_pn"))
    return out, run_pipeline(tiny_cfg(data_dir, "patientnode"), out)


@pytest.fixture(scope="module")
def gated_run(data_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run_gated"))
    report = run_pipeline(tiny_cfg(data_dir), out)
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        disk = json.load(fh)
    with open(os.path.join(out, "ranks.tsv"), "rb") as fh:
        ranks_bytes = fh.read()
    return out, report, disk, ranks_bytes


BATTERY_KEYS = {"alignment@10_base", "alignment@10_adapted", "alignment@10_delta",
                "alignment_p_value", "cr_A", "cr_A_pct_improved", "cr_B",
                "cr_B_pct_improved", "placebo_real_delta", "placebo_shuffled_delta",
                "placebo_ratio", "aligned_set_size"}


def test_base_report_structure(base_run, store):
    out, report = base_run
    assert report["artifact"] == "gatedbias-run"
    assert report["method"] == "base"
    assert report["param_count"] == 0
    assert report["universes"] is None
    assert report["dataset"] == {
        "num_entities": store.num_entities,
        "num_relations": store.num_relations,
        "train": store.train.shape[0],
        "valid": store.valid.shape[0],
        "test": store.test.shape[0],
    }
    inner = report["report"]
    assert inner["seeds"] == [0, 1]
    # the base scorer has no per-seed variation
    assert inner["per_seed"][0] == inner["per_seed"][1]
    for key in ("mrr", "hits@1", "hits@3", "hits@10", "ndcg@10"):
        assert key in inner["per_seed"][0]
    assert inner["per_seed"][0]["param_count"] == 0
    assert not BATTERY_KEYS & set(inner["per_seed"][0])
    # the config echo is itself a loadable config
    config_from_dict(report["config"])
    assert os.path.exists(os.path.join(out, "backbone.kge"))


def test_patientnode_report_structure(pn_run):
    out, report = pn_run
    assert report["method"] == "patientnode"
    assert report["param_count"] == 8 * 4 + 2 * 4 + 1
    assert report["universes"] is None
    for seed in (0, 1):
        assert os.path.exists(os.path.join(out, f"patientnode_seed{seed}.json"))
    per_seed = report["report"]["per_seed"]
    assert not BATTERY_KEYS & set(per_seed[0])
    assert per_seed[0]["param_count"] == report["param_count"]


def test_gated_report_structure(gated_run, store):
    out, report, disk, _ = gated_run
    assert report["method"] == "gatedbias"
    uni = report["universes"]
    rel_a = store.relation_vocab.id("pref_attr_of")
    rel_b = store.relation_vocab.id("meta_attr_of")
    assert uni["size_a"] == len(set(store.train[store.train[:, 1] == rel_a, 0].tolist()))
    assert uni["size_b"] == len(set(store.train[store.train[:, 1] == rel_b, 0].tolist()))
    assert report["param_count"] == uni["size_a"] + uni["size_b"] + 2
    for seed in (0, 1):
        assert os.path.exists(os.path.join(out, f"head_seed{seed}.json"))
    for entry in report["report"]["per_seed"]:
        assert BATTERY_KEYS <= set(entry)
        assert entry["param_count"] == report["param_count"]
    assert disk == report  # JSON round-trip is faithful


def test_ranks_tsv_layout(gated_run, store):
    _, _, _, ranks_bytes = gated_run
    lines = ranks_bytes.decode("utf-8").splitlines()
    assert lines[0] == "seed\thead\trelation\ttrue_tail\trank"
    assert len(lines) == 1 + 2 * store.test.shape[0]
    seed, head, rel, tail, rank = lines[1].split("\t")
    assert seed == "0" and rel == REL_LIKES
    assert head.startswith("hub_") and tail.startswith("item_")
    assert int(rank) >= 1


def _refuse_training(*args, **kwargs):
    raise AssertionError("eval must not train")


@pytest.mark.parametrize("method", METHOD_ORDER)
def test_run_eval_reproduces_run_pipeline(method, data_dir, tmp_path, monkeypatch):
    out = str(tmp_path)
    report = run_pipeline(tiny_cfg(data_dir, method), out)
    with open(os.path.join(out, "backbone.kge"), "rb") as fh:
        backbone_bytes = fh.read()
    with open(os.path.join(out, "ranks.tsv"), "rb") as fh:
        ranks_bytes = fh.read()

    for target in ("gatedbias.pipeline.train_backbone", "gatedbias.bias_head.train_head",
                   "gatedbias.bias_head.train_patientnode"):
        monkeypatch.setattr(target, _refuse_training)
    eval_report = run_eval(tiny_cfg(data_dir, method), out)
    assert eval_report["artifact"] == "gatedbias-eval"
    drop = ("timestamp", "artifact")
    assert {k: v for k, v in report.items() if k not in drop} == \
           {k: v for k, v in eval_report.items() if k not in drop}
    with open(os.path.join(out, "backbone.kge"), "rb") as fh:
        assert fh.read() == backbone_bytes
    with open(os.path.join(out, "ranks.tsv"), "rb") as fh:
        assert fh.read() == ranks_bytes


@pytest.mark.parametrize("method,field,trained,configured", [
    ("gatedbias", "epochs", 2, 7),
    ("gatedbias", "seed", 0, 5),
    ("patientnode", "epochs", 2, 7),
    ("patientnode", "patientnode_hidden", 4, 6),
])
def test_run_eval_refuses_heads_trained_with_other_settings(method, field, trained, configured,
                                                            data_dir, tmp_path):
    head = {"batch_size": 64, "learning_rate": 0.1, "epochs": 2, "patientnode_hidden": 4}
    run_pipeline(tiny_cfg(data_dir, method, head={**head, field: trained}), str(tmp_path))
    with pytest.raises(PipelineError) as exc:
        run_eval(tiny_cfg(data_dir, method, head={**head, field: configured}), str(tmp_path))
    assert exc.value.stage == "evaluate"
    assert field in str(exc.value) and str(configured) in str(exc.value)


def synthetic_cfg(method="gatedbias"):
    return config_from_dict({
        "data": {"synthetic": {"n_items": 20, "n_attrs_per_group": 5,
                               "n_users": 10, "seed": 0}},
        "backbone": {"dim": 8, "epochs": 2, "learning_rate": 0.5, "batch_size": 64},
        "head": {"batch_size": 64, "learning_rate": 0.1, "epochs": 2},
        "eval": {"seeds": [0], "n_shuffles": 2},
        "method": method,
    })


def test_run_eval_reads_the_synthetic_dataset_of_the_run(tmp_path):
    out = str(tmp_path / "run")
    report = run_pipeline(synthetic_cfg(), out)
    dataset = os.path.join(out, "dataset")

    def snapshot():
        files = {}
        for root, _, names in os.walk(dataset):
            for name in names:
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    files[path] = (fh.read(), os.stat(path).st_mtime_ns)
        return files

    before = snapshot()
    eval_report = run_eval(synthetic_cfg(), out)
    assert snapshot() == before
    drop = ("timestamp", "artifact")
    assert {k: v for k, v in report.items() if k not in drop} == \
           {k: v for k, v in eval_report.items() if k not in drop}

    other = dataclasses.replace(synthetic_cfg(), data=dataclasses.replace(
        synthetic_cfg().data, synthetic={**synthetic_cfg().data.synthetic, "seed": 1}))
    with pytest.raises(PipelineError) as exc:
        run_eval(other, out)
    assert exc.value.stage == "data" and "generated with" in str(exc.value)
    assert snapshot() == before

    shutil.rmtree(dataset)
    with pytest.raises(PipelineError) as exc:
        run_eval(synthetic_cfg(), out)
    assert exc.value.stage == "data"
    assert "run the pipeline first" in str(exc.value)


def test_crlf_dataset_gives_the_same_run(data_dir, gated_run, tmp_path):
    crlf = str(tmp_path / "crlf")
    shutil.copytree(data_dir, crlf)
    for rel in ("triples/train.tsv", "triples/valid.tsv", "triples/test.tsv",
                "interactions.tsv"):
        path = os.path.join(crlf, rel)
        with open(path, "rb") as fh:
            data = fh.read()
        assert b"\r" not in data
        with open(path, "wb") as fh:
            fh.write(data.replace(b"\n", b"\r\n"))

    lf_store = load_triples(os.path.join(data_dir, "triples"))
    crlf_store = load_triples(os.path.join(crlf, "triples"))
    def labels(v):
        return [v.label(i) for i in range(len(v))]
    assert labels(crlf_store.entity_vocab) == labels(lf_store.entity_vocab)
    assert labels(crlf_store.relation_vocab) == labels(lf_store.relation_vocab)
    lf_log = load_interactions(os.path.join(data_dir, "interactions.tsv"), lf_store)
    crlf_log = load_interactions(os.path.join(crlf, "interactions.tsv"), crlf_store)
    assert crlf_log.users() == lf_log.users()
    assert all(np.array_equal(crlf_log.interactions[u], lf_log.interactions[u])
               for u in lf_log.users())

    _, report, _, ranks_bytes = gated_run
    again = run_pipeline(tiny_cfg(crlf), str(tmp_path / "out"))
    drop = ("timestamp", "config")
    assert {k: v for k, v in again.items() if k not in drop} == \
           {k: v for k, v in report.items() if k not in drop}
    assert {k: v for k, v in again["config"].items() if k != "data"} == \
           {k: v for k, v in report["config"].items() if k != "data"}
    with open(str(tmp_path / "out" / "ranks.tsv"), "rb") as fh:
        assert fh.read() == ranks_bytes


def test_failed_report_write_keeps_the_previous_report(gated_run, tmp_path):
    out = str(tmp_path / "run")
    shutil.copytree(gated_run[0], out)
    listing = sorted(os.listdir(out))
    with open(os.path.join(out, "report.json"), "rb") as fh:
        before = fh.read()
    # json.dump has written "{" and the "a" entry to disk when it meets the object
    with pytest.raises(TypeError, match="not JSON serializable"):
        _write_report({"a": 1, "z": object()}, [], out)
    with open(os.path.join(out, "report.json"), "rb") as fh:
        assert fh.read() == before
    assert sorted(os.listdir(out)) == listing
    assert not [name for name in listing if name.endswith(".tmp")]


def test_run_eval_without_checkpoints(data_dir, tmp_path):
    with pytest.raises(PipelineError) as exc:
        run_eval(tiny_cfg(data_dir), str(tmp_path))
    assert exc.value.stage == "backbone"
    assert "run the pipeline first" in str(exc.value)


def test_cached_backbone_matches_trained(gated_run, data_dir, tmp_path):
    out, report, _, _ = gated_run
    cfg = tiny_cfg(data_dir, backbone={"load": os.path.join(out, "backbone.kge")})
    again = run_pipeline(cfg, str(tmp_path))
    assert again["backbone_checksum"] == report["backbone_checksum"]
    assert again["report"] == report["report"]


def test_synthetic_data_is_materialized(tmp_path):
    cfg = config_from_dict({
        "data": {"synthetic": {"n_items": 20, "n_attrs_per_group": 5,
                               "n_users": 10, "seed": 0}},
        "backbone": {"dim": 8, "epochs": 2, "learning_rate": 0.5, "batch_size": 64},
        "eval": {"seeds": [0]},
        "method": "base",
    })
    report = run_pipeline(cfg, str(tmp_path))
    assert os.path.exists(str(tmp_path / "dataset" / "triples" / "train.tsv"))
    assert report["dataset"]["test"] > 0


def test_task_train_store_keeps_task_relations(store, data_dir, caplog):
    grouping = load_grouping(os.path.join(data_dir, "grouping.yaml"), store)
    task = task_train_store(store, grouping)
    likes = store.relation_vocab.id(REL_LIKES)
    assert np.all(task.train[:, 1] == likes)
    assert task.train.shape[0] == int((store.train[:, 1] == likes).sum())
    assert task.test is store.test

    all_grouped = make_grouping(store, ["pref_attr_of", REL_LIKES], ["meta_attr_of"])
    with caplog.at_level(logging.WARNING, logger="gatedbias.pipeline"):
        fallback = task_train_store(store, all_grouped)
    assert fallback is store
    assert "every relation is grouped" in caplog.text


def test_query_checksum_tracks_queries(store):
    qc = query_checksum(query_set(store))
    assert qc == query_checksum(query_set(store))
    fewer = dataclasses.replace(store, test=store.test[:-1])
    reordered = dataclasses.replace(store, test=store.test[::-1].copy())
    assert query_checksum(query_set(fewer)) != qc
    assert query_checksum(query_set(reordered)) != qc
    # the digest layout: test triples as int64, then every filter as int64
    digest = hashlib.sha256(store.test.astype(np.int64).tobytes())
    for h, r, _ in store.test.tolist():
        digest.update(store.known_tails.get((h, r), np.empty(0, np.int64)).tobytes())
    assert qc == digest.hexdigest()


def test_gatedbias_requires_profile_inputs(data_dir, tmp_path):
    cfg = tiny_cfg(data_dir)
    broken = dataclasses.replace(
        cfg, data=dataclasses.replace(cfg.data, grouping_path=None))
    with pytest.raises(PipelineError) as exc:
        run_pipeline(broken, str(tmp_path / "a"))
    assert exc.value.stage == "data"
    assert "grouping_path" in str(exc.value)

    broken = dataclasses.replace(
        cfg, data=dataclasses.replace(cfg.data, interactions_path=None))
    with pytest.raises(PipelineError) as exc:
        run_pipeline(broken, str(tmp_path / "b"))
    assert exc.value.stage == "data"
    assert "interactions_path" in str(exc.value)


def test_missing_backbone_checkpoint_tags_backbone_stage(data_dir, tmp_path):
    cfg = tiny_cfg(data_dir, backbone={"load": str(tmp_path / "absent.kge")})
    with pytest.raises(PipelineError) as exc:
        run_pipeline(cfg, str(tmp_path / "out"))
    assert exc.value.stage == "backbone"


def test_run_compare_over_synthetic_dataset(tmp_path):
    cfg = config_from_dict({
        "data": {"synthetic": {"n_items": 20, "n_attrs_per_group": 5,
                               "n_users": 10, "seed": 0}},
        "backbone": {"dim": 8, "epochs": 10, "learning_rate": 0.5,
                     "batch_size": 64, "margin": 0.5},
        "head": {"batch_size": 64, "learning_rate": 0.1, "epochs": 3,
                 "patientnode_hidden": 4},
        "eval": {"seeds": [0, 1], "n_shuffles": 2},
        "method": "gatedbias",
    })
    out = str(tmp_path)
    comparison = run_compare(cfg, out)
    assert comparison["artifact"] == "gatedbias-compare"
    assert set(comparison["methods"]) == {"base", "patientnode", "gatedbias"}
    assert comparison["methods"]["base"]["param_count"] == 0
    assert comparison["methods"]["patientnode"]["param_count"] == 8 * 4 + 2 * 4 + 1

    # the dataset is written once at the top level, not per method
    assert os.path.isdir(os.path.join(out, "dataset"))
    assert not os.path.exists(os.path.join(out, "base", "dataset"))

    checksums = set()
    for method in comparison["methods"]:
        with open(os.path.join(out, method, "report.json"), encoding="utf-8") as fh:
            sub = json.load(fh)
        checksums.add(sub["query_checksum"])
    assert checksums == {comparison["query_checksum"]}

    with open(os.path.join(out, "compare.json"), encoding="utf-8") as fh:
        assert json.load(fh) == comparison
    with open(os.path.join(out, "compare.tsv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("method\tadded_params\tmrr")
    assert len(lines) == 4
    assert lines[1].startswith("base\t0\t")


def test_compare_methods_share_one_backbone(tmp_path):
    cfg = config_from_dict({
        "data": {"synthetic": {"n_items": 20, "n_attrs_per_group": 5,
                               "n_users": 5, "seed": 1}},
        "backbone": {"dim": 8, "epochs": 5, "learning_rate": 0.5, "batch_size": 64},
        "head": {"batch_size": 64, "learning_rate": 0.1, "epochs": 2,
                 "patientnode_hidden": 4},
        "eval": {"seeds": [0], "n_shuffles": 2},
    })
    run_compare(cfg, str(tmp_path))
    checksums = set()
    for method in ("base", "patientnode", "gatedbias"):
        with open(os.path.join(str(tmp_path), method, "report.json"),
                  encoding="utf-8") as fh:
            checksums.add(json.load(fh)["backbone_checksum"])
    assert len(checksums) == 1


def test_format_comparison_layout():
    comparison = {"methods": {
        "base": {"param_count": 0,
                 "aggregate": {"mrr": {"mean": 0.5, "stderr": None, "n": 1}}},
        "patientnode": {"param_count": 41,
                        "aggregate": {"mrr": {"mean": 0.25, "stderr": 0.125, "n": 2}}},
        "gatedbias": {"param_count": 12,
                      "aggregate": {"hits@1": {"mean": 1.0, "stderr": 0.0, "n": 2},
                                    "mrr": {"mean": None, "stderr": None, "n": 0}}},
    }}
    lines = format_comparison(comparison).splitlines()
    assert lines[0] == "method\tadded_params\tmrr\thits@1"
    assert lines[1] == "base\t0\t0.5000\t-"
    assert lines[2] == "patientnode\t41\t0.2500±0.1250\t-"
    assert lines[3] == "gatedbias\t12\t-\t1.0000±0.0000"
