import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedbias.config import (METHODS, RANGES, SECTIONS, ConfigError, config_from_dict,
                              load_config)
from gatedbias.synth import save_config

MINIMAL = {"data": {"triples_dir": "triples"}}


def test_minimal_config_fills_defaults():
    cfg = config_from_dict(MINIMAL, base_dir="/base")
    assert cfg.data.triples_dir == "/base/triples"
    assert cfg.data.interactions_path is None
    assert cfg.backbone_load is None
    assert cfg.backbone.dim == 32 and cfg.backbone.epochs == 200
    assert cfg.profile.scale_alpha == 0.1 and cfg.profile.cap_tau == 0.5
    assert cfg.head.epochs == 5 and cfg.head.lambda1 == 1e-4
    assert cfg.patientnode_hidden == 16
    assert cfg.eval.ks == [1, 3, 10]
    assert cfg.eval.percentile_p == 70
    assert cfg.eval.seeds == [0, 1, 2]
    assert cfg.gates.cap_a is None and cfg.gates.cap_b is None
    assert cfg.method == "gatedbias"


def test_relative_and_absolute_paths():
    cfg = config_from_dict({"data": {"triples_dir": "/abs/t",
                                     "interactions_path": "sub/i.tsv"}},
                           base_dir="/base")
    assert cfg.data.triples_dir == "/abs/t"
    assert cfg.data.interactions_path == "/base/sub/i.tsv"


@pytest.mark.parametrize("raw,where", [
    ({**MINIMAL, "mystery": 1}, "mystery"),
    ({"data": {"triples_dir": "t", "mystery": 1}}, "data.mystery"),
    ({**MINIMAL, "backbone": {"mystery": 1}}, "backbone.mystery"),
    ({**MINIMAL, "profile": {"mystery": 1}}, "profile.mystery"),
    ({**MINIMAL, "head": {"mystery": 1}}, "head.mystery"),
    ({**MINIMAL, "eval": {"mystery": 1}}, "eval.mystery"),
    ({**MINIMAL, "gates": {"mystery": 1}}, "gates.mystery"),
])
def test_unknown_keys_rejected(raw, where):
    with pytest.raises(ConfigError, match=f"unknown key {where}"):
        config_from_dict(raw)


def test_backbone_load_excludes_trainer_settings():
    cfg = config_from_dict({**MINIMAL, "backbone": {"load": "b.kge"}}, base_dir="/base")
    assert cfg.backbone_load == "/base/b.kge"
    with pytest.raises(ConfigError, match="unknown key backbone.dim"):
        config_from_dict({**MINIMAL, "backbone": {"load": "b.kge", "dim": 8}})


def test_synthetic_data_block():
    cfg = config_from_dict({"data": {"synthetic": {"n_items": 20, "seed": 4}}})
    assert cfg.data.synthetic == {"n_items": 20, "seed": 4}
    assert cfg.data.triples_dir is None
    for key in ("triples_dir", "interactions_path", "grouping_path"):
        with pytest.raises(ConfigError, match=f"data.synthetic and data.{key} are mutually"):
            config_from_dict({"data": {"synthetic": {}, key: "t"}})
    with pytest.raises(ConfigError, match="unknown key data.synthetic"):
        config_from_dict({"data": {"synthetic": {"planted": 1}}})
    # synth's ranges are RANGES rules, applied at load before any stage runs
    with pytest.raises(ConfigError, match="^config: data.synthetic.n_items must be >= 10$"):
        config_from_dict({"data": {"synthetic": {"n_items": 5}}})


def test_missing_data_source():
    with pytest.raises(ConfigError, match="triples_dir or synthetic"):
        config_from_dict({"data": {}})
    with pytest.raises(ConfigError, match="triples_dir or synthetic"):
        config_from_dict({})


@pytest.mark.parametrize("raw,match", [
    ({**MINIMAL, "backbone": {"dim": "32"}}, "must be an integer"),
    ({**MINIMAL, "backbone": {"dim": True}}, "must be an integer"),
    ({**MINIMAL, "backbone": {"learning_rate": "fast"}}, "must be a number"),
    ({**MINIMAL, "backbone": {"load": 5}}, "must be a string"),
    ({**MINIMAL, "eval": {"ks": "1,3"}}, "non-empty list"),
    ({**MINIMAL, "eval": {"ks": []}}, "non-empty list"),
    ({**MINIMAL, "eval": {"seeds": [0, "1"]}}, "must be an integer"),
    ({**MINIMAL, "data": {"triples_dir": "t"}, "head": {"lambda1": "x"}}, "must be a number"),
    ({**MINIMAL, "profile": "loose"}, "must be a mapping"),
    ({"data": {"triples_dir": 5}}, "config: data.triples_dir must be a string, got 5"),
])
def test_type_errors(raw, match):
    with pytest.raises(ConfigError, match=match):
        config_from_dict(raw)


@pytest.mark.parametrize("raw,match", [
    ({**MINIMAL, "eval": {"percentile_p": 0}}, "percentile_p"),
    ({**MINIMAL, "eval": {"percentile_p": 101}}, "percentile_p"),
    ({**MINIMAL, "eval": {"epsilon": -0.5}}, "epsilon"),
    ({**MINIMAL, "eval": {"n_shuffles": 0}}, "n_shuffles"),
    ({**MINIMAL, "eval": {"ks": [1, 0]}}, "ks entries"),
    ({**MINIMAL, "gates": {"cap_a": 0}}, "cap_a"),
    ({**MINIMAL, "head": {"patientnode_hidden": 0}}, "patientnode_hidden"),
    ({**MINIMAL, "method": "bogus"}, "method"),
    ({**MINIMAL, "backbone": {"dim": 0}}, "dim"),
    ({**MINIMAL, "head": {"epochs": 0}}, "epochs"),
    ({**MINIMAL, "backbone": {"epochs": -1}}, "config: backbone.epochs must be >= 0"),
    ({**MINIMAL, "backbone": {"margin": 0}}, "config: backbone.margin must be positive"),
    ({**MINIMAL, "backbone": {"seed": -1}}, "config: backbone.seed must be >= 0"),
    ({**MINIMAL, "head": {"batch_size": 0}}, "config: head.batch_size must be positive"),
    ({**MINIMAL, "head": {"lambda1": -1.0}}, "config: head.lambda1 must be >= 0"),
    ({**MINIMAL, "head": {"seed": -2}}, "config: head.seed must be >= 0"),
    ({**MINIMAL, "profile": {"scale_alpha": -0.1}}, "config: profile.scale_alpha must be positive"),
    ({**MINIMAL, "profile": {"cap_tau": 0}}, "config: profile.cap_tau must be positive"),
    ({**MINIMAL, "eval": {"epsilon": float("nan")}}, "config: eval.epsilon must be >= 0"),
    ({**MINIMAL, "backbone": {"learning_rate": float("nan")}}, "backbone.learning_rate must be"),
    ({**MINIMAL, "eval": {"seeds": [0, 1, 0]}}, "config: eval.seeds entries must be distinct"),
    ({**MINIMAL, "eval": {"epsilon": float("inf")}}, "config: eval.epsilon must be >= 0 and finite"),
    ({**MINIMAL, "head": {"lambda2": float("inf")}}, "config: head.lambda2 must be >= 0 and finite"),
    ({**MINIMAL, "backbone": {"margin": float("inf")}},
     "config: backbone.margin must be positive and finite"),
    ({**MINIMAL, "profile": {"cap_tau": float("-inf")}},
     "config: profile.cap_tau must be positive and finite"),
    ({**MINIMAL, "eval": {"seeds": [0, -1]}}, "config: eval.seeds entries must be distinct and >= 0"),
    ({"data": {"synthetic": {"n_items": 9}}}, "config: data.synthetic.n_items must be >= 10"),
    ({"data": {"synthetic": {"n_attrs_per_group": 4}}},
     "config: data.synthetic.n_attrs_per_group must be >= 5"),
    ({"data": {"synthetic": {"n_users": 0}}}, "config: data.synthetic.n_users must be >= 1"),
    ({"data": {"synthetic": {"preference_skew": 1.5}}},
     r"config: data.synthetic.preference_skew must be in \[0, 1\]"),
    ({"data": {"synthetic": {"preference_skew": float("nan")}}},
     r"config: data.synthetic.preference_skew must be in \[0, 1\]"),
    ({"data": {"synthetic": {"seed": -1}}}, "config: data.synthetic.seed must be >= 0"),
])
def test_value_validation(raw, match):
    with pytest.raises(ConfigError, match=match):
        config_from_dict(raw)


def test_trainer_range_edges_accepted():
    cfg = config_from_dict({**MINIMAL, "backbone": {"epochs": 0, "seed": 0},
                            "head": {"lambda1": 0.0, "lambda2": 0.0, "seed": 0}})
    assert cfg.backbone.epochs == 0 and cfg.head.lambda1 == 0.0


def test_to_dict_round_trip_trainer():
    raw = {
        "data": {"triples_dir": "t", "interactions_path": "i.tsv",
                 "grouping_path": "g.yaml"},
        "backbone": {"dim": 8, "epochs": 10, "learning_rate": 0.5,
                     "batch_size": 64, "negatives_per_positive": 1,
                     "margin": 0.5, "seed": 2},
        "head": {"epochs": 3, "patientnode_hidden": 4},
        "eval": {"seeds": [0, 1], "n_shuffles": 2},
        "gates": {"cap_a": 5, "cap_b": 7},
        "method": "patientnode",
    }
    cfg = config_from_dict(raw, base_dir="/base")
    echoed = cfg.to_dict()
    again = config_from_dict(echoed, base_dir="/other")
    # echoed paths are already absolute, so the second base_dir is inert
    assert again.to_dict() == echoed
    assert echoed["gates"] == {"cap_a": 5, "cap_b": 7}
    assert echoed["head"]["patientnode_hidden"] == 4
    assert echoed["method"] == "patientnode"


def test_to_dict_round_trip_synthetic_and_load():
    cfg = config_from_dict({"data": {"synthetic": {"n_items": 30}},
                            "backbone": {"load": "/ckpt/backbone.kge"}})
    echoed = cfg.to_dict()
    assert echoed["data"] == {"synthetic": {"n_items": 30}}
    assert echoed["backbone"] == {"load": "/ckpt/backbone.kge"}
    assert "gates" not in echoed  # caps unset, key omitted
    again = config_from_dict(echoed)
    assert again.backbone_load == "/ckpt/backbone.kge"
    assert again.data.synthetic == {"n_items": 30}


def test_load_config_errors(tmp_path):
    bad_yaml = tmp_path / "bad.yaml"
    bad_yaml.write_text("data: [unclosed\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(str(bad_yaml))

    listy = tmp_path / "list.yaml"
    listy.write_text("- 1\n- 2\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="mapping at top level"):
        load_config(str(listy))

    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.yaml"))

    latin = tmp_path / "latin.yaml"
    latin.write_bytes(b"method: base\n# caf\xe9\n")  # Latin-1, not UTF-8
    with pytest.raises(ConfigError, match=f"^config: cannot read {re.escape(str(latin))}: "
                                          "'utf-8' codec can't decode byte 0xe9"):
        load_config(str(latin))


def test_yaml_infinity_refused(tmp_path):
    path = tmp_path / "inf.yaml"
    path.write_text("data: {triples_dir: t}\nbackbone: {learning_rate: .inf}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="^config: backbone.learning_rate must be positive and "
                                          "finite$"):
        load_config(str(path))


def test_save_and_load_config(tmp_path):
    path = str(tmp_path / "cfg.yaml")
    save_config({"data": {"triples_dir": "triples"}, "method": "base"}, path)
    cfg = load_config(path)
    assert cfg.method == "base"
    assert cfg.data.triples_dir == os.path.join(str(tmp_path), "triples")


def test_every_range_rule_names_a_field_of_its_section():
    for section, rules in RANGES.items():
        assert set(rules) <= set(SECTIONS[section]), section


def test_every_section_annotation_is_one_the_walker_handles():
    # a module without `from __future__ import annotations` would give types,
    # not strings, and the walker would not recognise them
    kinds = {"int", "float", "str", "list[int]", "dict"}  # each also as "X | None"
    for section, types in SECTIONS.items():
        for key, annotation in types.items():
            assert isinstance(annotation, str), f"{section}.{key}"
            assert annotation.removesuffix(" | None") in kinds, f"{section}.{key}"


def _valid(section, key, annotation):
    """Values of one key, drawn by its annotation and kept within its range rule."""
    kind = annotation.removesuffix(" | None")
    values = {"int": st.integers(-3, 120),
              "float": st.integers(-3, 5) | st.floats(-1.0, 10.0),
              "list[int]": st.lists(st.integers(0, 20), min_size=1, max_size=4)}[kind]
    if kind != annotation:
        values = values | st.none()
    _, holds = RANGES.get(section, {}).get(key, (None, lambda v: True))
    return values.filter(lambda v: v is None or holds(v))


def _sections(name):
    return st.fixed_dictionaries({}, optional={
        k: _valid(name, k, t) for k, t in SECTIONS[name].items()})


_PATH = st.sampled_from(["t", "sub/i.tsv", "/abs/g.yaml"])
# deferred, so a section the walker cannot read fails the annotation test,
# not the collection of this module
_CONFIGS = st.deferred(lambda: st.fixed_dictionaries(
    {"data": st.fixed_dictionaries({"triples_dir": _PATH}, optional={
        "interactions_path": _PATH, "grouping_path": _PATH})
     | st.fixed_dictionaries({"synthetic": _sections("data.synthetic")})},
    optional={"backbone": _sections("backbone") | st.fixed_dictionaries({"load": _PATH}),
              **{name: _sections(name) for name in ("profile", "head", "eval", "gates")},
              "method": st.sampled_from(METHODS)}))


@settings(max_examples=200, deadline=None)
@given(raw=_CONFIGS)
def test_to_dict_round_trips_generated_configs(raw):
    echoed = config_from_dict(raw, base_dir="/base").to_dict()
    again = config_from_dict(echoed, base_dir="/other").to_dict()
    # compared as JSON text, so an int left in a float field would show
    assert json.dumps(again, sort_keys=True) == json.dumps(echoed, sort_keys=True)
    assert (json.dumps(echoed["data"].get("synthetic"), sort_keys=True)
            == json.dumps(raw["data"].get("synthetic"), sort_keys=True))  # as given
    for name in ("backbone", "profile", "head", "eval"):
        for key, annotation in SECTIONS[name].items():
            if annotation == "float" and key in echoed[name]:
                assert isinstance(echoed[name][key], float), f"{name}.{key}"
