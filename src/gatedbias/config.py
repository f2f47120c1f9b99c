"""Pipeline configuration: one structured file drives every stage.

The schema is closed: unknown keys are rejected rather than ignored, so typos
fail loudly. Every default is materialized at load time and echoed into run
reports, which makes any report re-runnable as-is.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import yaml

from .backbone import BackboneTrainConfig
from .bias_head import HeadTrainConfig
from .errors import ConfigError

METHODS = ("base", "patientnode", "gatedbias")

SYNTH_KEYS = ("n_items", "n_attrs_per_group", "n_users", "preference_skew", "seed")


@dataclass
class DataConfig:
    triples_dir: str | None = None
    interactions_path: str | None = None
    grouping_path: str | None = None
    synthetic: dict | None = None


@dataclass
class ProfileConfig:
    scale_alpha: float = 0.1
    cap_tau: float = 0.5


@dataclass
class GatesConfig:
    cap_a: int | None = None
    cap_b: int | None = None


@dataclass
class EvalSettings:
    ks: list[int] = field(default_factory=lambda: [1, 3, 10])
    percentile_p: int = 70
    epsilon: float = 0.1
    n_shuffles: int = 20
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])


@dataclass
class PipelineConfig:
    data: DataConfig
    backbone: BackboneTrainConfig
    backbone_load: str | None
    profile: ProfileConfig
    head: HeadTrainConfig
    patientnode_hidden: int
    eval: EvalSettings
    gates: GatesConfig
    method: str
    def to_dict(self) -> dict:
        data: dict = {}
        if self.data.synthetic is not None:
            data["synthetic"] = dict(self.data.synthetic)
        else:
            data["triples_dir"] = self.data.triples_dir
            if self.data.interactions_path is not None:
                data["interactions_path"] = self.data.interactions_path
            if self.data.grouping_path is not None:
                data["grouping_path"] = self.data.grouping_path
        backbone = {"load": self.backbone_load} if self.backbone_load else dict(vars(self.backbone))
        head = dict(vars(self.head))
        head["patientnode_hidden"] = self.patientnode_hidden
        out = {
            "data": data,
            "backbone": backbone,
            "profile": dict(vars(self.profile)),
            "head": head,
            "eval": {
                "ks": list(self.eval.ks),
                "percentile_p": self.eval.percentile_p,
                "epsilon": self.eval.epsilon,
                "n_shuffles": self.eval.n_shuffles,
                "seeds": list(self.eval.seeds),
            },
            "method": self.method,
        }
        if self.gates.cap_a is not None or self.gates.cap_b is not None:
            out["gates"] = {"cap_a": self.gates.cap_a, "cap_b": self.gates.cap_b}
        return out


def _require_mapping(node, where: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"config: {where} must be a mapping, got {type(node).__name__}")
    return node


def _reject_unknown(node: dict, allowed, where: str) -> None:
    unknown = [k for k in node if k not in allowed]
    if unknown:
        raise ConfigError(f"config: unknown key {where}.{unknown[0]}" if where
                          else f"config: unknown key {unknown[0]}")


def _as_int(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"config: {where} must be an integer, got {v!r}")
    return v


def _as_float(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"config: {where} must be a number, got {v!r}")
    return float(v)


def _as_str(v, where: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"config: {where} must be a string, got {v!r}")
    return v


def _as_int_list(v, where: str) -> list[int]:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"config: {where} must be a non-empty list of integers")
    return [_as_int(x, where) for x in v]


def _check_ranges(settings, where: str, positive, non_negative) -> None:
    for name in positive:
        if getattr(settings, name) <= 0:
            raise ConfigError(f"config: {where}.{name} must be positive")
    for name in non_negative:
        if getattr(settings, name) < 0:
            raise ConfigError(f"config: {where}.{name} must be >= 0")


def _resolve(path: str | None, base_dir: str) -> str | None:
    if path is None:
        return None
    return path if os.path.isabs(path) else os.path.normpath(os.path.join(base_dir, path))


def load_config(path: str, overrides: dict | None = None) -> PipelineConfig:
    """Parse and validate the YAML file at path. Each overrides entry replaces
    the file's top-level value, or for a mapping is merged one level into it;
    the merged mapping is validated as a whole."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config: {path} must contain a mapping at top level")
    for key, value in (overrides or {}).items():
        node = raw.get(key)
        merge = isinstance(value, dict) and isinstance(node, dict)
        raw[key] = {**node, **value} if merge else value
    return config_from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def config_from_dict(raw: dict, base_dir: str = ".") -> PipelineConfig:
    _reject_unknown(raw, {"data", "backbone", "profile", "head", "eval", "gates", "method"}, "")

    # data
    data_node = _require_mapping(raw.get("data"), "data")
    _reject_unknown(data_node, {"triples_dir", "interactions_path", "grouping_path", "synthetic"},
                    "data")
    synthetic = data_node.get("synthetic")
    if synthetic is not None:
        synthetic = _require_mapping(synthetic, "data.synthetic")
        _reject_unknown(synthetic, SYNTH_KEYS, "data.synthetic")
        if "triples_dir" in data_node:
            raise ConfigError("config: data.synthetic and data.triples_dir are mutually exclusive")
        for k in ("n_items", "n_attrs_per_group", "n_users", "seed"):
            if k in synthetic:
                _as_int(synthetic[k], f"data.synthetic.{k}")
        if "preference_skew" in synthetic:
            _as_float(synthetic["preference_skew"], "data.synthetic.preference_skew")
        synthetic = dict(synthetic)
    elif "triples_dir" not in data_node:
        raise ConfigError("config: data needs either triples_dir or synthetic")
    data = DataConfig(
        triples_dir=_resolve(data_node.get("triples_dir"), base_dir),
        interactions_path=_resolve(data_node.get("interactions_path"), base_dir),
        grouping_path=_resolve(data_node.get("grouping_path"), base_dir),
        synthetic=synthetic,
    )

    # backbone: either {load: path} or trainer settings
    bb_node = _require_mapping(raw.get("backbone"), "backbone")
    backbone_load = None
    backbone = BackboneTrainConfig()
    if "load" in bb_node:
        _reject_unknown(bb_node, {"load"}, "backbone")
        backbone_load = _resolve(_as_str(bb_node["load"], "backbone.load"), base_dir)
    else:
        fields = {"dim", "epochs", "learning_rate", "batch_size",
                  "negatives_per_positive", "margin", "seed"}
        _reject_unknown(bb_node, fields, "backbone")
        kwargs = {}
        for k in bb_node:
            if k in ("learning_rate", "margin"):
                kwargs[k] = _as_float(bb_node[k], f"backbone.{k}")
            else:
                kwargs[k] = _as_int(bb_node[k], f"backbone.{k}")
        backbone = BackboneTrainConfig(**kwargs)
        _check_ranges(backbone, "backbone",
                      ("dim", "learning_rate", "batch_size", "negatives_per_positive", "margin"),
                      ("epochs", "seed"))  # epochs=0 is the documented no-op training case

    # profile
    prof_node = _require_mapping(raw.get("profile"), "profile")
    _reject_unknown(prof_node, {"scale_alpha", "cap_tau"}, "profile")
    profile = ProfileConfig(
        scale_alpha=_as_float(prof_node["scale_alpha"], "profile.scale_alpha")
        if "scale_alpha" in prof_node else 0.1,
        cap_tau=_as_float(prof_node["cap_tau"], "profile.cap_tau")
        if "cap_tau" in prof_node else 0.5,
    )

    # head
    head_node = _require_mapping(raw.get("head"), "head")
    head_fields = {"batch_size", "learning_rate", "epochs", "lambda1", "lambda2",
                   "negatives_per_positive", "seed", "patientnode_hidden"}
    _reject_unknown(head_node, head_fields, "head")
    kwargs = {}
    for k in head_node:
        if k == "patientnode_hidden":
            continue
        if k in ("learning_rate", "lambda1", "lambda2"):
            kwargs[k] = _as_float(head_node[k], f"head.{k}")
        else:
            kwargs[k] = _as_int(head_node[k], f"head.{k}")
    head = HeadTrainConfig(**kwargs)
    _check_ranges(head, "head", ("batch_size", "learning_rate", "epochs", "negatives_per_positive"),
                  ("lambda1", "lambda2", "seed"))
    patientnode_hidden = (_as_int(head_node["patientnode_hidden"], "head.patientnode_hidden")
                          if "patientnode_hidden" in head_node else 16)
    if patientnode_hidden < 1:
        raise ConfigError("config: head.patientnode_hidden must be >= 1")

    # eval
    eval_node = _require_mapping(raw.get("eval"), "eval")
    _reject_unknown(eval_node, {"ks", "percentile_p", "epsilon", "n_shuffles", "seeds"}, "eval")
    evals = EvalSettings()
    if "ks" in eval_node:
        evals.ks = _as_int_list(eval_node["ks"], "eval.ks")
    if "percentile_p" in eval_node:
        evals.percentile_p = _as_int(eval_node["percentile_p"], "eval.percentile_p")
    if "epsilon" in eval_node:
        evals.epsilon = _as_float(eval_node["epsilon"], "eval.epsilon")
    if "n_shuffles" in eval_node:
        evals.n_shuffles = _as_int(eval_node["n_shuffles"], "eval.n_shuffles")
    if "seeds" in eval_node:
        evals.seeds = _as_int_list(eval_node["seeds"], "eval.seeds")
    if any(k < 1 for k in evals.ks):
        raise ConfigError("config: eval.ks entries must be >= 1")
    if not 0 < evals.percentile_p <= 100:
        raise ConfigError("config: eval.percentile_p must be in (0, 100]")
    if evals.epsilon < 0:
        raise ConfigError("config: eval.epsilon must be >= 0")
    if evals.n_shuffles < 1:
        raise ConfigError("config: eval.n_shuffles must be >= 1")

    # gates
    gates_node = _require_mapping(raw.get("gates"), "gates")
    _reject_unknown(gates_node, {"cap_a", "cap_b"}, "gates")
    gates = GatesConfig()
    for attr in ("cap_a", "cap_b"):
        if attr in gates_node and gates_node[attr] is not None:
            v = _as_int(gates_node[attr], f"gates.{attr}")
            if v < 1:
                raise ConfigError(f"config: gates.{attr} must be >= 1")
            setattr(gates, attr, v)

    method = raw.get("method", "gatedbias")
    if method not in METHODS:
        raise ConfigError(f"config: method must be one of {METHODS}, got {method!r}")

    return PipelineConfig(
        data=data,
        backbone=backbone,
        backbone_load=backbone_load,
        profile=profile,
        head=head,
        patientnode_hidden=patientnode_hidden,
        eval=evals,
        gates=gates,
        method=method,
    )


def save_config(cfg_dict: dict, path: str) -> None:
    """Write a config mapping as YAML (stable key order)."""
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg_dict, fh, sort_keys=True, default_flow_style=False)
