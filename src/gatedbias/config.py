"""Pipeline configuration: one structured file drives every stage.

The schema is closed and typed: each section's keys and types are the fields
of its dataclass, every range rule sits in RANGES, and unknown keys are
rejected, so typos fail loudly at load. Every default is materialized then and
echoed into run reports, which makes any report re-runnable as-is. Every
section's dataclass and the package's error types live here, so this module
imports nothing else from the package.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, fields

import yaml

METHODS = ("base", "patientnode", "gatedbias")

# synth's item communities; data.synthetic.n_items must cover each of them
N_COMMUNITIES = 10


class ConfigError(ValueError):
    """Invalid configuration: bad value, unknown key, or unusable dataset layout."""


class CheckpointError(ValueError):
    """A saved artifact (embeddings, head checkpoint) is corrupt or mismatched."""


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message carries a [stage] tag."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass
class SynthParams:
    n_items: int = 200
    n_attrs_per_group: int = 20
    n_users: int = 100
    preference_skew: float = 1.0
    seed: int = 0

    @property
    def n_planted_attrs(self) -> int:
        return max(2, self.n_attrs_per_group // 10)


@dataclass
class DataConfig:
    triples_dir: str | None = None
    interactions_path: str | None = None
    grouping_path: str | None = None
    synthetic: dict | None = None


@dataclass
class BackboneTrainConfig:
    """Backbone trainer settings. batch_size counts train triples, so a batch
    holds batch_size * negatives_per_positive pairs."""

    dim: int = 32
    epochs: int = 200
    learning_rate: float = 0.05
    batch_size: int = 256
    negatives_per_positive: int = 1
    margin: float = 1.0
    seed: int = 0


@dataclass
class HeadTrainConfig:
    """Head trainer settings; batch_size counts pairs."""

    batch_size: int = 4096
    learning_rate: float = 1e-3
    epochs: int = 5
    lambda1: float = 1e-4
    lambda2: float = 1e-4
    negatives_per_positive: int = 1
    seed: int = 0


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
        """The config as config_from_dict reads it: defaults filled in, paths
        resolved, data.synthetic as given, gates only when a cap is set."""
        out = {
            "data": {k: v for k, v in asdict(self.data).items() if v is not None},
            "backbone": ({"load": self.backbone_load} if self.backbone_load
                         else asdict(self.backbone)),
            "profile": asdict(self.profile),
            "head": {**asdict(self.head), "patientnode_hidden": self.patientnode_hidden},
            "eval": asdict(self.eval),
            "method": self.method,
        }
        gates = asdict(self.gates)
        if any(v is not None for v in gates.values()):
            out["gates"] = gates
        return out


def _fields(cls) -> dict[str, str]:
    return {f.name: f.type for f in fields(cls)}


# config section -> {key: type annotation}, read off the section's dataclass
SECTIONS = {
    "data": _fields(DataConfig),
    "data.synthetic": _fields(SynthParams),
    "backbone": _fields(BackboneTrainConfig),
    "profile": _fields(ProfileConfig),
    "head": {**_fields(HeadTrainConfig), "patientnode_hidden": "int"},
    "eval": _fields(EvalSettings),
    "gates": _fields(GatesConfig),
}

# the scalar annotations _typed handles: the types each accepts, and its noun
_SCALARS = {"int": (int, "an integer"), "float": ((int, float), "a number"),
            "str": (str, "a string")}

# each rule is (message, test the value must pass, which NaN fails); None is exempt
_POSITIVE = ("must be positive and finite", lambda v: 0 < v < math.inf)
_NON_NEGATIVE = ("must be >= 0 and finite", lambda v: 0 <= v < math.inf)
_AT_LEAST_ONE = ("must be >= 1", lambda v: v >= 1)

# section -> key -> rule
RANGES = {
    "data.synthetic": {"n_items": (f"must be >= {N_COMMUNITIES}", lambda v: v >= N_COMMUNITIES),
                       "n_attrs_per_group": ("must be >= 5", lambda v: v >= 5),
                       "n_users": _AT_LEAST_ONE,
                       "preference_skew": ("must be in [0, 1]", lambda v: 0 <= v <= 1),
                       "seed": _NON_NEGATIVE},
    "backbone": {"dim": _POSITIVE, "learning_rate": _POSITIVE, "batch_size": _POSITIVE,
                 "negatives_per_positive": _POSITIVE, "margin": _POSITIVE,
                 "epochs": _NON_NEGATIVE,  # epochs=0 is the documented no-op training case
                 "seed": _NON_NEGATIVE},
    "profile": {"scale_alpha": _POSITIVE, "cap_tau": _POSITIVE},
    "head": {"batch_size": _POSITIVE, "learning_rate": _POSITIVE, "epochs": _POSITIVE,
             "negatives_per_positive": _POSITIVE, "lambda1": _NON_NEGATIVE,
             "lambda2": _NON_NEGATIVE, "seed": _NON_NEGATIVE,
             "patientnode_hidden": _AT_LEAST_ONE},
    "eval": {"ks": ("entries must be >= 1", lambda ks: min(ks) >= 1),
             "percentile_p": ("must be in (0, 100]", lambda p: 0 < p <= 100),
             "epsilon": _NON_NEGATIVE, "n_shuffles": _AT_LEAST_ONE,
             "seeds": ("entries must be distinct and >= 0",
                       lambda seeds: len(set(seeds)) == len(seeds) and min(seeds) >= 0)},
    "gates": {"cap_a": _AT_LEAST_ONE, "cap_b": _AT_LEAST_ONE},
}


def _require_mapping(node, where: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"config: {where} must be a mapping, got {type(node).__name__}")
    return node


def _reject_unknown(node: dict, allowed, prefix: str) -> None:
    unknown = [k for k in node if k not in allowed]
    if unknown:
        raise ConfigError(f"config: unknown key {prefix}{unknown[0]}")


def _typed(value, where: str, annotation: str):
    """value checked against a field annotation: a key of _SCALARS, list[int]
    or dict, each also as "X | None"; ints widen to float."""
    kind = annotation.removesuffix(" | None")
    if value is None and kind != annotation:
        return None
    if kind == "dict":
        return dict(_require_mapping(value, where))
    if kind == "list[int]":
        if not isinstance(value, list) or not value:
            raise ConfigError(f"config: {where} must be a non-empty list of integers")
        return [_typed(v, where, "int") for v in value]
    types, noun = _SCALARS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"config: {where} must be {noun}, got {value!r}")
    return float(value) if kind == "float" else value


def _section(node, where: str, types: dict[str, str]) -> dict:
    """The keys given in the mapping node, typed by their annotations in types
    and checked against their RANGES rules. Unknown keys are rejected."""
    node = _require_mapping(node, where)
    _reject_unknown(node, types, f"{where}.")
    given = {k: _typed(v, f"{where}.{k}", types[k]) for k, v in node.items()}
    for key, (message, holds) in RANGES.get(where, {}).items():
        if given.get(key) is not None and not holds(given[key]):
            raise ConfigError(f"config: {where}.{key} {message}")
    return given


def _resolve(path: str, base_dir: str) -> str:
    return path if os.path.isabs(path) else os.path.normpath(os.path.join(base_dir, path))


def synth_params(values: dict) -> SynthParams:
    """The data.synthetic mapping values, typed and range-checked, as SynthParams."""
    return SynthParams(**_section(values, "data.synthetic", SECTIONS["data.synthetic"]))


def load_config(path: str, overrides: dict | None = None) -> PipelineConfig:
    """Parse and validate the YAML file at path. Each overrides entry replaces
    the file's top-level value; a mapping is merged one level into the file's
    mapping or absent key only, so a section that is not a mapping is refused."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config: {path} must contain a mapping at top level")
    for key, value in (overrides or {}).items():
        node = raw.get(key)
        if isinstance(value, dict) and isinstance(node, dict):
            raw[key] = {**node, **value}
        elif node is None or not isinstance(value, dict):
            raw[key] = value
    return config_from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def config_from_dict(raw: dict, base_dir: str = ".") -> PipelineConfig:
    _reject_unknown(raw, ("data", "backbone", "profile", "head", "eval", "gates", "method"), "")

    # data: the three paths, or a synthetic block that replaces all of them
    data = _section(raw.get("data"), "data", SECTIONS["data"])
    synthetic = data.pop("synthetic", None)
    if synthetic is not None:
        if data:
            raise ConfigError(f"config: data.synthetic and data.{next(iter(data))} "
                              "are mutually exclusive")
        synth_params(synthetic)
    elif data.get("triples_dir") is None:
        raise ConfigError("config: data needs either triples_dir or synthetic")
    data = DataConfig(**{k: _resolve(v, base_dir) for k, v in data.items() if v is not None},
                      synthetic=synthetic)  # echoed as given: no defaults, no widening

    # backbone: either {load: path} or trainer settings
    bb_node = _require_mapping(raw.get("backbone"), "backbone")
    if "load" in bb_node:
        load = _section(bb_node, "backbone", {"load": "str"})["load"]
        backbone_load, backbone = _resolve(load, base_dir), BackboneTrainConfig()
    else:
        backbone_load = None
        backbone = BackboneTrainConfig(**_section(bb_node, "backbone", SECTIONS["backbone"]))

    given = {name: _section(raw.get(name), name, SECTIONS[name])
             for name in ("profile", "head", "eval", "gates")}
    patientnode_hidden = given["head"].pop("patientnode_hidden", 16)

    method = raw.get("method", "gatedbias")
    if method not in METHODS:
        raise ConfigError(f"config: method must be one of {METHODS}, got {method!r}")

    return PipelineConfig(
        data=data, backbone=backbone, backbone_load=backbone_load,
        profile=ProfileConfig(**given["profile"]), head=HeadTrainConfig(**given["head"]),
        patientnode_hidden=patientnode_hidden, eval=EvalSettings(**given["eval"]),
        gates=GatesConfig(**given["gates"]), method=method)
