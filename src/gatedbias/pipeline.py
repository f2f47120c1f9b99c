"""End-to-end orchestration: data → gates → profiles → backbone → head → eval.

Each stage failure is re-raised as a PipelineError tagged with the stage name.
`run`, `eval` and `compare` share one body: it prepares the data, the gates
and profiles, the backbone and the query set once, then runs each method's
seed loop and writes that method's report. `run` and `eval` pass one method
and differ only in where the backbone and the per-seed heads come from: `run`
trains and saves them, `eval` loads them. `compare` runs all three methods.
Runs are reproducible from (config, seeds): the backbone is trained once per
run, and per-seed variation enters only through head training and the
shuffle/permutation seeds.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
from contextlib import contextmanager
from datetime import datetime, timezone

import numpy as np

from . import bias_head, evaluator, synth
from .backbone import EmbeddingTable, load_embeddings, save_embeddings, train_backbone
from .config import METHODS, ConfigError, DataConfig, PipelineConfig, PipelineError, SynthParams
from .kg_store import (GROUP_TAGS, TripleStore, atomic_write, build_gates, build_profile,
                       build_universe, load_grouping, load_interactions, load_triples,
                       write_json)

log = logging.getLogger(__name__)


@contextmanager
def _stage(name: str):
    try:
        yield
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc


def task_train_store(store: TripleStore, grouping: dict[str, list[int]]) -> TripleStore:
    """View of the store whose train split keeps only task relations (those
    in neither attribute group). Heads train on the prediction task itself;
    grouped triples shape gates and universes but are not hinge supervision.
    Falls back to the full split when every relation is grouped."""
    task_rels = np.array(grouping["none"], dtype=np.int64)
    mask = np.isin(store.train[:, 1], task_rels)
    if not mask.any():
        log.warning("every relation is grouped; heads train on all train triples")
        return store
    return dataclasses.replace(store, train=store.train[mask])


def materialize_data(cfg: PipelineConfig, out_dir: str, write: bool = True) -> DataConfig:
    """The dataset as file paths. A synthetic one lives in out_dir/dataset:
    written there with write, else read as an earlier run wrote it."""
    if cfg.data.synthetic is None:
        return cfg.data
    dataset_dir = os.path.join(out_dir, "dataset")
    params = SynthParams(**cfg.data.synthetic)
    if write:
        synth.generate(params, dataset_dir)
    else:
        manifest = os.path.join(dataset_dir, synth.MANIFEST)
        if not os.path.exists(manifest):
            raise FileNotFoundError(f"no synthetic dataset at {dataset_dir}; "
                                    "run the pipeline first")
        try:
            with open(manifest, encoding="utf-8") as fh:
                written = json.load(fh)["params"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{manifest} is damaged ({type(exc).__name__}: {exc})") from exc
        if written != vars(params):
            raise ValueError(f"{dataset_dir} was generated with {written}, "
                             f"not with data.synthetic {vars(params)}")
    return DataConfig(**{field: os.path.join(dataset_dir, rel)
                         for field, rel in synth.DATA_LAYOUT.items()})


def _obtain_backbone(cfg: PipelineConfig, store: TripleStore, out_dir: str,
                     train: bool) -> EmbeddingTable:
    path = cfg.backbone_load or os.path.join(out_dir, "backbone.kge")
    if train and not cfg.backbone_load:
        table = train_backbone(store, cfg.backbone)
        save_embeddings(table, path)
        return table
    if not os.path.exists(path):  # a configured path is the user's to fix
        raise FileNotFoundError(f"backbone.load: no checkpoint at {path}" if cfg.backbone_load
                                else f"no backbone checkpoint at {path}; run the pipeline first")
    return load_embeddings(path, expected_entities=store.num_entities,
                           expected_relations=store.num_relations)


def run_pipeline(cfg: PipelineConfig, out_dir: str) -> dict:
    """Train the backbone and the per-seed heads, save them under out_dir,
    evaluate, write report.json and ranks.tsv, and return the report."""
    return _run([(cfg, out_dir)], train=True)[0]


def run_eval(cfg: PipelineConfig, out_dir: str) -> dict:
    """Re-evaluate from the checkpoints in out_dir without training anything."""
    return _run([(cfg, out_dir)], train=False)[0]


def _run(runs: list[tuple[PipelineConfig, str]], train: bool) -> list[dict]:
    """One body for every command. runs holds each method's config, as its
    report echoes it, and its output directory; all share the data, gates,
    profile, head and eval settings of the first. With train, the backbone
    (unless backbone.load is set) and the per-seed heads are trained and
    saved; without, they are loaded: the backbone from backbone.load or
    <out>/backbone.kge, the heads from their per-seed checkpoints. Returns
    the reports in the order of runs."""
    cfg, out_dir = runs[0]
    methods = {c.method for c, _ in runs}
    with _stage("data"):
        data = materialize_data(cfg, out_dir, write=train)
        store = load_triples(data.triples_dir)
        if store.test.shape[0] == 0:
            raise ConfigError(f"no test triples to rank in {data.triples_dir}")
        if "gatedbias" in methods:
            for key in ("grouping_path", "interactions_path"):
                if getattr(data, key) is None:
                    raise ConfigError(f"method=gatedbias needs data.{key}")
            if store.test.shape[0] < 2:
                raise ConfigError("method=gatedbias needs at least 2 test triples "
                                  "for its paired test")
        grouping = None
        if data.grouping_path is not None and methods != {"base"}:
            grouping = load_grouping(data.grouping_path, store)
            for tag in GROUP_TAGS:
                if "gatedbias" in methods and not grouping[tag]:
                    raise ConfigError(f"relation group {tag} is empty; "
                                      "personalization needs both groups")
        head_store = store if grouping is None else task_train_store(store, grouping)

    # gates and profiles read no backbone, so a bad log fails before it trains
    gates = features = universes = None
    if "gatedbias" in methods:
        with _stage("gates"):
            gates = tuple(build_gates(store, grouping, tag,
                                      build_universe(store, grouping, tag, cap=cap))
                          for tag, cap in zip(GROUP_TAGS, (cfg.gates.cap_a, cfg.gates.cap_b)))
            universes = {}
            for tag, g in zip(GROUP_TAGS, gates):
                universes.update({f"size_{tag.lower()}": g.num_columns,
                                  f"checksum_{tag.lower()}": g.checksum()})
        with _stage("profiles"):
            histories = load_interactions(data.interactions_path, store)
            features = tuple(build_profile(histories, g, cfg.profile.scale_alpha,
                                           cfg.profile.cap_tau) for g in gates)

    with _stage("backbone"):
        # one table per backbone source: compare's patientnode and gatedbias
        # share one read of the checkpoint its base run saved
        tables: dict[str | None, EmbeddingTable] = {}
        for c, out in runs:
            if c.backbone_load not in tables:
                tables[c.backbone_load] = _obtain_backbone(c, store, out, train)

    with _stage("evaluate"):
        queries = evaluator.query_set(store)
        checksum = queries.checksum()
    ent, rel = list(store.entity_vocab), list(store.relation_vocab)
    labels = [f"{ent[h]}\t{rel[r]}\t{ent[t]}" for h, r, t in store.test.tolist()]

    reports = []
    for c, out in runs:
        table = tables[c.backbone_load]
        per_seed: list[dict] = []
        seed_ranks: list[tuple[int, np.ndarray]] = []
        head = ranks = None
        for run_seed in c.eval.seeds:
            head_cfg = dataclasses.replace(c.head, seed=c.head.seed + run_seed)
            with _stage("head"):
                if c.method == "patientnode":
                    ckpt = os.path.join(out, f"patientnode_seed{run_seed}.json")
                    if train:
                        head = bias_head.train_patientnode(head_store, table, head_cfg,
                                                           hidden=c.patientnode_hidden)
                        bias_head.save_patientnode(head, head_cfg, table, ckpt)
                    else:
                        head = bias_head.load_patientnode(ckpt, head_cfg, table,
                                                          c.patientnode_hidden)
                elif c.method == "gatedbias":
                    ckpt = os.path.join(out, f"head_seed{run_seed}.json")
                    if train:
                        head = bias_head.train_head(head_store, table, gates, features, head_cfg)
                        bias_head.save_head(head, head_cfg, table, gates, ckpt)
                    else:
                        head = bias_head.load_head(ckpt, head_cfg, table, gates)
            with _stage("evaluate"):
                battery: dict = {}
                if c.method == "gatedbias":
                    contrib = bias_head.compute_bias(head, gates, features)
                    ranks, battery = evaluator.gated_battery(
                        queries, table, head, gates, features, contrib, c.eval, run_seed)
                elif head is not None or ranks is None:  # base (no head): once per run
                    stack = None if head is None else [
                        bias_head.compute_bias_patientnode(head, table)]
                    ranks = evaluator.compute_rank_table(queries, table, stack)[0]
                params = 0 if head is None else bias_head.param_count(head)
                per_seed.append({**evaluator.ranking_metrics(ranks, c.eval.ks), **battery,
                                 "param_count": params})
                seed_ranks.append((run_seed, ranks))

        report = {
            "artifact": "gatedbias-run" if train else "gatedbias-eval",
            "method": c.method,
            "config": c.to_dict(),
            "backbone_checksum": table.checksum(),
            "query_checksum": checksum,
            "dataset": {
                "num_entities": store.num_entities,
                "num_relations": store.num_relations,
                "train": int(store.train.shape[0]),
                "valid": int(store.valid.shape[0]),
                "test": int(store.test.shape[0]),
            },
            "universes": universes if c.method == "gatedbias" else None,
            "param_count": per_seed[-1]["param_count"],
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "report": evaluator.eval_report(list(c.eval.seeds), per_seed),
        }
        with _stage("report"):
            _write_report(report, labels, seed_ranks, out)
        reports.append(report)
    return reports


def _write_report(report: dict, labels: list[str], seed_ranks: list[tuple[int, np.ndarray]],
                  out_dir: str) -> None:
    """report.json, and ranks.tsv from each seed's rank row: one line per
    seed and test query, the query's tab-joined labels from labels."""
    write_json(os.path.join(out_dir, "report.json"), report)
    with atomic_write(os.path.join(out_dir, "ranks.tsv")) as fh:
        fh.write("seed\thead\trelation\ttrue_tail\trank\n")
        for seed, ranks in seed_ranks:
            fh.writelines(f"{seed}\t{label}\t{rank}\n"
                          for label, rank in zip(labels, ranks.tolist()))


def run_compare(cfg: PipelineConfig, out_dir: str) -> dict:
    """Run base, patientnode and gatedbias under identical data and seeds,
    each writing its report under out_dir/<method>.

    The one body prepares the data, the query set and the backbone once. The
    base run trains the backbone (unless backbone.load is set) and saves it;
    patientnode and gatedbias echo that checkpoint as their backbone.load and
    share one read of it; save/load round-trips bit-exact. Paths handed to
    the methods are absolute, so their reports echo re-runnable configs
    however out_dir was spelled.
    """
    out_dir = os.path.abspath(out_dir)
    with _stage("data"):
        data = materialize_data(cfg, out_dir)
    shared = cfg.backbone_load or os.path.join(out_dir, "base", "backbone.kge")
    runs = [(dataclasses.replace(cfg, method=m, data=data,
                                 backbone_load=cfg.backbone_load if m == "base" else shared),
             os.path.join(out_dir, m)) for m in METHODS]
    reports = dict(zip(METHODS, _run(runs, train=True)))

    comparison = {
        "artifact": "gatedbias-compare",
        "query_checksum": reports["base"]["query_checksum"],
        "seeds": list(cfg.eval.seeds),
        "methods": {
            m: {
                "param_count": r["param_count"],
                "aggregate": r["report"]["aggregate"],
            }
            for m, r in reports.items()
        },
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    with _stage("report"):
        write_json(os.path.join(out_dir, "compare.json"), comparison)
        with atomic_write(os.path.join(out_dir, "compare.tsv")) as fh:
            fh.write(format_comparison(comparison))
    return comparison


def format_comparison(comparison: dict) -> str:
    """Side-by-side TSV of the headline metrics per method."""
    metric_keys: list[str] = []
    for m in METHODS:
        agg = comparison["methods"][m]["aggregate"]
        for k in agg:
            if k not in metric_keys and (k == "mrr" or k.startswith(("hits@", "ndcg@"))):
                metric_keys.append(k)
    lines = ["method\tadded_params\t" + "\t".join(metric_keys)]
    for m in METHODS:
        entry = comparison["methods"][m]
        cells = [m, str(entry["param_count"])]
        for k in metric_keys:
            agg = entry["aggregate"].get(k)
            if agg is None or agg["mean"] is None:
                cells.append("-")
            elif agg["stderr"] is None:
                cells.append(f"{agg['mean']:.4f}")
            else:
                cells.append(f"{agg['mean']:.4f}±{agg['stderr']:.4f}")
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"
