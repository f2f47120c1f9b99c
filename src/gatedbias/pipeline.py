"""End-to-end orchestration: data → backbone → gates → profiles → head → eval.

Each stage failure is re-raised as a PipelineError tagged with the stage name.
`run` and `eval` share one body and differ only in where the backbone and the
per-seed heads come from: `run` trains and saves them, `eval` loads them.
Runs are reproducible from (config, seeds): the backbone is trained once per
run, and per-seed variation enters only through head training and the
shuffle/permutation seeds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
from contextlib import contextmanager
from datetime import datetime, timezone

import numpy as np

from . import bias_head, evaluator, synth
from .backbone import EmbeddingTable, load_embeddings, save_embeddings, train_backbone
from .config import DataConfig, PipelineConfig
from .errors import ConfigError, PipelineError
from .evaluator import ALIGNMENT_K, EvalContext, EvalReport, QuerySet
from .fileio import atomic_write, write_json
from .kg_store import (TripleStore, build_gates, build_universe, load_grouping,
                       load_triples)
from .profile_builder import build_profile, load_interactions

log = logging.getLogger(__name__)

METHOD_ORDER = ("base", "patientnode", "gatedbias")


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc


def query_checksum(queries: QuerySet) -> str:
    """Digest of the test queries and their filter sets (fairness contract)."""
    h = hashlib.sha256()
    triples = np.column_stack([queries.heads, queries.rels, queries.true_tails])
    h.update(triples.astype(np.int64).tobytes())
    for i in range(len(queries)):
        h.update(queries.filter(i).astype(np.int64).tobytes())
    return h.hexdigest()


def task_train_store(store: TripleStore, grouping) -> TripleStore:
    """View of the store whose train split keeps only task relations (those
    in neither attribute group). Heads train on the prediction task itself;
    grouped triples shape gates and universes but are not hinge supervision.
    Falls back to the full split when every relation is grouped."""
    task_rels = np.array(grouping.relations_in("none"), dtype=np.int64)
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
    params = synth.SynthParams(**cfg.data.synthetic)
    if write:
        synth.generate(params, dataset_dir)
    else:
        manifest = os.path.join(dataset_dir, "manifest.json")
        if not os.path.exists(manifest):
            raise FileNotFoundError(f"no synthetic dataset at {dataset_dir}; "
                                    "run the pipeline first")
        with open(manifest, encoding="utf-8") as fh:
            written = json.load(fh)["params"]
        if written != vars(params):
            raise ValueError(f"{dataset_dir} was generated with {written}, "
                             f"not with data.synthetic {vars(params)}")
    return DataConfig(
        triples_dir=os.path.join(dataset_dir, "triples"),
        interactions_path=os.path.join(dataset_dir, "interactions.tsv"),
        grouping_path=os.path.join(dataset_dir, "grouping.yaml"),
    )


def _obtain_backbone(cfg: PipelineConfig, store: TripleStore, out_dir: str,
                     train: bool) -> EmbeddingTable:
    path = cfg.backbone_load or os.path.join(out_dir, "backbone.kge")
    if train and not cfg.backbone_load:
        table = train_backbone(store, cfg.backbone)
        save_embeddings(table, path)
        return table
    if not os.path.exists(path):
        raise FileNotFoundError(f"no backbone checkpoint at {path}; run the pipeline first")
    return load_embeddings(path, expected_entities=store.num_entities,
                           expected_relations=store.num_relations)


def _cr_entries(tag: str, result: evaluator.CRResult | None) -> dict:
    if result is None:
        return {f"cr_{tag}": None, f"cr_{tag}_pct_improved": None}
    return {f"cr_{tag}": result.cr, f"cr_{tag}_pct_improved": result.pct_improved}


def run_pipeline(cfg: PipelineConfig, out_dir: str) -> dict:
    """Train the backbone and the per-seed heads, save them under out_dir,
    evaluate, write report.json and ranks.tsv, and return the report."""
    return _run(cfg, out_dir, train=True)


def run_eval(cfg: PipelineConfig, out_dir: str) -> dict:
    """Re-evaluate from the checkpoints in out_dir without training anything."""
    return _run(cfg, out_dir, train=False)


def _run(cfg: PipelineConfig, out_dir: str, train: bool) -> dict:
    """One body for run and eval. With train, the backbone (unless
    backbone.load is set) and the per-seed heads are trained and saved;
    without, they are loaded: the backbone from backbone.load or
    out_dir/backbone.kge, the heads from their per-seed checkpoints."""
    with _stage("data"):
        data = materialize_data(cfg, out_dir, write=train)
        store = load_triples(data.triples_dir)
        grouping = None
        if cfg.method == "gatedbias":
            if data.grouping_path is None:
                raise ConfigError("method=gatedbias needs data.grouping_path")
            if data.interactions_path is None:
                raise ConfigError("method=gatedbias needs data.interactions_path")
            grouping = load_grouping(data.grouping_path, store)
            grouping.validate_for_personalization()
        elif cfg.method == "patientnode" and data.grouping_path is not None:
            grouping = load_grouping(data.grouping_path, store)
        head_store = store if grouping is None else task_train_store(store, grouping)

    with _stage("backbone"):
        table = _obtain_backbone(cfg, store, out_dir, train)

    gates_a = gates_b = None
    f_a = f_b = None
    universes_info = None
    if cfg.method == "gatedbias":
        with _stage("gates"):
            uni_a = build_universe(store, grouping, "A", cap=cfg.gates.cap_a)
            uni_b = build_universe(store, grouping, "B", cap=cfg.gates.cap_b)
            gates_a = build_gates(store, uni_a)
            gates_b = build_gates(store, uni_b)
            universes_info = {
                "size_a": len(uni_a), "size_b": len(uni_b),
                "checksum_a": uni_a.checksum(), "checksum_b": uni_b.checksum(),
            }
        with _stage("profiles"):
            log_data = load_interactions(data.interactions_path, store)
            f_a = build_profile(log_data, gates_a, cfg.profile.scale_alpha, cfg.profile.cap_tau)
            f_b = build_profile(log_data, gates_b, cfg.profile.scale_alpha, cfg.profile.cap_tau)

    per_seed: list[dict] = []
    rank_rows: list[tuple] = []
    param_count = 0

    with _stage("evaluate"):
        queries = evaluator.query_set(store)
        base_ranks = None
        for run_seed in cfg.eval.seeds:
            head_cfg = dataclasses.replace(cfg.head, seed=cfg.head.seed + run_seed)
            battery: dict = {}
            if cfg.method == "base":
                if base_ranks is None:
                    base_ranks = evaluator.compute_rank_table(queries, table)[0]
                ranks = base_ranks
            elif cfg.method == "patientnode":
                ckpt = os.path.join(out_dir, f"patientnode_seed{run_seed}.json")
                if train:
                    # lambda1/lambda2 regularize the gated head's weight vectors;
                    # the MLP ablation trains unregularized so the comparison is
                    # capacity against capacity, not penalty against penalty
                    pn = bias_head.train_patientnode(head_store, table, head_cfg,
                                                     hidden=cfg.patientnode_hidden,
                                                     lambda1=0.0, lambda2=0.0)
                    bias_head.save_patientnode(pn, head_cfg, table, ckpt)
                else:
                    pn = bias_head.load_patientnode(ckpt, head_cfg, table, cfg.patientnode_hidden)
                param_count = pn.param_count
                bias = bias_head.compute_bias_patientnode(pn, table)
                ranks = evaluator.compute_rank_table(queries, table, [bias])[0]
            else:
                ckpt = os.path.join(out_dir, f"head_seed{run_seed}.json")
                if train:
                    head = bias_head.train_head(head_store, table, gates_a, gates_b,
                                                f_a, f_b, head_cfg)
                    bias_head.save_head(head, head_cfg, table, gates_a, gates_b, ckpt)
                else:
                    head = bias_head.load_head(ckpt, head_cfg, table, gates_a, gates_b)
                param_count = head.param_count
                ranks, battery = _evaluate_gated_seed(
                    cfg, queries, table, gates_a, gates_b, f_a, f_b, head, run_seed)
            per_seed.append({**evaluator.ranking_metrics(ranks, cfg.eval.ks), **battery,
                             "param_count": param_count})
            ent, rel = store.entity_vocab.label, store.relation_vocab.label
            rank_rows += [(run_seed, ent(h), rel(r), ent(t), rank) for h, r, t, rank in zip(
                queries.heads.tolist(), queries.rels.tolist(), queries.true_tails.tolist(),
                ranks.tolist())]

    report = {
        "artifact": "gatedbias-run" if train else "gatedbias-eval",
        "method": cfg.method,
        "config": cfg.to_dict(),
        "backbone_checksum": table.checksum(),
        "query_checksum": query_checksum(queries),
        "dataset": {
            "num_entities": store.num_entities,
            "num_relations": store.num_relations,
            "train": int(store.train.shape[0]),
            "valid": int(store.valid.shape[0]),
            "test": int(store.test.shape[0]),
        },
        "universes": universes_info,
        "param_count": param_count,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "report": EvalReport(seeds=list(cfg.eval.seeds), per_seed=per_seed).to_dict(),
    }
    _write_report(report, rank_rows, out_dir)
    return report


def _evaluate_gated_seed(cfg, queries, table, gates_a, gates_b, f_a, f_b, head,
                         run_seed) -> tuple[np.ndarray, dict]:
    """Adapted ranks plus the personalization battery for one trained head:
    one rank sweep for the adapted and both counterfactual biases, one
    alignment sweep for the base, adapted and placebo biases."""
    bias = bias_head.compute_bias(head, gates_a, gates_b, f_a, f_b)
    ctx = EvalContext(gates_a=gates_a, gates_b=gates_b, f_a=f_a, f_b=f_b, head=head, bias=bias)
    cr_bias = [evaluator.counterfactual_bias(ctx, g, cfg.eval.epsilon) for g in ("A", "B")]
    ranks, ranks_a, ranks_b = evaluator.compute_rank_table(
        queries, table, [bias.values, *(b.values for b in cr_bias)])
    alignment = evaluator.measure_alignment(ctx, queries, table, cfg.eval.percentile_p,
                                            cfg.eval.n_shuffles, seed=run_seed)
    base_mean = float(alignment.base_pq.mean())
    adapted_mean = float(alignment.adapted_pq.mean())
    delta, p_value = evaluator.alignment_delta_test(
        base_mean, adapted_mean,
        np.stack([alignment.base_pq, alignment.adapted_pq], axis=1), seed=run_seed)
    cr_a = evaluator.counterfactual_responsiveness(bias, "A", queries.true_tails, ranks, ranks_a)
    cr_b = evaluator.counterfactual_responsiveness(bias, "B", queries.true_tails, ranks, ranks_b)
    placebo = evaluator.placebo_validation(alignment)
    return ranks, {
        f"alignment@{ALIGNMENT_K}_base": base_mean,
        f"alignment@{ALIGNMENT_K}_adapted": adapted_mean,
        f"alignment@{ALIGNMENT_K}_delta": delta,
        "alignment_p_value": p_value,
        **_cr_entries("A", cr_a),
        **_cr_entries("B", cr_b),
        "placebo_real_delta": placebo.real_delta,
        "placebo_shuffled_delta": placebo.shuffled_delta_mean,
        "placebo_ratio": placebo.ratio,
        "aligned_set_size": len(alignment.aligned),
    }


def _write_report(report: dict, rank_rows: list[tuple], out_dir: str) -> None:
    write_json(os.path.join(out_dir, "report.json"), report)
    with atomic_write(os.path.join(out_dir, "ranks.tsv")) as fh:
        fh.write("seed\thead\trelation\ttrue_tail\trank\n")
        for row in rank_rows:
            fh.write("\t".join(str(x) for x in row) + "\n")


def run_compare(cfg: PipelineConfig, out_dir: str) -> dict:
    """Run base, patientnode and gatedbias under identical data and seeds.

    The dataset is materialized once and the backbone is trained once (by the
    base run) and reloaded by the others; save/load round-trips bit-exact, so
    this is equivalent to retraining per method. Query checksums are asserted
    identical across methods. Paths handed to the methods are absolute, so
    their reports echo re-runnable configs however out_dir was spelled.
    """
    out_dir = os.path.abspath(out_dir)
    with _stage("data"):
        data_cfg = materialize_data(cfg, out_dir)

    reports = {}
    backbone_load = cfg.backbone_load
    for method in METHOD_ORDER:
        sub = dataclasses.replace(cfg, method=method, data=data_cfg,
                                  backbone_load=backbone_load)
        reports[method] = run_pipeline(sub, os.path.join(out_dir, method))
        if backbone_load is None:
            backbone_load = os.path.join(out_dir, method, "backbone.kge")

    checksums = {m: r["query_checksum"] for m, r in reports.items()}
    if len(set(checksums.values())) != 1:
        raise PipelineError("compare", f"query checksums diverged across methods: {checksums}")

    comparison = {
        "artifact": "gatedbias-compare",
        "query_checksum": next(iter(checksums.values())),
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
    write_json(os.path.join(out_dir, "compare.json"), comparison)
    with atomic_write(os.path.join(out_dir, "compare.tsv")) as fh:
        fh.write(format_comparison(comparison))
    return comparison


def format_comparison(comparison: dict) -> str:
    """Side-by-side TSV of the headline metrics per method."""
    metric_keys: list[str] = []
    for m in METHOD_ORDER:
        agg = comparison["methods"][m]["aggregate"]
        for k in agg:
            if k not in metric_keys and (k == "mrr" or k.startswith(("hits@", "ndcg@"))):
                metric_keys.append(k)
    lines = ["method\tadded_params\t" + "\t".join(metric_keys)]
    for m in METHOD_ORDER:
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
