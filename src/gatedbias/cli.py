"""Command line interface: run / synth / compare / eval subcommands."""

from __future__ import annotations

import argparse
import logging
import sys
import traceback
from dataclasses import fields
from functools import partial

from .config import METHODS, SECTIONS, load_config
from .pipeline import format_comparison, run_compare, run_eval, run_pipeline
from .synth import SynthParams, generate


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _add_eval_overrides(p: argparse.ArgumentParser, method: bool) -> None:
    if method:  # compare runs every method
        p.add_argument("--method", choices=METHODS, help="override the configured method")
    for key, kind in SECTIONS["eval"].items():  # --ks, ..., --seeds, typed by the annotation
        flag = "--" + key.replace("_", "-")
        if kind == "list[int]":
            letter = key[0].upper()
            p.add_argument(flag, type=_int_list, metavar=f"{letter}1,{letter}2,...",
                           help=f"override eval.{key} (comma separated)")
        else:
            p.add_argument(flag, type={"int": int, "float": float}[kind],
                           help=f"override eval.{key}")


def _load_config(args):
    """The config file with the override flags that are set merged in, then
    validated once by the config parser."""
    evals = {key: getattr(args, key) for key in SECTIONS["eval"]
             if getattr(args, key) is not None}
    overrides = {"eval": evals} if evals else {}
    if getattr(args, "method", None) is not None:
        overrides["method"] = args.method
    return load_config(args.config, overrides)


def _print_aggregate(report: dict) -> None:
    print(f"method: {report['method']}")
    print(f"parameters added: {report['param_count']}")
    agg = report["report"]["aggregate"]
    for key, entry in agg.items():
        if entry["mean"] is None:
            print(f"{key}: absent")
        elif entry["stderr"] is None:
            print(f"{key}: {entry['mean']:.6g}")
        else:
            print(f"{key}: {entry['mean']:.6g} ± {entry['stderr']:.6g}")


def cmd_report(args, stage) -> int:
    """run and eval: stage (run_pipeline or run_eval) writes the report, whose
    aggregate is printed."""
    report = stage(_load_config(args), args.out)
    _print_aggregate(report)
    print(f"report written to {args.out}/report.json")
    return 0


def cmd_synth(args) -> int:
    params = SynthParams(**{f.name: getattr(args, f.name) for f in fields(SynthParams)})
    manifest = generate(params, args.out)
    counts = manifest["counts"]
    print(f"dataset written to {args.out}")
    print(f"train likes: {counts['train_likes']}, valid: {counts['valid']}, "
          f"test: {counts['test']}")
    print(f"planted items: {len(manifest['planted_items'])}, "
          f"planted attrs: {len(manifest['planted_attrs'])}")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    comparison = run_compare(cfg, args.out)
    print(format_comparison(comparison), end="")
    print(f"comparison written to {args.out}/compare.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatedbias",
        description="Structure-gated inference-time personalization over a frozen "
                    "knowledge-graph scorer.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full pipeline from a config file")
    p_run.add_argument("config", help="path to the YAML config")
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    _add_eval_overrides(p_run, method=True)
    p_run.set_defaults(func=partial(cmd_report, stage=run_pipeline))

    p_synth = sub.add_parser("synth", help="generate a synthetic planted-signal dataset")
    p_synth.add_argument("--out", required=True, help="dataset output directory")
    for f in fields(SynthParams):  # --n-items, ..., --seed, defaulting as SynthParams does
        p_synth.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                             default=f.default)
    p_synth.set_defaults(func=cmd_synth)

    p_cmp = sub.add_parser("compare", help="run base, patientnode and gatedbias side by side")
    p_cmp.add_argument("config", help="path to the YAML config")
    p_cmp.add_argument("--out", default="out", help="output directory (default: out)")
    _add_eval_overrides(p_cmp, method=False)
    p_cmp.set_defaults(func=cmd_compare)

    p_eval = sub.add_parser("eval", help="re-evaluate from checkpoints without retraining")
    p_eval.add_argument("config", help="path to the YAML config")
    p_eval.add_argument("--out", default="out",
                        help="run directory holding the checkpoints (default: out)")
    _add_eval_overrides(p_eval, method=True)
    p_eval.set_defaults(func=partial(cmd_report, stage=run_eval))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    # the package's own error types subclass ValueError or RuntimeError
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError, KeyError) as exc:
        if args.verbose:
            traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
