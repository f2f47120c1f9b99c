"""Command line interface: run / synth / compare / eval subcommands."""

from __future__ import annotations

import argparse
import logging
import os
import sys
import traceback
from functools import partial

# Set before numpy loads: a second OpenBLAS thread busy-waits ~0.13 s of CPU
# per process, and no BLAS call in an op is large enough to pay for it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import METHODS, SECTIONS, load_config, synth_params
from .pipeline import format_comparison, run_compare, run_eval, run_pipeline
from .synth import generate


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _add_section_flags(p: argparse.ArgumentParser, section: str) -> None:
    """A flag for each key of the config section, typed by its annotation and
    defaulting to None, so only the flags given reach the config."""
    for key, kind in SECTIONS[section].items():  # --n-shuffles for n_shuffles, ...
        listed, letter = kind == "list[int]", key[0].upper()
        p.add_argument("--" + key.replace("_", "-"),
                       type=_int_list if listed else {"int": int, "float": float}[kind],
                       metavar=f"{letter}1,{letter}2,..." if listed else None,
                       help=f"override {section}.{key}" + " (comma separated)" * listed)


def _given(args, section: str) -> dict:
    """The section's flags that are set, by key."""
    return {key: value for key in SECTIONS[section] if (value := getattr(args, key)) is not None}


def _load_config(args):
    """The config file with the override flags that are set merged in, then
    validated once by the config parser."""
    overrides = {"eval": _given(args, "eval")}
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
    params = synth_params(_given(args, "data.synthetic"))
    manifest = generate(params, args.out)
    counts = manifest["counts"]
    print(f"dataset written to {args.out}")
    print(f"train likes: {counts['train_likes']}, valid: {counts['valid']}, "
          f"test: {counts['test']}")
    print(f"planted items: {len(manifest['planted_items'])}, "
          f"planted attrs: {len(manifest['planted_attrs'])}")
    return 0


def cmd_compare(args) -> int:
    comparison = run_compare(_load_config(args), args.out)
    print(format_comparison(comparison), end="")
    print(f"comparison written to {args.out}/compare.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatedbias",
        description="Structure-gated inference-time personalization over a frozen "
                    "knowledge-graph scorer.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print the traceback of a failure above its error line")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic planted-signal dataset")
    p_synth.add_argument("--out", required=True, help="dataset output directory")
    _add_section_flags(p_synth, "data.synthetic")
    p_synth.set_defaults(func=cmd_synth)

    for name, help_text, out_dir, func in [
        ("run", "run the full pipeline from a config file", "output directory",
         partial(cmd_report, stage=run_pipeline)),
        ("compare", "run base, patientnode and gatedbias side by side", "output directory",
         cmd_compare),
        ("eval", "re-evaluate from checkpoints without retraining",
         "run directory holding the checkpoints", partial(cmd_report, stage=run_eval)),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the YAML config")
        p.add_argument("--out", default="out", help=f"{out_dir} (default: out)")
        if name != "compare":  # compare runs every method
            p.add_argument("--method", choices=METHODS, help="override the configured method")
        _add_section_flags(p, "eval")
        p.set_defaults(func=func)
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
    except (OSError, ValueError, RuntimeError) as exc:
        if args.verbose:
            traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
