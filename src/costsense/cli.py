"""Command-line entry point.

Usage::

    costsense run --dataset datasets/german.numer --algo acog2 --metric sum \
        --permutations 20 --seed 0 --out german_acog2.csv
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    CHOICES,
    SELECTION_PERMUTATIONS,
    ExperimentConfig,
    run_experiment,
)
from .sketch import SketchConditionError


def _parse_grid(text: str) -> tuple:
    try:
        grid = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad eta grid {text!r}") from None
    if not grid:
        raise argparse.ArgumentTypeError("eta grid must be nonempty")
    return grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="costsense",
        description="Cost-sensitive online classification benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # an unset flag is left out, so the ExperimentConfig default applies
    run = sub.add_parser("run", help="run one experiment and emit a CSV report",
                         argument_default=argparse.SUPPRESS)
    run.add_argument("--dataset", required=True, help="LIBSVM-format data file")
    run.add_argument("--algo", required=True, choices=CHOICES["algo"])
    run.add_argument("--metric", choices=CHOICES["metric"])
    run.add_argument("--alpha-p", type=float)
    run.add_argument("--alpha-n", type=float)
    run.add_argument("--cp", dest="c_p", type=float)
    run.add_argument("--cn", dest="c_n", type=float)
    run.add_argument("--rho-mode", help="oracle, laplace, or fixed:<value>")
    run.add_argument("--eta-grid", type=_parse_grid,
                     help="comma-separated step sizes (default 1e-5..1e5)")
    run.add_argument("--gamma", type=float)
    run.add_argument("--sketch-size", type=int)
    run.add_argument("--sketch-init", choices=CHOICES["sketch_init"])
    run.add_argument("--sketch-lazy", type=int, help="update the sketch only every K rounds")
    run.add_argument("--sketch-on-loss-only", action="store_true")
    run.add_argument("--update-rule", choices=CHOICES["update_rule"])
    run.add_argument("--permutations", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--folds", type=int,
                     help="0 = online protocol; >= 2 = k-fold generalization mode")
    run.add_argument("--empty-class", choices=CHOICES["empty_class"])
    run.add_argument("--d-override", type=int)
    run.add_argument("--out", help="CSV report path")
    return parser


def main(argv=None) -> int:
    # every option is named after an ExperimentConfig field
    opts = vars(build_parser().parse_args(argv))
    del opts["command"]
    try:
        cfg = ExperimentConfig(**opts)
        report = run_experiment(cfg)
    except (ValueError, OSError, MemoryError, SketchConditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    agg, std = report.aggregate, report.std
    mode = f"{cfg.folds}-fold CV" if cfg.folds else f"{cfg.permutations} permutations"
    print(f"{cfg.algo} on {cfg.dataset} ({cfg.metric}, {mode}), eta={report.eta:g}")
    for key in ("sum", "cost", "sensitivity", "specificity"):
        print(f"  {key:<11} {agg[key]:8.3f} +/- {std[key]:.3f}")
    if report.grid:
        print(f"  eta selection, mean {cfg.metric} over {SELECTION_PERMUTATIONS} permutations:")
        for eta, score in report.grid.items():
            print(f"    {eta:<8g} {score:10.3f}{'  <- selected' if eta == report.eta else ''}")
    if cfg.out:
        print(f"  report written to {cfg.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
