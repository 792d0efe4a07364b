"""Command-line interface.

Subcommands: ``simulate``, ``estimate``, ``ci``, ``mc-coverage``, ``sp-set``.
Exit codes: 0 on success, 2 for configuration or input-file errors, 3 for
numerical failures (non-convergence, empty cells, degenerate variance,
excessive replication failures).
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import harness, semiparametric
from .config import parse_config
from .estimation import MomentEvaluator, quadratic_form
from .exceptions import ConfigError, FileFormatError, MisnetError
from .inference import chi2_quantile

_CONFIG_EXIT = 2
_NUMERICAL_EXIT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misnet",
        description="Simulation and inference for network formation with misclassified links",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--threads", type=int, default=None, help="worker processes")
        p.add_argument("--alpha", type=float, default=None, help="override the test level")
        if data:
            p.add_argument("--data", required=True, help="directory with simulate outputs")

    common(sub.add_parser("simulate", help="draw covariates, solve, simulate, misclassify"))
    common(sub.add_parser("estimate", help="cell estimates, moment, variance and statistic"), data=True)
    common(sub.add_parser("ci", help="invert the test over the configured grid"), data=True)
    common(sub.add_parser("mc-coverage", help="Monte Carlo coverage study"))
    common(sub.add_parser("sp-set", help="semiparametric membership over the grid"), data=True)
    return parser


def _apply_overrides(config, args):
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.threads is not None:
        updates["threads"] = args.threads
    if args.alpha is not None:
        updates["alpha"] = args.alpha
    return dataclasses.replace(config, **updates) if updates else config


def _cmd_simulate(config, args) -> None:
    paths = harness.run_simulate(config, args.out)
    print(f"wrote {paths['summary']}")


def _cmd_estimate(config, args) -> None:
    data = harness.load_dataset(args.data)
    evaluator = MomentEvaluator(data)
    cells = evaluator.cells
    m = evaluator.moment(config.theta)
    S = evaluator.variance(config.theta)
    stat = quadratic_form(m, S, data.n)
    critical = chi2_quantile(data.n_cells, 1.0 - config.alpha)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "cells.csv", "w") as fh:
        d = data.support.dimension
        header = [f"x{k + 1}" for k in range(d)]
        fh.write(",".join(["cell", *header, "freq", "recip", "indeg", "common", "degsum"]) + "\n")
        for j in range(data.n_cells):
            point = ",".join(f"{v:.17g}" for v in data.support.points[j])
            stats = ",".join(f"{v:.17g}" for v in cells.stats[j])
            fh.write(f"{j},{point},{cells.freq[j]:.17g},{stats}\n")
    with open(out / "moment.csv", "w") as fh:
        fh.write("cell,moment\n")
        for j, value in enumerate(m):
            fh.write(f"{j},{value:.17g}\n")
    np.savetxt(out / "variance.csv", S, delimiter=",", header=",".join(
        f"cell{j}" for j in range(S.shape[0])), comments="")
    summary = {
        "statistic": stat,
        "dof": data.n_cells,
        "alpha": config.alpha,
        "critical_value": critical,
        "accepted": stat <= critical,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    print(f"statistic {stat:.6g} (critical {critical:.6g})")


def _cmd_ci(config, args) -> None:
    paths = harness.run_ci(args.data, config.grid, config.alpha, args.out)
    print(f"wrote {paths['summary']}")


def _cmd_mc_coverage(config, args) -> None:
    report = harness.run_mc_coverage(config)
    paths = harness.write_report(report, args.out)
    print(
        f"coverage {report.coverage:.4f}, ks {report.ks_distance:.4f}, "
        f"failed {report.n_failed}; wrote {paths['summary']}"
    )


def _cmd_sp_set(config, args) -> None:
    data = harness.load_dataset(args.data)
    results = semiparametric.identified_set(data, config.grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table = out / "sp_grid.csv"
    semiparametric.write_membership_csv(results, config.grid.coordinate_names(), table)
    n_member = sum(1 for _, res in results if res.member)
    summary = {"n_grid": len(results), "n_member": n_member}
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    print(f"{n_member} of {len(results)} grid points are members; wrote {table}")


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "ci": _cmd_ci,
    "mc-coverage": _cmd_mc_coverage,
    "sp-set": _cmd_sp_set,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _apply_overrides(parse_config(args.config), args)
    except (ConfigError, FileFormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _CONFIG_EXIT
    try:
        _COMMANDS[args.command](config, args)
    except (ConfigError, FileFormatError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return _CONFIG_EXIT
    except MisnetError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _NUMERICAL_EXIT
    return 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
