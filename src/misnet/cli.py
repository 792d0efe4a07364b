"""Command-line interface.

Subcommands: ``simulate``, ``estimate``, ``ci``, ``mc-coverage``, ``sp-set``.
Exit codes: 0 on success, 2 for configuration or input errors (a path that
cannot be opened included), 3 for numerical failures (non-convergence, empty
cells, degenerate variance, excessive replication failures).
"""

import argparse
import sys
from pathlib import Path

from . import harness, netio, semiparametric
from .config import parse_config
from .estimation import MomentEvaluator
from .exceptions import ConfigError, FileFormatError, MisnetError
from .inference import chi2_quantile

_CONFIG_EXIT = 2
_NUMERICAL_EXIT = 3


def _cmd_simulate(config, args) -> None:
    paths = harness.run_simulate(config, args.out)
    print(f"wrote {paths['summary']}")


def _load(config, args):
    """The command's dataset, read once; its support must have the config's dimension."""
    data = harness.load_dataset(args.data)
    if (dimension := data.support.dimension) != config.support.dimension:
        raise ConfigError(f"data support dimension {dimension}, config's {config.support.dimension}")
    return data


def _cmd_estimate(config, args) -> None:
    data = _load(config, args)
    evaluator = MomentEvaluator(data)
    cells = evaluator.cells
    m, S, stat = evaluator.evaluate(config.theta)  # one evaluation; a degenerate S raises
    critical = chi2_quantile(data.n_cells, 1.0 - config.alpha)
    out = Path(args.out)
    points = data.support.points
    header = [f"x{k + 1}" for k in range(data.support.dimension)]
    netio.write_table(
        out / "cells.csv", ["cell", *header, "freq", "recip", "indeg", "common", "degsum"],
        ([j, *points[j], cells.freq[j], *cells.stats[j]] for j in range(data.n_cells)),
    )
    netio.write_table(out / "moment.csv", ["cell", "moment"], enumerate(m))
    netio.write_table(out / "variance.csv", [f"cell{j}" for j in range(len(S))], S)
    summary = {
        "statistic": stat,
        "dof": data.n_cells,
        "alpha": config.alpha,
        "critical_value": critical,
        "accepted": stat <= critical,
    }
    netio.write_summary(out / "summary.json", summary)
    print(f"statistic {stat:.6g} (critical {critical:.6g})")


def _cmd_ci(config, args) -> None:
    paths = harness.run_ci(_load(config, args), config.grid, config.alpha, args.out)
    print(f"wrote {paths['summary']}")


def _cmd_mc_coverage(config, args) -> None:
    report = harness.run_mc_coverage(config)
    paths = harness.write_report(report, args.out)
    print(
        f"coverage {report.coverage:.4f}, ks {report.ks_distance:.4f}, "
        f"failed {report.n_failed}; wrote {paths['summary']}"
    )


def _cmd_sp_set(config, args) -> None:
    points, names = config.grid.points, config.grid.coordinate_names()
    member, violations = semiparametric.identified_set(_load(config, args), config.grid)
    out = Path(args.out)
    table = out / "sp_grid.csv"
    semiparametric.write_membership_table(table, names, points, member, violations)
    n_member = int(member.sum())
    summary = {"n_grid": len(points), "n_member": n_member}
    netio.write_summary(out / "summary.json", summary)
    print(f"{n_member} of {len(points)} grid points are members; wrote {table}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misnet",
        description="Simulation and inference for network formation with misclassified links",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, overrides=(), data=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler, overrides=overrides)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default="out", help="output directory")
        if data:
            p.add_argument("--data", required=True, help="directory with simulate outputs")
        for key in overrides:
            p.add_argument(f"--{key}", help=f"override the config's {key}")

    command("simulate", _cmd_simulate, "draw covariates, solve, simulate, misclassify", ["seed"])
    command("estimate", _cmd_estimate, "cell estimates, moment, variance and statistic", ["alpha"], data=True)
    command("ci", _cmd_ci, "invert the test over the configured grid", ["alpha"], data=True)
    command("mc-coverage", _cmd_mc_coverage, "Monte Carlo coverage study", ["seed", "alpha", "threads"])
    command("sp-set", _cmd_sp_set, "semiparametric membership over the grid", data=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: value for key in args.overrides if (value := getattr(args, key)) is not None}
    try:
        config = parse_config(args.config, overrides)
    except (ConfigError, FileFormatError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _CONFIG_EXIT
    try:
        args.handler(config, args)
    except (ConfigError, FileFormatError, OSError) as exc:
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
