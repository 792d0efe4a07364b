"""Monte Carlo driver: simulation runs, test inversion runs, coverage studies.

Randomness follows one documented scheme built on numpy's SeedSequence /
PCG64.  The fixed covariate design (x_mode = fixed) is drawn from
``SeedSequence((master_seed, 0))``; replication r uses
``SeedSequence((master_seed, 1, r))`` spawned into three child streams for
the covariate draw, the link shocks and the misclassification flips, in that
order.  Replication seeds are therefore distinct by construction and no state
leaks across replications, so serial and pooled execution produce identical
reports.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.stats import chi2, kstest

from .config import ExperimentConfig
from .equilibrium import draw_network, solve_equilibrium
from .estimation import Dataset, MomentEvaluator
from .exceptions import ConfigError, FileFormatError, MisnetError, TooManyFailures
from .inference import chi2_quantile, confidence_set, projection_intervals, write_grid_csv
from .misclassification import apply_misclassification
from .model import Network, PairCovariates
from . import netio

__all__ = [
    "draw_pair_covariates",
    "replication_seed",
    "fixed_design_seed",
    "ReplicationRecord",
    "RunReport",
    "run_simulate",
    "run_ci",
    "run_mc_coverage",
]


def fixed_design_seed(master_seed: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((master_seed, 0))


def replication_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((master_seed, 1, index))


def draw_pair_covariates(n: int, probs: np.ndarray, rng: np.random.Generator) -> PairCovariates:
    """i.i.d. cell assignment over the support; diagonal drawn but unused."""
    assignment = rng.choice(probs.size, size=(n, n), p=probs)
    return PairCovariates(assignment.astype(np.int64))


@dataclass(frozen=True)
class ReplicationRecord:
    index: int
    seed: str  # entropy tuple of the replication's SeedSequence
    residual: float
    statistic: float
    accepted: bool
    error: str = ""


@dataclass(frozen=True)
class RunReport:
    """Per-replication records plus the coverage and distribution aggregates."""

    records: list
    alpha: float
    dof: int
    critical_value: float
    coverage: float
    ks_distance: float
    n_failed: int


def _design_for(config: ExperimentConfig, rep_children) -> PairCovariates:
    if config.x_file is not None:
        covariates = netio.read_covariates(config.x_file, config.support.n_points)
        if covariates.n != config.n:
            raise ConfigError(f"x_file holds n={covariates.n}, config says n={config.n}")
        return covariates
    if config.x_mode == "fixed":
        rng = np.random.default_rng(fixed_design_seed(config.seed))
    else:
        rng = np.random.default_rng(rep_children[0])
    return draw_pair_covariates(config.n, config.support_probs, rng)


def _solve(config: ExperimentConfig, covariates: PairCovariates):
    """Utility index of the equilibrium at the configured truth and its fixed-point residual."""
    th = config.theta
    eq = solve_equilibrium(covariates, config.support, th.externality, th.homophily, config.solver)
    return eq.index, eq.residual


def _observe(config: ExperimentConfig, index, children) -> tuple[Network, Network]:
    """Latent network drawn from the equilibrium's utility index (shocks from
    ``children[1]``) and its misclassified record (flips from ``children[2]``)."""
    th = config.theta
    true_net = draw_network(index, children[1])
    return true_net, apply_misclassification(true_net, th.fp_rate, th.fn_rate, seed=children[2])


def run_simulate(config: ExperimentConfig, out_dir) -> dict:
    """Draw one design, solve, simulate, misclassify, and write all files."""
    children = replication_seed(config.seed, 0).spawn(3)
    covariates = _design_for(config, children)
    index, residual = _solve(config, covariates)
    true_net, observed = _observe(config, index, children)
    out = Path(out_dir)
    paths = {
        "support": out / "support.csv",
        "covariates": out / "covariates.csv",
        "true_network": out / "true_network.csv",
        "observed_network": out / "observed_network.csv",
        "summary": out / "summary.json",
    }
    netio.write_support(config.support, paths["support"])
    netio.write_covariates(covariates, paths["covariates"])
    netio.write_network_matrix(true_net, paths["true_network"])
    netio.write_network_matrix(observed, paths["observed_network"])
    summary = {
        "n": config.n,
        "seed": config.seed,
        "equilibrium_residual": residual,
        "true_link_count": int(true_net.adj.sum()),
        "observed_link_count": int(observed.adj.sum()),
        "files": {k: str(v) for k, v in paths.items() if k != "summary"},
    }
    netio.write_summary(paths["summary"], summary)
    return {k: str(v) for k, v in paths.items()}


def load_dataset(data_dir) -> Dataset:
    """Read support, covariates and the observed network from one directory;
    a cell index outside the support is a format error at its line, and
    covariates that do not fit the network one at line 1."""
    data_dir = Path(data_dir)
    support = netio.read_support(data_dir / "support.csv")
    covariates = netio.read_covariates(data_dir / "covariates.csv", support.n_points)
    network = netio.read_network(data_dir / "observed_network.csv")
    try:
        return Dataset(network=network, covariates=covariates, support=support)
    except ValueError as exc:
        raise FileFormatError(data_dir / "covariates.csv", 1, str(exc)) from exc


def run_ci(data: Dataset, grid, alpha: float, out_dir) -> dict:
    """Invert the test over the grid for a loaded dataset and write results."""
    cs = confidence_set(data, grid, alpha)
    out = Path(out_dir)
    grid_path = out / "ci_grid.csv"
    write_grid_csv(cs, grid_path)
    summary = {
        "alpha": cs.alpha,
        "dof": cs.dof,
        "critical_value": cs.critical_value,
        "n_grid": len(cs.records),
        "n_accepted": len(cs.accepted),
        "n_degenerate": cs.n_degenerate,
    }
    projection_path = out / "projection.csv"
    intervals = projection_intervals(cs) if cs.accepted else {}
    netio.write_table(
        projection_path, ["coordinate", "lower", "upper"],
        ([name, lo, hi] for name, (lo, hi) in intervals.items()),
    )
    summary["projection"] = {k: list(v) for k, v in intervals.items()}
    netio.write_summary(out / "summary.json", summary)
    return {"grid": str(grid_path), "projection": str(projection_path), "summary": str(out / "summary.json")}


def _replicate(args) -> ReplicationRecord:
    """One coverage replication; pure given its derived seed."""
    index, config, critical, fixed = args
    seed_label = f"({config.seed};1;{index})"
    children = replication_seed(config.seed, index).spawn(3)
    try:
        if fixed is not None:
            covariates, utility, residual = fixed
        else:
            covariates = _design_for(config, children)
            utility, residual = _solve(config, covariates)
        _, observed = _observe(config, utility, children)
        data = Dataset(network=observed, covariates=covariates, support=config.support)
        stat = MomentEvaluator(data).statistic(config.theta)
        return ReplicationRecord(
            index=index,
            seed=seed_label,
            residual=residual,
            statistic=stat,
            accepted=stat <= critical,
        )
    except MisnetError as exc:
        return ReplicationRecord(
            index=index, seed=seed_label, residual=float("nan"), statistic=float("nan"),
            accepted=False, error=f"{type(exc).__name__}: {exc}",
        )


def run_mc_coverage(config: ExperimentConfig) -> RunReport:
    """Coverage and null-distribution study at the configured truth.

    Each replication simulates a network at the true parameter point,
    misclassifies it, and tests the truth; the report aggregates the coverage
    rate and the Kolmogorov-Smirnov distance of the statistic sample to the
    chi-square reference.  A fixed design is solved once, and each replication
    draws from its index.  Failed replications are recorded, and the run
    aborts only when their share exceeds ``failure_tolerance``.  With
    ``config.threads`` above 1 the replications run in a process pool.
    """
    dof = config.support.n_points
    critical = chi2_quantile(dof, 1.0 - config.alpha)

    fixed = None
    if config.x_mode == "fixed" or config.x_file is not None:
        covariates = _design_for(config, None)
        fixed = (covariates, *_solve(config, covariates))

    tasks = [(r, config, critical, fixed) for r in range(config.replications)]
    if config.threads > 1:
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            records = list(pool.map(_replicate, tasks, chunksize=8))
    else:
        records = [_replicate(task) for task in tasks]

    failed = [r for r in records if r.error]
    if len(failed) > config.failure_tolerance * config.replications:
        raise TooManyFailures(
            f"{len(failed)} of {config.replications} replications failed; "
            f"first error: {failed[0].error}"
        )
    ok = [r for r in records if not r.error]
    stats = np.array([r.statistic for r in ok])
    coverage = float(np.mean([r.accepted for r in ok])) if ok else float("nan")
    ks = float(kstest(stats, chi2(dof).cdf).statistic) if ok else float("nan")
    return RunReport(
        records=records,
        alpha=config.alpha,
        dof=dof,
        critical_value=critical,
        coverage=coverage,
        ks_distance=ks,
        n_failed=len(failed),
    )


def write_report(report: RunReport, out_dir) -> dict:
    """Replication table as CSV plus the JSON summary."""
    out = Path(out_dir)
    table = out / "replications.csv"
    netio.write_table(
        table, ["index", "seed", "residual", "statistic", "accepted", "error"],
        ([r.index, r.seed, r.residual, r.statistic, r.accepted, r.error] for r in report.records),
    )
    summary = out / "summary.json"
    fields = ("alpha", "dof", "critical_value", "coverage", "ks_distance", "n_failed")
    payload = {key: getattr(report, key) for key in fields}  # NaN when every replication failed
    payload["n_replications"] = len(report.records)
    netio.write_summary(summary, payload)
    return {"replications": str(table), "summary": str(summary)}
