"""Monte Carlo driver: simulation runs, test inversion runs, coverage studies.

Randomness follows one documented scheme built on numpy's SeedSequence /
PCG64.  Replication r uses ``SeedSequence((master_seed, 1, r))`` spawned into
three child streams: 0 draws a fresh covariate design, 1 the latent network
(one uniform per ordered pair against the solver's link probabilities), 2 the
misclassification flips.  A shared design (``x_file``, or x_mode = fixed
drawn from ``SeedSequence((master_seed, 0))``) is solved once per run.
``simulate`` writes replication 0 of the recipe each coverage replication
tests.  No state leaks across replications, so a run's report is the same for
any number of worker ``threads``.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
from scipy.special import chdtr

from .config import ExperimentConfig
from .equilibrium import draw_network, solve_equilibrium
from .estimation import Dataset, MomentEvaluator
from .exceptions import ConfigError, FileFormatError, MisnetError, TooManyFailures
from .inference import REASON_DEGENERATE, chi2_quantile, coordinate_intervals, write_grid_table
from .misclassification import apply_misclassification
from .model import PairCovariates
from . import inference, netio

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
    """i.i.d. cell assignment over the support; diagonal drawn but unused.

    Each label counts the thresholds of the normalized cdf at or below one
    uniform, in the labels' one-byte dtype: the stream use and the labels of
    ``rng.choice(probs.size, size=(n, n), p=probs)``, without its int64 array."""
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    u = rng.random((n, n))
    labels = np.zeros((n, n), dtype=np.min_scalar_type(probs.size - 1))
    for threshold in cdf[:-1]:  # no uniform reaches the last, 1.0
        labels += u >= threshold
    return PairCovariates(labels)


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


def _solved(config: ExperimentConfig, covariates: PairCovariates) -> tuple:
    """The design with its equilibrium's link probabilities and fixed-point residual at the truth."""
    th = config.theta
    eq = solve_equilibrium(covariates, config.support, th.externality, th.homophily, config.solver)
    return covariates, eq.link_probs, eq.residual


def _shared_design(config: ExperimentConfig) -> tuple | None:
    """The design every replication shares, solved once: the ``x_file``
    assignment or the draw from the fixed-design seed; None for a fresh design."""
    if config.x_file is not None:
        covariates = netio.read_covariates(config.x_file, config.support.n_points)
        if covariates.n != config.n:
            raise ConfigError(f"x_file holds n={covariates.n}, config says n={config.n}")
    elif config.x_mode == "fixed":
        rng = np.random.default_rng(fixed_design_seed(config.seed))
        covariates = draw_pair_covariates(config.n, config.support_probs, rng)
    else:
        return None
    return _solved(config, covariates)


def _draw_dataset(config: ExperimentConfig, seed: np.random.SeedSequence, design):
    """One replication's data from its seed's three children: the shared
    design, or a fresh one drawn from child 0 and solved; the latent network
    from child 1's uniforms; its misclassified record from child 2."""
    fresh, links, flips = seed.spawn(3)
    if design is None:
        covariates = draw_pair_covariates(config.n, config.support_probs, np.random.default_rng(fresh))
        design = _solved(config, covariates)
    covariates, link_probs, residual = design
    true_net = draw_network(link_probs, links)
    observed = apply_misclassification(true_net, config.theta.fp_rate, config.theta.fn_rate, seed=flips)
    return covariates, residual, true_net, observed


def run_simulate(config: ExperimentConfig, out_dir) -> dict:
    """Write replication 0 of the coverage recipe: design, latent and observed networks."""
    seed = replication_seed(config.seed, 0)
    covariates, residual, true_net, observed = _draw_dataset(config, seed, _shared_design(config))
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
    """Invert the test over the grid for a loaded dataset with
    :func:`inference.confidence_set` and write its rows column by column."""
    critical, stats, accepted, reasons = inference.confidence_set(data, grid, alpha)
    points, names = grid.points, grid.coordinate_names()
    out = Path(out_dir)
    grid_path = out / "ci_grid.csv"
    write_grid_table(grid_path, names, points, stats, accepted, reasons)
    intervals = coordinate_intervals(points[accepted], names)
    summary = {
        "alpha": alpha,
        "dof": data.n_cells,
        "critical_value": critical,
        "n_grid": len(points),
        "n_accepted": int(accepted.sum()),
        "n_degenerate": reasons.count(REASON_DEGENERATE),
    }
    projection_path = out / "projection.csv"
    netio.write_table(
        projection_path, ["coordinate", "lower", "upper"],
        ([name, lo, hi] for name, (lo, hi) in intervals.items()),
    )
    summary["projection"] = {k: list(v) for k, v in intervals.items()}
    netio.write_summary(out / "summary.json", summary)
    return {"grid": str(grid_path), "projection": str(projection_path), "summary": str(out / "summary.json")}


def _replicate(config: ExperimentConfig, critical: float, design, index: int) -> ReplicationRecord:
    """One coverage replication; pure given its derived seed."""
    seed = replication_seed(config.seed, index)
    label = f"({';'.join(map(str, seed.entropy))})"
    try:
        covariates, residual, _, observed = _draw_dataset(config, seed, design)
        data = Dataset(network=observed, covariates=covariates, support=config.support)
        stat = MomentEvaluator(data).statistic(config.theta)
        return ReplicationRecord(index, label, residual, stat, accepted=stat <= critical)
    except MisnetError as exc:
        nan = float("nan")
        return ReplicationRecord(index, label, nan, nan, False, error=f"{type(exc).__name__}: {exc}")


def _ks_distance(stats: np.ndarray, dof: int) -> float:
    """``scipy.stats.kstest``'s distance of the sample to chi-square(dof), in its order of operations."""
    cdf = chdtr(dof, np.sort(stats))
    n = cdf.size
    return float(max((np.arange(1.0, n + 1) / n - cdf).max(), (cdf - np.arange(0.0, n) / n).max()))


def run_mc_coverage(config: ExperimentConfig) -> RunReport:
    """Coverage and null-distribution study at the configured truth.

    Each replication simulates a network at the true parameter point,
    misclassifies it, and tests the truth; the report aggregates the coverage
    rate and the Kolmogorov-Smirnov distance of the statistic sample to the
    chi-square reference.  A shared design is solved once, and each replication
    draws from its link probabilities.  Failed replications are recorded, and
    the run aborts only when their share exceeds ``failure_tolerance``.  A pool
    of ``config.threads`` threads maps one task over the replication indices;
    an error that is not a ``MisnetError``, or an interrupt, cancels the ones
    not yet started.
    """
    dof = config.support.n_points
    critical = chi2_quantile(dof, 1.0 - config.alpha)

    task = partial(_replicate, config, critical, _shared_design(config))
    with ThreadPoolExecutor(config.threads) as pool:
        records = list(pool.map(task, range(config.replications)))

    failed = [r for r in records if r.error]
    if len(failed) > config.failure_tolerance * config.replications:
        raise TooManyFailures(
            f"{len(failed)} of {config.replications} replications failed; "
            f"first error: {failed[0].error}"
        )
    ok = [r for r in records if not r.error]
    stats = np.array([r.statistic for r in ok])
    coverage = float(np.mean([r.accepted for r in ok])) if ok else float("nan")
    ks = _ks_distance(stats, dof) if ok else float("nan")
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
