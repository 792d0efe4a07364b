"""In-memory spans and the traced replays of the benchmark's workloads.

The replays call misnet's public functions in the order the program calls
them, with the harness's seeds, and wrap each call in a span named
``<module>.<stage>``.  Spans are kept in memory and turned into metrics when
the run ends.  A span marked ``aside`` times a sub-stage that a public
function hides (the influence terms inside ``moment_variance``) through its
own public call.  It is made outside the span of the stage that hides it and
is left out of self-time sums: its parent's self time excludes it, and it has
no self time of its own.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.stats import chi2, kstest

from misnet import equilibrium, harness, netio
from misnet.estimation import (
    Dataset,
    MomentEvaluator,
    cell_estimates,
    moment,
    moment_variance,
    quadratic_form,
    stat_influence_all,
)
from misnet.exceptions import DegenerateVariance, MisnetError
from misnet.inference import (
    REASON_ABOVE_CRITICAL,
    REASON_DEGENERATE,
    ConfidenceSet,
    GridRecord,
    chi2_quantile,
    write_grid_csv,
)
from misnet.misclassification import apply_misclassification
from misnet.semiparametric import cell_summary, membership, write_membership_csv


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list
    aside: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.br_calls = 0

    @contextmanager
    def span(self, name: str, aside: bool = False):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, aside))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def durations(self, name: str) -> np.ndarray:
        return np.array([s.duration for s in self.spans if s.name == name])

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def layer_self_time(self, layer: str) -> float:
        """Sum of self times of the layer's spans: duration minus the union of
        the intervals its child spans cover."""
        children: dict[int, list] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        total = 0.0
        for i, s in enumerate(self.spans):
            if s.aside or not s.name.startswith(layer + "."):
                continue
            covered, reach = 0.0, s.start
            for lo, hi in sorted(children.get(i, [])):
                lo, hi = max(lo, reach), min(hi, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total += s.duration - covered
        return total


class _CountingBestResponse:
    """Stands in for ``misnet.equilibrium.best_response`` to count its calls."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.inner(*args, **kwargs)


@contextmanager
def counting_best_response():
    """Count the best-response calls made inside the block; the solver looks
    the name up in its module at call time."""
    original = equilibrium.best_response
    counter = _CountingBestResponse(original)
    equilibrium.best_response = counter
    try:
        yield counter
    finally:
        equilibrium.best_response = original


def _solve(tracer, covariates, config):
    th = config.theta
    with tracer.span("equilibrium.solve"), counting_best_response() as counter:
        beliefs = equilibrium.solve_equilibrium(
            covariates, config.support, th.externality, th.homophily, config.solver
        )
    tracer.br_calls += counter.calls
    with tracer.span("equilibrium.residual"):
        residual = equilibrium.equilibrium_residual(
            beliefs, covariates, config.support, th.externality, th.homophily
        )
    return beliefs, residual


def fixed_design(tracer: Tracer, config):
    """Design, beliefs and residual that ``run_mc_coverage`` solves once, or
    None when every replication draws a fresh design."""
    if config.x_mode != "fixed" and config.x_file is None:
        return None
    with tracer.span("harness.design"):
        if config.x_file is not None:
            with tracer.span("netio.load"):
                covariates = netio.read_covariates(config.x_file)
        else:
            rng = np.random.default_rng(harness.fixed_design_seed(config.seed))
            covariates = harness.draw_pair_covariates(config.n, config.support_probs, rng)
    return (covariates, *_solve(tracer, covariates, config))


def replicate(tracer: Tracer, index: int, config, critical: float, fixed, with_influence=True):
    """One coverage replication, mirroring ``harness._replicate``."""
    th = config.theta
    seed_label = f"({config.seed};1;{index})"
    children = harness.replication_seed(config.seed, index).spawn(3)
    with tracer.span("harness.replication"):
        try:
            if fixed is not None:
                covariates, beliefs, residual = fixed
            else:
                with tracer.span("harness.design"):
                    rng = np.random.default_rng(children[0])
                    covariates = harness.draw_pair_covariates(config.n, config.support_probs, rng)
                beliefs, residual = _solve(tracer, covariates, config)
            with tracer.span("equilibrium.simulate"):
                true_net = equilibrium.simulate_true_network(
                    beliefs, covariates, config.support, th.externality, th.homophily,
                    seed=children[1],
                )
            with tracer.span("misclassification.flip"):
                observed = apply_misclassification(true_net, th.fp_rate, th.fn_rate, seed=children[2])
            data = Dataset(network=observed, covariates=covariates, support=config.support)
            with tracer.span("estimation.cells"):
                cells = cell_estimates(data)
            with tracer.span("estimation.statistic"):
                m = moment(data, th, cells)
                S = moment_variance(data, th, cells)
                stat = quadratic_form(m, S, data.n)
        except MisnetError as exc:
            return harness.ReplicationRecord(
                index, seed_label, float("nan"), float("nan"), False,
                error=f"{type(exc).__name__}: {exc}",
            )
    if with_influence:
        with tracer.span("estimation.influence", aside=True):
            stat_influence_all(data, cells)
    return harness.ReplicationRecord(index, seed_label, residual, stat, stat <= critical)


def replay_mc(tracer: Tracer, config, out_dir: Path):
    """Mirror of ``harness.run_mc_coverage`` plus ``harness.write_report``."""
    with tracer.span("harness.run"):
        dof = config.support.n_points
        critical = chi2_quantile(dof, 1.0 - config.alpha)
        fixed = fixed_design(tracer, config)
        records = [replicate(tracer, r, config, critical, fixed) for r in range(config.replications)]
        ok = [r for r in records if not r.error]
        stats = np.array([r.statistic for r in ok])
        report = harness.RunReport(
            records=records,
            alpha=config.alpha,
            dof=dof,
            critical_value=critical,
            coverage=float(np.mean([r.accepted for r in ok])) if ok else float("nan"),
            ks_distance=float(kstest(stats, chi2(dof).cdf).statistic) if ok else float("nan"),
            n_failed=len(records) - len(ok),
        )
        with tracer.span("netio.write"):
            harness.write_report(report, out_dir)
    return report


def replay_grid(tracer: Tracer, config, data_dir: Path, out_dir: Path):
    """Mirror of ``misnet ci`` then ``misnet sp-set`` on one stored dataset.

    Returns the confidence set and the membership results; the grid CSVs are
    written to ``out_dir`` so they can be compared byte for byte."""
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = config.grid
    with tracer.span("harness.run_ci"):
        with tracer.span("netio.load"):
            data = harness.load_dataset(data_dir)
        with tracer.span("inference.confidence_set"):
            with tracer.span("estimation.evaluator_init"):
                evaluator = MomentEvaluator(data)
            critical = chi2_quantile(data.n_cells, 1.0 - config.alpha)
            records = []
            for theta in grid:
                with tracer.span("estimation.point"):
                    try:
                        stat = evaluator.statistic(theta)
                    except DegenerateVariance:
                        stat = None
                if stat is None:
                    records.append(GridRecord(theta, float("nan"), False, REASON_DEGENERATE))
                else:
                    accepted = stat <= critical
                    records.append(
                        GridRecord(theta, stat, accepted, "" if accepted else REASON_ABOVE_CRITICAL)
                    )
            cs = ConfidenceSet(records, config.alpha, critical, data.n_cells, grid.coordinate_names())
        with tracer.span("netio.write"):
            write_grid_csv(cs, out_dir / "ci_grid.csv")
    with tracer.span("estimation.influence", aside=True):
        stat_influence_all(data, evaluator.cells)
    with tracer.span("harness.sp_set"):
        with tracer.span("netio.load"):
            data = harness.load_dataset(data_dir)
        with tracer.span("semiparametric.identified_set"):
            with tracer.span("estimation.cells"):
                cells = cell_estimates(data)
            results = []
            for theta in grid:
                with tracer.span("semiparametric.point"):
                    results.append((theta, membership(cell_summary(data, theta, cells), theta)))
        with tracer.span("netio.write"):
            write_membership_csv(results, grid.coordinate_names(), out_dir / "sp_grid.csv")
    return cs, results
