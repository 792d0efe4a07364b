"""Confidence sets by test statistic inversion over a parameter grid.

Every grid point is tested with the quadratic-form statistic against the
chi-square critical value with one degree of freedom per covariate cell.
Points where the variance estimate is degenerate are kept in the output with
an explicit reason instead of being silently dropped: treating them as
accepted would invalidate coverage, treating them as rejected would
over-reject.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import chi2

from . import netio
from .estimation import Dataset, MomentEvaluator
from .exceptions import DegenerateVariance, EmptySet
from .model import Theta

__all__ = [
    "chi2_quantile",
    "ThetaGrid",
    "GridRecord",
    "ConfidenceSet",
    "confidence_set",
    "projection_intervals",
    "write_grid_csv",
    "REASON_ABOVE_CRITICAL",
    "REASON_DEGENERATE",
]

REASON_ABOVE_CRITICAL = "statistic_above_critical"
REASON_DEGENERATE = "degenerate_variance"


def chi2_quantile(dof: int, prob: float) -> float:
    """1 - alpha style quantile of the chi-square distribution."""
    if dof < 1:
        raise ValueError("dof must be at least 1")
    if not (0 < prob < 1):
        raise ValueError("prob must lie in (0, 1)")
    return float(chi2.ppf(prob, dof))


@dataclass(frozen=True)
class ThetaGrid:
    """Cartesian parameter grid with a fixed iteration order.

    Axes are given per coordinate: three externality weights, d homophily
    weights, then the two misclassification rates.  Iteration runs the last
    axis fastest.  Rate combinations with fp + fn >= 1 are skipped, so every
    yielded point lies in the parameter space; the grid must keep at least
    one feasible point.
    """

    externality_axes: tuple
    homophily_axes: tuple
    fp_axis: np.ndarray
    fn_axis: np.ndarray

    def __post_init__(self):
        ext = tuple(np.atleast_1d(np.asarray(a, dtype=float)) for a in self.externality_axes)
        hom = tuple(np.atleast_1d(np.asarray(a, dtype=float)) for a in self.homophily_axes)
        fp = np.atleast_1d(np.asarray(self.fp_axis, dtype=float))
        fn = np.atleast_1d(np.asarray(self.fn_axis, dtype=float))
        if len(ext) != 3:
            raise ValueError("exactly three externality axes required")
        if len(hom) < 1:
            raise ValueError("at least one homophily axis required")
        for axis in (*ext, *hom, fp, fn):
            if axis.size < 1 or not np.all(np.isfinite(axis)):
                raise ValueError("grid axes must be non-empty and finite")
        if np.any(fp < 0) or np.any(fn < 0):
            raise ValueError("rate axes must be non-negative")
        if fp.min() + fn.min() >= 1:
            raise ValueError("grid contains no feasible rate combination")
        object.__setattr__(self, "externality_axes", ext)
        object.__setattr__(self, "homophily_axes", hom)
        object.__setattr__(self, "fp_axis", fp)
        object.__setattr__(self, "fn_axis", fn)

    @property
    def dimension(self) -> int:
        return len(self.homophily_axes)

    def coordinate_names(self) -> list:
        hom = [f"w_x{k + 1}" for k in range(self.dimension)]
        return ["w_recip", "w_indeg", "w_common", *hom, "fp_rate", "fn_rate"]

    def __iter__(self):
        axes = [*self.externality_axes, *self.homophily_axes, self.fp_axis, self.fn_axis]
        d = self.dimension
        for values in itertools.product(*axes):
            fp, fn = values[3 + d], values[4 + d]
            if fp + fn >= 1:
                continue
            yield Theta(
                externality=np.array(values[:3]),
                homophily=np.array(values[3 : 3 + d]),
                fp_rate=fp,
                fn_rate=fn,
            )

    def __len__(self):
        base = 1
        for axis in (*self.externality_axes, *self.homophily_axes):
            base *= axis.size
        feasible = sum(
            1 for fp in self.fp_axis for fn in self.fn_axis if fp + fn < 1
        )
        return base * feasible

    @classmethod
    def singleton(cls, theta: Theta) -> "ThetaGrid":
        """Degenerate grid holding exactly one parameter point."""
        return cls(
            externality_axes=tuple([v] for v in theta.externality),
            homophily_axes=tuple([v] for v in theta.homophily),
            fp_axis=[theta.fp_rate],
            fn_axis=[theta.fn_rate],
        )


def theta_coordinates(theta: Theta) -> list:
    return [*theta.externality, *theta.homophily, theta.fp_rate, theta.fn_rate]


@dataclass(frozen=True)
class GridRecord:
    """Outcome of testing one grid point."""

    theta: Theta
    statistic: float  # nan when the variance was degenerate
    accepted: bool
    reason: str  # empty when accepted


@dataclass(frozen=True)
class ConfidenceSet:
    """All grid records plus the calibration used to accept them."""

    records: list
    alpha: float
    critical_value: float
    dof: int
    coordinate_names: list = field(default_factory=list)

    @property
    def accepted(self) -> list:
        return [(r.theta, r.statistic) for r in self.records if r.accepted]

    @property
    def n_degenerate(self) -> int:
        return sum(1 for r in self.records if r.reason == REASON_DEGENERATE)


def confidence_set(data: Dataset, grid: ThetaGrid, alpha: float = 0.05) -> ConfidenceSet:
    """Invert the test over the grid at level ``alpha``.

    A point is accepted when its statistic is at or below the chi-square
    quantile with one degree of freedom per cell.  Degenerate-variance points
    are recorded with reason ``degenerate_variance``.
    """
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")
    evaluator = MomentEvaluator(data)
    dof = data.n_cells
    critical = chi2_quantile(dof, 1.0 - alpha)
    records = []
    for theta in grid:
        try:
            stat = evaluator.statistic(theta)
        except DegenerateVariance:
            records.append(GridRecord(theta, float("nan"), False, REASON_DEGENERATE))
            continue
        accepted = stat <= critical
        reason = "" if accepted else REASON_ABOVE_CRITICAL
        records.append(GridRecord(theta, stat, accepted, reason))
    return ConfidenceSet(
        records=records,
        alpha=alpha,
        critical_value=critical,
        dof=dof,
        coordinate_names=grid.coordinate_names(),
    )


def projection_intervals(cs: ConfidenceSet) -> dict:
    """Coordinatewise [min, max] of the accepted set; conservative by projection."""
    accepted = [theta_coordinates(theta) for theta, _ in cs.accepted]
    if not accepted:
        raise EmptySet(f"no parameter point accepted at level {cs.alpha}")
    coords = np.array(accepted)
    names = cs.coordinate_names or [f"coord{i}" for i in range(coords.shape[1])]
    return {
        name: (float(coords[:, k].min()), float(coords[:, k].max()))
        for k, name in enumerate(names)
    }


def write_grid_csv(cs: ConfidenceSet, path) -> None:
    """Per-point statistics as CSV: coordinates, statistic, accepted, reason."""
    header = [*cs.coordinate_names, "statistic", "accepted", "reason"]
    rows = ([*theta_coordinates(r.theta), r.statistic, r.accepted, r.reason] for r in cs.records)
    netio.write_table(path, header, rows)
