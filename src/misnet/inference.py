"""Confidence sets by test statistic inversion over a parameter grid.

A parameter point has one coordinate layout everywhere: three externality
weights, d homophily weights, fp, fn (``theta_coordinates``,
``ThetaGrid.coordinate_names``).  ``ThetaGrid`` takes one axis per
coordinate in that order and holds ``points``, the array of its feasible
points, one row per point.

Every grid point is tested with the quadratic-form statistic against the
chi-square critical value with one degree of freedom per covariate cell; the
statistics of all points come from one batched evaluation over ``points``.
Points where the variance estimate is degenerate are kept in the output with
an explicit reason instead of being silently dropped: treating them as
accepted would invalidate coverage, treating them as rejected would
over-reject.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv

from . import netio
from .estimation import Dataset, MomentEvaluator
from .exceptions import EmptySet
from .model import Theta, theta_coordinates

__all__ = [
    "chi2_quantile",
    "ThetaGrid",
    "GridRecord",
    "ConfidenceSet",
    "confidence_set",
    "projection_intervals",
    "write_grid_csv",
    "theta_coordinates",
    "REASON_ABOVE_CRITICAL",
    "REASON_DEGENERATE",
]

REASON_ABOVE_CRITICAL = "statistic_above_critical"
REASON_DEGENERATE = "degenerate_variance"


def chi2_quantile(dof: int, prob: float) -> float:
    """1 - alpha style quantile of the chi-square distribution, as ``scipy.stats.chi2.ppf`` has it."""
    if dof < 1:
        raise ValueError("dof must be at least 1")
    if not (0 < prob < 1):
        raise ValueError("prob must lie in (0, 1)")
    return float(2 * gammaincinv(dof / 2, prob))


@dataclass(frozen=True)
class ThetaGrid:
    """Cartesian parameter grid, held as one array of its feasible points.

    ``axes`` holds one axis per coordinate in ``coordinate_names()`` order,
    the order ``theta_coordinates`` flattens a ``Theta`` into: three
    externality weights, d homophily weights, then fp and fn, so
    d = ``len(axes) - 5``.  ``points`` is the (P, 5 + d) array of the
    Cartesian product, last axis fastest, with the points where
    fp + fn >= 1 dropped; iteration yields one ``Theta`` per row.  The grid
    must keep at least one point.
    """

    axes: tuple

    def __post_init__(self):
        axes = tuple(np.atleast_1d(np.asarray(a, dtype=float)) for a in self.axes)
        if len(axes) < 6:
            raise ValueError("grid needs 3 externality, at least 1 homophily and 2 rate axes")
        for axis in axes:
            if axis.ndim != 1 or axis.size < 1 or not np.all(np.isfinite(axis)):
                raise ValueError("grid axes must be non-empty and finite")
        if np.any(axes[-2] < 0) or np.any(axes[-1] < 0):
            raise ValueError("rate axes must be non-negative")
        points = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(axes))
        points = points[points[:, -2] + points[:, -1] < 1]
        if len(points) == 0:
            raise ValueError("grid contains no feasible rate combination")
        points.setflags(write=False)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "points", points)

    @property
    def dimension(self) -> int:
        return len(self.axes) - 5

    def coordinate_names(self) -> list:
        hom = [f"w_x{k + 1}" for k in range(self.dimension)]
        return ["w_recip", "w_indeg", "w_common", *hom, "fp_rate", "fn_rate"]

    def __iter__(self):
        for row in self.points:
            yield Theta(externality=row[:3], homophily=row[3:-2], fp_rate=row[-2], fn_rate=row[-1])

    def __len__(self):
        return len(self.points)


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
    coordinate_names: list

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
    dof = data.n_cells
    critical = chi2_quantile(dof, 1.0 - alpha)
    stats = MomentEvaluator(data).statistics(grid.points)
    accepted = stats <= critical  # False where the statistic is NaN
    reasons = np.where(np.isnan(stats), REASON_DEGENERATE, REASON_ABOVE_CRITICAL)
    reasons = np.where(accepted, "", reasons).tolist()
    records = list(map(GridRecord, grid, stats.tolist(), accepted.tolist(), reasons))
    return ConfidenceSet(records, alpha, critical, dof, grid.coordinate_names())


def projection_intervals(cs: ConfidenceSet) -> dict:
    """Coordinatewise [min, max] of the accepted grid points: an inner approximation
    of the set's projection, each end up to one grid step inside the true end, and
    a set thinner than the grid can accept no point (``EmptySet``)."""
    accepted = [theta_coordinates(theta) for theta, _ in cs.accepted]
    if not accepted:
        raise EmptySet(f"no parameter point accepted at level {cs.alpha}")
    coords = np.array(accepted)
    return {
        name: (float(coords[:, k].min()), float(coords[:, k].max()))
        for k, name in enumerate(cs.coordinate_names)
    }


def write_grid_csv(cs: ConfidenceSet, path) -> None:
    """Per-point statistics as CSV: coordinates, statistic, accepted, reason."""
    records = cs.records
    coords = np.array([theta_coordinates(r.theta) for r in records]).T
    stats, accepted = np.array([r.statistic for r in records]), np.array([r.accepted for r in records])
    header = [*cs.coordinate_names, "statistic", "accepted", "reason"]
    netio.write_columns(path, header, [*coords, stats, accepted, [r.reason for r in records]])
