"""Membership test for the semiparametric identified set.

When the shock distribution is unknown, a parameter point is consistent with
the data if (a) the false-positive rate is at most every cell's link mean,
(b) the false-negative rate is at most every cell's non-link mean, and (c)
some weakly increasing right-continuous function maps the corrected single
index of each cell to its link mean.  Condition (c) reduces to a rank condition on
the finitely many cells: a strictly larger mean must come with a strictly
larger index.  Ties in means impose no constraint; equal indices with unequal
means are violations.

This is a population-logic checker: sample cell means are plugged in without
sampling uncertainty.
"""

from dataclasses import dataclass

import numpy as np

from . import netio
from .estimation import Dataset, CellEstimates, MomentEvaluator
from .inference import ThetaGrid
from .model import Theta, theta_coordinates

__all__ = [
    "CellSummary",
    "cell_summary",
    "MembershipResult",
    "membership",
    "identified_set",
    "write_membership_csv",
]


@dataclass(frozen=True)
class CellSummary:
    """Per-cell link means and corrected single-index values."""

    means: np.ndarray  # (J,)
    indices: np.ndarray  # (J,)

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float).reshape(-1)
        indices = np.asarray(self.indices, dtype=float).reshape(-1)
        if means.shape != indices.shape:
            raise ValueError("means and indices must have equal length")
        if np.any(means < 0) or np.any(means > 1):
            raise ValueError("cell means must lie in [0, 1]")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "indices", indices)


def cell_summary(data: Dataset, theta: Theta, cells: CellEstimates | None = None) -> CellSummary:
    """Sample cell link means plus the corrected index under ``theta``.

    The means come from the link sums and counts that :func:`cell_estimates`
    computes once per dataset, so with ``cells`` given a call does no work of
    order n; only the index depends on ``theta``.
    """
    evaluator = MomentEvaluator(data, cells)
    means = evaluator.cells.link_sums / evaluator.cells.counts
    return CellSummary(means, evaluator.indices([theta_coordinates(theta)])[0])


@dataclass(frozen=True)
class Violation:
    """One failed membership condition."""

    condition: str  # "fp_bound", "fn_bound" or "rank"
    cells: tuple
    detail: str


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    violations: list


def _verdicts(means: np.ndarray, indices: np.ndarray, rates: np.ndarray) -> list:
    """One ``MembershipResult`` per row of rates (fp, fn) (P, 2) and corrected
    index (P, J), against the cell means (J,).  ``Violation`` text is made only
    for the failed entries of the bound mask (P, J, 2) and the rank mask
    (P, J, J), in row-major order: cell by cell, fp before fn, then the rank
    pairs (a, b) where cell a has the larger mean but not the larger index."""
    over = np.stack([rates[:, :1] > means, rates[:, 1:] > 1.0 - means], axis=-1)
    unranked = (means[:, None] > means) & ~(indices[:, :, None] > indices[:, None, :])
    r, m, u = rates.tolist(), means.tolist(), indices.tolist()
    found = [[] for _ in r]
    for p, j, fn in np.argwhere(over).tolist():
        found[p].append(
            Violation("fn_bound", (j,), f"fn_rate {r[p][1]:g} > 1 - mean {1 - m[j]:g}") if fn
            else Violation("fp_bound", (j,), f"fp_rate {r[p][0]:g} > mean {m[j]:g}")
        )
    for p, a, b in np.argwhere(unranked).tolist():
        found[p].append(Violation(
            "rank", (a, b),
            f"mean[{a}] {m[a]:g} > mean[{b}] {m[b]:g} but index[{a}] {u[p][a]:g} <= index[{b}] {u[p][b]:g}",
        ))
    return [MembershipResult(member=not violations, violations=violations) for violations in found]


def membership(summary: CellSummary, theta: Theta) -> MembershipResult:
    """Check the two bound conditions and the monotone-index rank condition:
    the one-row case of :func:`identified_set`'s verdict pass."""
    rates = np.array([[theta.fp_rate, theta.fn_rate]])
    return _verdicts(summary.means, summary.indices[None], rates)[0]


def identified_set(data: Dataset, grid: ThetaGrid) -> list:
    """Membership verdicts over the grid from one batched index: [(theta, MembershipResult)]."""
    evaluator = MomentEvaluator(data)
    means = evaluator.cells.link_sums / evaluator.cells.counts
    verdicts = _verdicts(means, evaluator.indices(grid.points), grid.points[:, -2:])
    return list(zip(grid, verdicts))


def write_membership_csv(results: list, names: list, path) -> None:
    """Verdicts and violation diagnostics as CSV."""
    coords = np.array([theta_coordinates(theta) for theta, _ in results]).T
    member = np.array([res.member for _, res in results])
    details = [
        "; ".join(f"{v.condition}{v.cells}: {v.detail}" for v in res.violations) for _, res in results
    ]
    netio.write_columns(path, [*names, "member", "violations"], [*coords, member, details])
