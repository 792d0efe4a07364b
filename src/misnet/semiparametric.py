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

    @property
    def n_cells(self) -> int:
        return self.means.shape[0]


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


def membership(summary: CellSummary, theta: Theta) -> MembershipResult:
    """Check the two bound conditions and the monotone-index rank condition."""
    violations = []
    means, indices = summary.means, summary.indices
    for j, mean in enumerate(means):
        if theta.fp_rate > mean:
            violations.append(
                Violation("fp_bound", (j,), f"fp_rate {theta.fp_rate:g} > mean {mean:g}")
            )
        if theta.fn_rate > 1.0 - mean:
            violations.append(
                Violation("fn_bound", (j,), f"fn_rate {theta.fn_rate:g} > 1 - mean {1 - mean:g}")
            )
    for a in range(summary.n_cells):
        for b in range(summary.n_cells):
            if means[a] > means[b] and not (indices[a] > indices[b]):
                violations.append(
                    Violation(
                        "rank",
                        (a, b),
                        f"mean[{a}] {means[a]:g} > mean[{b}] {means[b]:g} "
                        f"but index[{a}] {indices[a]:g} <= index[{b}] {indices[b]:g}",
                    )
                )
    return MembershipResult(member=not violations, violations=violations)


def identified_set(data: Dataset, grid: ThetaGrid) -> list:
    """Membership verdicts over the grid from one batched index: [(theta, MembershipResult)]."""
    evaluator = MomentEvaluator(data)
    means = evaluator.cells.link_sums / evaluator.cells.counts
    indices = evaluator.indices(grid.points)
    return [(theta, membership(CellSummary(means, u), theta)) for theta, u in zip(grid, indices)]


def write_membership_csv(results: list, names: list, path) -> None:
    """Verdicts and violation diagnostics as CSV."""
    rows = []
    for theta, res in results:
        detail = "; ".join(f"{v.condition}{v.cells}: {v.detail}" for v in res.violations)
        rows.append([*theta_coordinates(theta), res.member, detail])
    netio.write_table(path, [*names, "member", "violations"], rows)
