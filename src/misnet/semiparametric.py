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

:func:`identified_set` is the one verdict pass over a grid, from its points
array to each row's member flag and violation text, with no Python object per
point; ``sp-set`` writes them with :func:`write_membership_table`.

Only the benchmark in ``perfbench/``, which replays and spot-checks ``sp-set``
point by point, keeps the record form: :func:`cell_summary` and
``CellSummary``, :func:`membership` (the one-row verdict pass) with
``MembershipResult`` and ``Violation``, and :func:`write_membership_csv`
(``tracing.py:41`` and ``:264``, ``worker.py:33`` and ``:140``).
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
    "write_membership_table",
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


def _cell_means(evaluator: MomentEvaluator) -> np.ndarray:
    return evaluator.cells.link_sums / evaluator.cells.counts


def cell_summary(data: Dataset, theta: Theta, cells: CellEstimates | None = None) -> CellSummary:
    """Sample cell link means plus the corrected index under ``theta``.

    The means come from the link sums and counts that :func:`cell_estimates`
    computes once per dataset, so with ``cells`` given a call does no work of
    order n; only the index depends on ``theta``.
    """
    evaluator = MomentEvaluator(data, cells)
    return CellSummary(_cell_means(evaluator), evaluator.indices([theta_coordinates(theta)])[0])


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


def _violations(means: np.ndarray, indices: np.ndarray, rates: np.ndarray) -> list:
    """The failed conditions of each row of rates (fp, fn) (P, 2) and corrected
    index (P, J), against the cell means (J,), as (condition, cells, detail)
    triples; a member's list is empty.  Text is made only for the failed
    entries of the bound mask (P, J, 2) and the rank mask (P, J, J), in
    row-major order: cell by cell, fp before fn, then the rank pairs (a, b)
    where cell a has the larger mean but not the larger index."""
    over = np.stack([rates[:, :1] > means, rates[:, 1:] > 1.0 - means], axis=-1)
    unranked = (means[:, None] > means) & ~(indices[:, :, None] > indices[:, None, :])
    r, m, u = rates.tolist(), means.tolist(), indices.tolist()
    found = [[] for _ in r]
    for p, j, fn in np.argwhere(over).tolist():
        found[p].append(
            ("fn_bound", (j,), f"fn_rate {r[p][1]:g} > 1 - mean {1 - m[j]:g}") if fn
            else ("fp_bound", (j,), f"fp_rate {r[p][0]:g} > mean {m[j]:g}")
        )
    for p, a, b in np.argwhere(unranked).tolist():
        found[p].append((
            "rank", (a, b),
            f"mean[{a}] {m[a]:g} > mean[{b}] {m[b]:g} but index[{a}] {u[p][a]:g} <= index[{b}] {u[p][b]:g}",
        ))
    return found


def _text(found) -> str:
    """The ``violations`` field of one row: its failed conditions, ``; ``-joined."""
    return "; ".join(f"{condition}{cells}: {detail}" for condition, cells, detail in found)


def membership(summary: CellSummary, theta: Theta) -> MembershipResult:
    """Check the two bound conditions and the monotone-index rank condition:
    the one-row case of :func:`identified_set`'s verdict pass."""
    rates = np.array([[theta.fp_rate, theta.fn_rate]])
    found = _violations(summary.means, summary.indices[None], rates)[0]
    return MembershipResult(member=not found, violations=[Violation(*v) for v in found])


def identified_set(data: Dataset, grid: ThetaGrid) -> tuple:
    """The member flag (P,) and the violation text (a list of P str) of each
    row of ``grid.points`` (P, 5 + d), from one batched index."""
    points = grid.points
    evaluator = MomentEvaluator(data)
    found = _violations(_cell_means(evaluator), evaluator.indices(points), points[:, -2:])
    return np.array([not f for f in found]), list(map(_text, found))


def write_membership_table(path, names: list, points: np.ndarray, member, violations) -> None:
    """``sp_grid.csv``: the coordinates of each row of ``points`` under
    ``names``, then its member flag and violation text, column by column."""
    netio.write_columns(path, [*names, "member", "violations"], [*points.T, member, violations])


def write_membership_csv(results: list, names: list, path) -> None:
    """:func:`write_membership_table` for record-form verdicts."""
    points = np.array([theta_coordinates(theta) for theta, _ in results])
    member = np.array([res.member for _, res in results])
    text = [_text((v.condition, v.cells, v.detail) for v in res.violations) for _, res in results]
    write_membership_table(path, names, points, member, text)
