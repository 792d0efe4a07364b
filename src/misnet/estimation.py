"""Plug-in estimators from one observed network.

All pair sums run over ordered pairs with i != j (N = n(n-1) pairs); the
inner sums of the cell statistics run over every agent k, relying on the zero
diagonal to suppress degenerate terms.  Cell quantities are indexed by the
covariate support order.  The variance is the across-agent covariance of
per-agent influence vectors; each depends only on that agent's row of the
adjacency matrix, which is what makes it a valid variance estimate for the
moment vector.  The influence is a fixed linear map c(theta) of a theta-free
per-agent table (per cell: link share and four statistic influences), so with
C the 5J x 5J covariance of that table, S(theta) = c(theta)' C c(theta).

Everything that does not depend on theta comes from one per-agent table per
dataset, built once by :func:`cell_estimates`: the cell statistics are the
agent means of its influence columns, the link sums the agent sums of its link
counts, and C its covariance.  The table does not depend on summation order
or blocking; :func:`_agent_table` says why.

Parameter points arrive as rows of theta in the ``theta_coordinates``
layout; a single point is the one-row case.  :func:`_corrected_index` applies
the population correction of every row's rates in one array pass, which
:meth:`MomentEvaluator.indices` exposes, and :meth:`MomentEvaluator.statistics`
is the one code that forms m, S and the statistic, judging every S from one
batched ``eigvalsh``.  A row's result does not depend on the other rows.  The
cell estimates of several datasets, stacked along a leading axis by
:meth:`MomentEvaluator.stacked`, take the same path with one row per dataset.
"""

from dataclasses import dataclass, fields

import numpy as np

from .exceptions import DegenerateVariance, EmptyCell
from .misclassification import population_correction
from .model import CovariateSupport, Network, PairCovariates, Theta, theta_coordinates
from .normal import norm_cdf, norm_pdf

__all__ = [
    "Dataset",
    "CellEstimates",
    "cell_estimates",
    "moment",
    "stat_influence_all",
    "moment_variance",
    "quadratic_form",
    "MomentEvaluator",
]

MIN_VARIANCE_EIGENVALUE = 1e-10
MAX_CONDITION_NUMBER = 1e12
ROW_BLOCK = 256  # agents per block of the per-agent table
FLOAT32_EXACT = 2**24  # float32 holds every integer up to this one


@dataclass(frozen=True)
class Dataset:
    """Observed network, pair covariates, and the covariate support."""

    network: Network
    covariates: PairCovariates
    support: CovariateSupport

    def __post_init__(self):
        if self.covariates.n != self.network.n:
            raise ValueError("covariate assignment and network sizes differ")
        self.covariates.check_cells(self.support)

    @property
    def n(self) -> int:
        return self.network.n

    @property
    def n_cells(self) -> int:
        return self.support.n_points

    @property
    def n_pairs(self) -> int:
        return self.n * (self.n - 1)


@dataclass(frozen=True)
class CellEstimates:
    """Cell frequencies, cell-averaged link statistics, link sums and the covariance C.

    freq[j]  share of ordered pairs assigned to support point j
    stats[j] cell average of (reciprocal link, in-degree, common in-neighbor
             count, combined in-degree), each inner average scaled by 1/n
    counts[j] raw pair count of the cell
    link_sums[j] observed links among the cell's pairs
    cov      covariance over agents of the per-agent table (per cell: link
             share and four statistic influences), shape (J, 5, J, 5)

    None of these depends on theta: the moment, the variance and the
    semiparametric cell summary all read them from here.
    """

    freq: np.ndarray  # (J,)
    stats: np.ndarray  # (J, 4)
    counts: np.ndarray  # (J,)
    link_sums: np.ndarray  # (J,)
    cov: np.ndarray  # (J, 5, J, 5)


def _cell_counts(data: Dataset) -> np.ndarray:
    """All J off-diagonal pair counts, the last as n(n - 1) minus the others';
    raises ``EmptyCell`` for the first empty cell."""
    n, J = data.n, data.n_cells
    labels = data.covariates.assignment
    counts = np.empty(J)
    for j in range(J - 1):
        counts[j] = np.count_nonzero(labels == j) - np.count_nonzero(np.diagonal(labels) == j)
    counts[-1] = n * (n - 1) - counts[:-1].sum()
    for j in range(J):
        if counts[j] == 0:
            raise EmptyCell(j)
    return counts


def _agent_table(data: Dataset, counts: np.ndarray) -> np.ndarray:
    """Per agent k and cell j: k's links over its pairs (k, i) in the cell, then
    k's four statistic influences, shape (n, J, 5).  The first influence is k's
    links G_ki over the cell's pairs (i, k), scaled by n over the cell count: it
    reads the label of the reverse pair (i, k), so it is k's diagonal
    entry of ``g @ cell``, the product the last two columns also take.  The
    other three are cell averages of k's terms in the inner sums.  Each row
    depends only on that agent's links.

    Every column is an integer sum of 0/1 products, scaled last.  Cells
    0, ..., J - 2 are read from their float32 0/1 masks (diagonal cleared),
    one at a time; the cells partition the off-diagonal pairs, so the last
    cell's sums are k's totals minus the others': with d_k the out-degree,
    d_k, d_k, (n - 1) d_k, d_k (d_k - 1) and 2 (n - 1) d_k.  The columns are
    computed over blocks of ``ROW_BLOCK`` agents, each block's int8 links
    converted to float32 in turn, so neither a float32 copy of the adjacency
    nor the whole ``g @ cell`` is held.  The sums run in float32 on 0/1
    arrays and are exact: each partial sum is a non-negative integer no larger
    than the whole, and float32 holds every integer up to ``FLOAT32_EXACT`` =
    2^24.  ``g @ cell`` and the first two columns are at most n; the last
    three weight G_ki by at most n - 1 and reach n(n - 1), below 2^24 for
    n <= 4096.  These are summed over chunks of 2^24 // n columns of g, one
    chunk at n <= 4096, and the chunks added in float64.  All are exact
    integers, so the table is the same in any summation order, blocking and
    chunking.
    """
    n, adj = data.n, data.network.adj
    degree = adj.sum(axis=1, dtype=np.int32)
    width = max(1, FLOAT32_EXACT // n)  # columns per exact float32 sum
    raw = np.empty((n, data.n_cells, 5))
    for j in range(data.n_cells - 1):
        # written from the labels with no boolean mask beside it
        cell = np.equal(data.covariates.assignment, j, out=np.empty((n, n), dtype=np.float32))
        np.fill_diagonal(cell, 0.0)
        pairs = np.stack([cell.sum(axis=0), cell.sum(axis=1)], axis=1)  # per second, first index
        for start in range(0, n, ROW_BLOCK):
            rows = slice(start, start + ROW_BLOCK)
            g, out = adj[rows].astype(np.float32), raw[rows, j]
            g_cell = g @ cell
            out[:, 0] = np.einsum("ij,ij->i", g, cell[rows])  # G_ki over pairs (k, i)
            out[:, 1] = np.diagonal(g_cell, offset=start)  # G_ki over pairs (i, k)
            out[:, 2:] = 0.0
            for first in range(0, n, width):
                chunk = slice(first, first + width)
                weighted = g[:, chunk] @ pairs[chunk]  # G_ki times i's pairs per second, first index
                out[:, 2] += weighted[:, 0]
                out[:, 3] += np.einsum("ij,ij->i", g_cell[:, chunk], g[:, chunk])
                out[:, 4] += weighted.sum(axis=1, dtype=np.float64)
            del g_cell  # the next block's product is not allocated beside this one
        del cell  # the next cell's mask is not allocated beside this one
    totals = np.outer(degree, [1.0, 1.0, n - 1, 0.0, 2 * (n - 1)])
    totals[:, 3] = degree * (degree - 1.0)
    raw[:, -1] = totals - raw[:, :-1].sum(axis=1)
    raw[:, :, 1] *= n
    raw[:, :, 1:] /= counts[:, None]
    return raw


def cell_estimates(data: Dataset) -> CellEstimates:
    """Cell frequencies, statistics, link sums and C from the per-agent table;
    raises on empty cells before building it."""
    n, J = data.n, data.n_cells
    counts = _cell_counts(data)
    table = _agent_table(data, counts)
    link_sums = table[:, :, 0].sum(axis=0)
    stats = table[:, :, 1:].mean(axis=0)
    # link shares (1/n) sum_{i != k} G_ki per cell, then the statistic influences
    table[:, :, 0] /= n
    table = table.reshape(n, 5 * J)
    table -= table.mean(axis=0)
    cov = (table.T @ table / n).reshape(J, 5, J, 5)
    return CellEstimates(counts / data.n_pairs, stats, counts, link_sums, cov)


def _corrected_index(cells: CellEstimates, support: CovariateSupport, points):
    """Per row of theta (``theta_coordinates`` layout, (P, 5 + d)): the corrected
    index per cell u (P, J), lam = 1 - fp - fn (P,) and the index's slope in the
    four observed statistics ``matrix.T @ externality`` (P, 4), from the
    population (n = inf) correction of each row's rates.  The inner sums of the
    cell statistics run over every k, so the finite-n terms of the flip law's
    k != i convention would not describe them exactly; either way the residual
    is O(1/n).  x'hom is :meth:`CovariateSupport.homophily_index`, as in the
    solver.  Infeasible rates raise ``InvalidRates``.
    """
    points = np.asarray(points, dtype=float)
    ext, fp, fn = points[:, :3, None], points[:, -2], points[:, -1]
    offset, matrix = population_correction(fp, fn)
    matrix_t = np.ascontiguousarray(matrix.swapaxes(1, 2))  # (P, 4, 3)
    corrected = cells.stats @ matrix_t + offset[:, None]  # (P, J, 3)
    u = (corrected @ ext)[..., 0] + support.homophily_index(points[:, 3:-2])
    return u, 1.0 - fp - fn, (matrix_t @ ext)[..., 0]


def moment(data: Dataset, theta: Theta, cells: CellEstimates | None = None) -> np.ndarray:
    """Sample moment vector at ``theta``, one coordinate per cell; S is not judged."""
    return MomentEvaluator(data, cells)._evaluate([theta_coordinates(theta)])[0][0]


def stat_influence_all(data: Dataset, cells: CellEstimates) -> np.ndarray:
    """Agents' influence on the cell-averaged statistics, shape (n, J, 4).

    The influence columns of the per-agent table that :func:`cell_estimates`
    reads, recomputed from ``data`` with ``cells.counts``; the cell statistics
    are their agent means.
    """
    return _agent_table(data, cells.counts)[:, :, 1:]


def moment_variance(data: Dataset, theta: Theta, cells: CellEstimates | None = None) -> np.ndarray:
    """S(theta), the across-agent covariance of the influence vectors; raises when degenerate."""
    return MomentEvaluator(data, cells).evaluate(theta)[1]


def quadratic_form(m: np.ndarray, S: np.ndarray, n: int) -> np.ndarray:
    """n * m' S^{-1} m over leading axes via a linear solve, floored at 0, and
    nothing else: :meth:`MomentEvaluator.statistics` has already judged S."""
    x = np.linalg.solve(S, m[..., None])
    return np.maximum(n * (m[..., None, :] @ x)[..., 0, 0], 0.0)


def _degenerate_variance(S: np.ndarray, eigs: np.ndarray) -> DegenerateVariance:
    """The error of one degenerate S with its eigenvalues, saying which test failed."""
    low, floor = eigs[0], MIN_VARIANCE_EIGENVALUE
    return DegenerateVariance(
        "variance is not finite" if not np.isfinite(S).all()
        else f"smallest variance eigenvalue {low:.3e} below {floor:.1e}" if low < floor
        else f"variance condition number {eigs[-1] / low:.3e} too large"
    )


class MomentEvaluator:
    """The moment, its variance and the statistic of one dataset, over rows of theta.

    Everything that does not depend on theta, the covariance C included, comes
    from the cell estimates (pass ``cells`` to reuse ones already computed).
    Rows of theta then pay for a few batched array operations, none of order n.
    S is degenerate when it is not finite, its smallest eigenvalue is below
    ``MIN_VARIANCE_EIGENVALUE`` or largest over smallest exceeds
    ``MAX_CONDITION_NUMBER``.  :meth:`evaluate` and :meth:`statistic` are the
    one-row case of :meth:`statistics`.
    """

    def __init__(self, data: Dataset, cells: CellEstimates | None = None):
        self.n, self.support = data.n, data.support
        self.cells = cell_estimates(data) if cells is None else cells

    @classmethod
    def stacked(cls, cells: list, support: CovariateSupport, n: int) -> "MomentEvaluator":
        """The evaluator of several datasets of ``n`` agents on ``support``, one per
        row of theta: row p is evaluated on ``cells[p]``, and its results are
        those of dataset p's own evaluator bit for bit.  The cell estimates are
        stacked along a leading axis."""
        evaluator = cls.__new__(cls)
        evaluator.n, evaluator.support = n, support
        stack = (np.stack([getattr(c, field.name) for c in cells]) for field in fields(CellEstimates))
        evaluator.cells = CellEstimates(*stack)
        return evaluator

    def _evaluate(self, points):
        """m (P, J), S (P, J, J), S's eigenvalues (P, J) and the statistic (P,).

        m_j averages G_ij - r0 - (1 - r0 - r1) * Phi(corrected index) over cell
        j's pairs, scaled by the cell share.  S = c' C c: agent k's influence on
        m_j is its link share minus lam * w_j * slope' (its statistic
        influences), both in cell j, so c_j = (1, -lam * w_j * slope).  The cell
        estimates are one dataset's, or carry a leading axis aligned with the
        rows (:meth:`stacked`)."""
        points = np.asarray(points, dtype=float)
        cells = self.cells
        u, lam, slope = _corrected_index(cells, self.support, points)
        fitted = points[:, -2, None] + lam[:, None] * norm_cdf(u)
        m = (cells.link_sums - cells.counts * fitted) / cells.counts.sum(axis=-1, keepdims=True)
        weights = norm_pdf(u) * cells.counts / (self.n * self.n)  # (P, J)
        influence = -lam[:, None, None] * (weights[..., None] * slope[:, None])  # (P, J, 4)
        coef = np.concatenate([np.ones_like(weights)[..., None], influence], axis=-1)
        S = np.einsum("...ja,...jakb,...kb->...jk", coef, cells.cov, coef)
        S = 0.5 * (S + S.swapaxes(1, 2))
        eye = np.eye(S.shape[-1])
        finite = np.isfinite(S).all(axis=(1, 2))  # eigvalsh of a NaN input may read as zeros
        eigs = np.linalg.eigvalsh(np.where(finite[:, None, None], S, eye))
        degenerate = ~finite | (eigs[:, 0] < MIN_VARIANCE_EIGENVALUE)
        degenerate |= eigs[:, -1] > MAX_CONDITION_NUMBER * eigs[:, 0]
        judged = np.where(degenerate[:, None, None], eye, S)  # solve only the S that passed
        return m, S, eigs, np.where(degenerate, np.nan, quadratic_form(m, judged, self.n))

    def indices(self, points) -> np.ndarray:
        """Corrected single index per row of theta and cell, (P, J)."""
        return _corrected_index(self.cells, self.support, points)[0]

    def statistics(self, points) -> np.ndarray:
        """Statistic per row of theta, (P,); NaN where S is degenerate and the chi-square fails."""
        return self._evaluate(points)[3]

    def checked_statistics(self, points) -> tuple:
        """Statistic per row of theta, (P,), NaN where S is degenerate, and per
        row None or the ``DegenerateVariance`` that :meth:`evaluate` raises there."""
        _, S, eigs, stats = self._evaluate(points)
        errors = [_degenerate_variance(S[p], eigs[p]) if np.isnan(stat) else None for p, stat in enumerate(stats)]
        return stats, errors

    def evaluate(self, theta: Theta):
        """m, S and the statistic at ``theta``; raises DegenerateVariance with the reason."""
        m, S, eigs, stat = (a[0] for a in self._evaluate([theta_coordinates(theta)]))
        if np.isnan(stat):
            raise _degenerate_variance(S, eigs)
        return m, S, float(stat)

    def statistic(self, theta: Theta) -> float:
        """Quadratic-form statistic at ``theta``; raises when S is degenerate."""
        return self.evaluate(theta)[2]
