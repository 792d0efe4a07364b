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
counts, and C its covariance.  Per-cell sums over pairs read one 0/1 mask per
cell, the pairs assigned to it with the diagonal zeroed.  Counts, link sums and
the influence sums add 0/1 products, so they are exact in any summation order.

Parameter points arrive as rows of theta in the ``theta_coordinates``
layout; a single point is the one-row case.  :func:`_corrected_index` builds
one correction map per distinct (fp, fn) of the rows, and
:meth:`MomentEvaluator.statistics` is the one code that forms m, S and the
statistic, judging every S from one batched ``eigvalsh``.  A row's result
does not depend on the other rows.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateVariance, EmptyCell
from .misclassification import correction_maps
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


@dataclass(frozen=True)
class Dataset:
    """Observed network, pair covariates, and the covariate support."""

    network: Network
    covariates: PairCovariates
    support: CovariateSupport

    def __post_init__(self):
        if self.covariates.n != self.network.n:
            raise ValueError("covariate assignment and network sizes differ")
        if int(self.covariates.assignment.max()) >= self.support.n_points:
            raise ValueError("assignment references a cell outside the support")

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


def _agent_table(data: Dataset, counts: np.ndarray) -> np.ndarray:
    """Per agent k and cell j: k's links over its pairs (k, i) in the cell, then
    k's four statistic influences, shape (n, J, 5).  The first influence is k's
    links G_ki over the cell's pairs (i, k), scaled by n over the cell count: it
    reads the label of the reverse pair (i, k), hence ``cell.T``.  The other
    three are cell averages of k's terms in the inner sums.  Each row depends
    only on that agent's links.
    """
    n, J = data.n, data.n_cells
    g = data.network.adj.astype(float)
    out = np.empty((n, J, 5))
    for j in range(J):
        cell = (data.covariates.assignment == j).astype(float)
        np.fill_diagonal(cell, 0.0)
        m_count = counts[j]
        row_count, col_count = cell.sum(axis=1), cell.sum(axis=0)  # pairs per first/second index
        out[:, j, 0] = (g * cell).sum(axis=1)  # G_ki over pairs (k, i)
        out[:, j, 1] = n * (g * cell.T).sum(axis=1) / m_count  # G_ki over pairs (i, k)
        out[:, j, 2] = (g @ col_count) / m_count
        out[:, j, 3] = ((g @ cell) * g).sum(axis=1) / m_count
        out[:, j, 4] = (g @ (row_count + col_count)) / m_count
    return out


def cell_estimates(data: Dataset) -> CellEstimates:
    """Cell frequencies, statistics, link sums and C from the per-agent table; raises on empty cells."""
    n, J = data.n, data.n_cells
    off_diagonal = data.covariates.assignment[~np.eye(n, dtype=bool)]
    counts = np.bincount(off_diagonal, minlength=J).astype(float)
    for j in range(J):
        if counts[j] == 0:
            raise EmptyCell(j)
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
    four observed statistics ``cm.matrix.T @ externality`` (P, 4), from one
    population (n = inf) map per distinct (fp, fn).  The inner sums of the cell
    statistics run over every k, so the finite-n terms of the map's k != i
    convention would not describe them exactly; either way the residual is O(1/n).
    """
    points = np.asarray(points, dtype=float)
    ext, hom, fp, fn = points[:, :3, None], points[:, 3:-2, None], points[:, -2], points[:, -1]
    pairs = {}  # (fp, fn) -> map number; cheaper than np.unique(axis=0)
    which = [pairs.setdefault(pair, len(pairs)) for pair in zip(fp.tolist(), fn.tolist())]
    maps = [correction_maps(*pair) for pair in pairs]
    matrix_t = np.stack([cm.matrix.T for cm in maps])  # (K, 4, 3)
    corrected = cells.stats @ matrix_t + np.stack([cm.offset for cm in maps])[:, None]  # (K, J, 3)
    u = (corrected[which] @ ext)[..., 0] + (support.points @ hom)[..., 0]
    return u, 1.0 - fp - fn, (matrix_t[which] @ ext)[..., 0]


def moment(data: Dataset, theta: Theta, cells: CellEstimates | None = None) -> np.ndarray:
    """Sample moment vector; see :meth:`MomentEvaluator.moment`."""
    return MomentEvaluator(data, cells).moment(theta)


def stat_influence_all(data: Dataset, cells: CellEstimates) -> np.ndarray:
    """Agents' influence on the cell-averaged statistics, shape (n, J, 4).

    The influence columns of the per-agent table that :func:`cell_estimates`
    reads, recomputed from ``data`` with ``cells.counts``; the cell statistics
    are their agent means.
    """
    return _agent_table(data, cells.counts)[:, :, 1:]


def moment_variance(data: Dataset, theta: Theta, cells: CellEstimates | None = None) -> np.ndarray:
    """Across-agent covariance of the influence vectors; see :meth:`MomentEvaluator.variance`."""
    return MomentEvaluator(data, cells).variance(theta)


def quadratic_form(m: np.ndarray, S: np.ndarray, n: int) -> np.ndarray:
    """n * m' S^{-1} m over leading axes via a linear solve, floored at 0, and
    nothing else: :meth:`MomentEvaluator.statistics` has already judged S."""
    x = np.linalg.solve(S, m[..., None])
    return np.maximum(n * (m[..., None, :] @ x)[..., 0, 0], 0.0)


class MomentEvaluator:
    """The moment, its variance and the statistic of one dataset, over rows of theta.

    Everything that does not depend on theta, the covariance C included, comes
    from the cell estimates (pass ``cells`` to reuse ones already computed).
    Rows of theta then pay for one correction map per distinct (fp, fn) and a
    few batched array operations, none of order n.  S is degenerate when it is
    not finite, its smallest eigenvalue is below ``MIN_VARIANCE_EIGENVALUE`` or
    largest over smallest exceeds ``MAX_CONDITION_NUMBER``.  ``moment``,
    ``variance`` and ``statistic`` are the one-row case of :meth:`statistics`.
    """

    def __init__(self, data: Dataset, cells: CellEstimates | None = None):
        self.n, self.support = data.n, data.support
        self.cells = cell_estimates(data) if cells is None else cells

    def _evaluate(self, points):
        """m (P, J), S (P, J, J), S's eigenvalues (P, J) and the statistic (P,).

        m_j averages G_ij - r0 - (1 - r0 - r1) * Phi(corrected index) over cell
        j's pairs, scaled by the cell share.  S = c' C c: agent k's influence on
        m_j is its link share minus lam * w_j * slope' (its statistic
        influences), both in cell j, so c_j = (1, -lam * w_j * slope)."""
        points = np.asarray(points, dtype=float)
        cells = self.cells
        u, lam, slope = _corrected_index(cells, self.support, points)
        fitted = points[:, -2, None] + lam[:, None] * norm_cdf(u)
        m = (cells.link_sums - cells.counts * fitted) / cells.counts.sum()
        weights = norm_pdf(u) * cells.counts / (self.n * self.n)  # (P, J)
        influence = -lam[:, None, None] * (weights[..., None] * slope[:, None])  # (P, J, 4)
        coef = np.concatenate([np.ones_like(weights)[..., None], influence], axis=-1)
        S = np.einsum("pja,jakb,pkb->pjk", coef, cells.cov, coef)
        S = 0.5 * (S + S.swapaxes(1, 2))
        eye = np.eye(S.shape[-1])
        finite = np.isfinite(S).all(axis=(1, 2))  # eigvalsh of a NaN input may read as zeros
        eigs = np.linalg.eigvalsh(np.where(finite[:, None, None], S, eye))
        degenerate = ~finite | (eigs[:, 0] < MIN_VARIANCE_EIGENVALUE)
        degenerate |= eigs[:, -1] > MAX_CONDITION_NUMBER * eigs[:, 0]
        judged = np.where(degenerate[:, None, None], eye, S)  # solve only the S that passed
        return m, S, eigs, np.where(degenerate, np.nan, quadratic_form(m, judged, self.n))

    def statistics(self, points) -> np.ndarray:
        """Statistic per row of theta, (P,); NaN where S is degenerate and the chi-square fails."""
        return self._evaluate(points)[3]

    def _one(self, theta: Theta):
        """m, S and the statistic at ``theta``; raises DegenerateVariance with the reason."""
        m, S, eigs, stat = (a[0] for a in self._evaluate([theta_coordinates(theta)]))
        if not np.isnan(stat):
            return m, S, float(stat)
        low, floor = eigs[0], MIN_VARIANCE_EIGENVALUE
        raise DegenerateVariance(
            "variance is not finite" if not np.isfinite(S).all()
            else f"smallest variance eigenvalue {low:.3e} below {floor:.1e}" if low < floor
            else f"variance condition number {eigs[-1] / low:.3e} too large"
        )

    def moment(self, theta: Theta) -> np.ndarray:
        """Sample moment vector at ``theta``, one coordinate per cell; S is not judged."""
        return self._evaluate([theta_coordinates(theta)])[0][0]

    def variance(self, theta: Theta) -> np.ndarray:
        """S(theta), the across-agent covariance of the influence vectors, shape (J, J)."""
        return self._one(theta)[1]

    def statistic(self, theta: Theta) -> float:
        """Quadratic-form statistic at ``theta``; raises when S is degenerate."""
        return self._one(theta)[2]
