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
counts, and C its covariance.  Per-cell sums over pairs use one ``bincount``
over the cell labels with the diagonal parked in a spare bin J.  Counts, link
sums and the influence sums add 0/1 products, so they are exact in any
summation order.

Per theta, :func:`_corrected_index` builds the one correction map that the
moment, the variance and the semiparametric cell summary read; the variance
is judged from one ``eigvalsh`` (see :class:`MomentEvaluator`), and
:func:`quadratic_form` only solves.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateVariance, EmptyCell
from .misclassification import correction_maps
from .model import CovariateSupport, Network, PairCovariates, Theta
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


def _parked_labels(data: Dataset) -> np.ndarray:
    """Cell labels with the diagonal moved to the spare bin J, shape (n, n)."""
    labels = data.covariates.assignment.copy()
    np.fill_diagonal(labels, data.n_cells)
    return labels


def _row_sums_by_cell(labels: np.ndarray, n_cells: int, weights=None) -> np.ndarray:
    """Sum of ``weights`` (default 1) over each row's pairs in each cell, shape (J, n)."""
    n = labels.shape[0]
    keys = labels * n + np.arange(n)[:, None]
    w = None if weights is None else weights.ravel()
    sums = np.bincount(keys.ravel(), weights=w, minlength=(n_cells + 1) * n)
    return sums.reshape(n_cells + 1, n)[:n_cells].astype(float)


def _agent_table(data: Dataset, counts: np.ndarray) -> np.ndarray:
    """Per agent k and cell j: k's links over its pairs (k, i) in the cell, then
    k's four statistic influences, shape (n, J, 5).  The first influence is k's
    links over the cell's pairs (i, k), scaled by n over the cell count; the
    other three are cell averages of k's terms in the inner sums.  Each row
    depends only on that agent's links.
    """
    n, J = data.n, data.n_cells
    g = data.network.adj.astype(float)
    labels = _parked_labels(data)
    row_count = _row_sums_by_cell(labels, J)  # pairs per first index
    col_count = _row_sums_by_cell(labels.T, J)  # pairs per second index
    links_in = _row_sums_by_cell(labels.T, J, g)  # G_ki over pairs (i, k)
    out = np.empty((n, J, 5))
    out[:, :, 0] = _row_sums_by_cell(labels, J, g).T  # G_ki over pairs (k, i)
    for j in range(J):
        m_count = counts[j]
        out[:, j, 1] = n * links_in[j] / m_count
        out[:, j, 2] = (g @ col_count[j]) / m_count
        out[:, j, 3] = ((g @ (labels == j).astype(float)) * g).sum(axis=1) / m_count
        out[:, j, 4] = (g @ (row_count[j] + col_count[j])) / m_count
    return out


def cell_estimates(data: Dataset) -> CellEstimates:
    """Cell frequencies, statistics, link sums and C from the per-agent table; raises on empty cells."""
    n, J = data.n, data.n_cells
    counts = np.bincount(_parked_labels(data).ravel(), minlength=J + 1)[:J].astype(float)
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


def _corrected_index(cells: CellEstimates, support: CovariateSupport, theta: Theta):
    """From one correction map: the corrected utility index per cell u (J,),
    lam = 1 - fp - fn, and the index's slope in the four observed statistics
    ``cm.matrix.T @ externality`` (4,).  The population (n = inf) map is used:
    the inner sums of the cell statistics run over every k, so the finite-n
    terms of the map's k != i convention would not describe them exactly;
    either way the residual is O(1/n).
    """
    cm = correction_maps(theta.fp_rate, theta.fn_rate)
    corrected = cells.stats @ cm.matrix.T + cm.offset  # (J, 3)
    u = corrected @ theta.externality + support.points @ theta.homophily
    lam = 1.0 - theta.fp_rate - theta.fn_rate
    return u, lam, cm.matrix.T @ theta.externality


def moment(data: Dataset, theta: Theta, cells: CellEstimates | None = None) -> np.ndarray:
    """Sample moment vector, one coordinate per covariate cell.

    m_j averages G_ij - r0 - (1 - r0 - r1) * Phi(corrected index) over the
    pairs of cell j, scaled by the cell share, so each |m_j| <= freq[j].
    """
    if cells is None:
        cells = cell_estimates(data)
    u, lam, _ = _corrected_index(cells, data.support, theta)
    return _moment(cells, theta, u, lam)


def _moment(cells: CellEstimates, theta: Theta, u: np.ndarray, lam: float) -> np.ndarray:
    """:func:`moment` from the cell estimates and the index; the cells partition the N pairs."""
    fitted = theta.fp_rate + lam * norm_cdf(u)
    return (cells.link_sums - cells.counts * fitted) / cells.counts.sum()


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


def quadratic_form(m: np.ndarray, S: np.ndarray, n: int) -> float:
    """n * m' S^{-1} m via a linear solve, and nothing else: S comes from
    :meth:`MomentEvaluator.variance`, which has already judged it."""
    value = float(n * (m @ np.linalg.solve(S, m)))
    return max(value, 0.0)


class MomentEvaluator:
    """The moment, its variance and the statistic of one dataset, for any theta.

    This is the only code that builds the variance.  Everything that does not
    depend on theta, the covariance C included, comes from the cell estimates
    (pass ``cells`` to reuse ones already computed); the evaluator keeps no
    array of its own.  Each theta then pays for one correction map, the
    moment, c' C c and one J x J ``eigvalsh``, none of it of order n.  S is
    degenerate when it is not finite, its smallest eigenvalue is below
    ``MIN_VARIANCE_EIGENVALUE`` or largest over smallest exceeds
    ``MAX_CONDITION_NUMBER``.
    """

    def __init__(self, data: Dataset, cells: CellEstimates | None = None):
        self.n, self.support = data.n, data.support
        self.cells = cell_estimates(data) if cells is None else cells

    def moment(self, theta: Theta) -> np.ndarray:
        u, lam, _ = _corrected_index(self.cells, self.support, theta)
        return _moment(self.cells, theta, u, lam)

    def variance(self, theta: Theta) -> np.ndarray:
        """S(theta) = c' C c, the across-agent covariance of the influence vectors, shape (J, J).

        Agent k's influence on m_j is its link share minus lam * w_j * slope'
        (its statistic influences), both in cell j, so c_j = (1, -lam * w_j * slope).
        Raises :class:`DegenerateVariance` when S is degenerate (see the class),
        which signals that the chi-square calibration fails in this sample.
        """
        return self._variance(*_corrected_index(self.cells, self.support, theta))

    def _variance(self, u: np.ndarray, lam: float, slope: np.ndarray) -> np.ndarray:
        """:meth:`variance` from the per-theta quantities of :func:`_corrected_index`."""
        weights = norm_pdf(u) * self.cells.counts / (self.n * self.n)  # (J,)
        coef = np.column_stack([np.ones_like(weights), -lam * np.outer(weights, slope)])  # (J, 5)
        S = np.einsum("ja,jakb,kb->jk", coef, self.cells.cov, coef)
        S = 0.5 * (S + S.T)
        if not np.isfinite(S).all():  # eigvalsh of a NaN input may read as zeros
            raise DegenerateVariance("variance is not finite")
        eigs = np.linalg.eigvalsh(S)
        if eigs[0] < MIN_VARIANCE_EIGENVALUE:
            raise DegenerateVariance(
                f"smallest variance eigenvalue {eigs[0]:.3e} below {MIN_VARIANCE_EIGENVALUE:.1e}"
            )
        if eigs[-1] > MAX_CONDITION_NUMBER * eigs[0]:
            raise DegenerateVariance(f"variance condition number {eigs[-1] / eigs[0]:.3e} too large")
        return S

    def statistic(self, theta: Theta) -> float:
        """Quadratic-form statistic of the moment vector at ``theta``."""
        u, lam, slope = _corrected_index(self.cells, self.support, theta)
        m = _moment(self.cells, theta, u, lam)
        return quadratic_form(m, self._variance(u, lam, slope), self.n)
