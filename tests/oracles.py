"""Independent brute-force implementations used as test oracles.

Everything here is written as plain loops straight off the estimator
definitions, deliberately sharing no code path with the package internals
(except the normal cdf, whose accuracy is checked separately against mpmath).
It also holds the model's link utility, against which the link rule is
checked by enumeration, the covariate vector of every pair, whose per-pair
x'hom the solver's per-point one must equal, a solver loop written through the public best
response, against which the package's plain-array loop is checked, the
belief statistics as an (n, n, 3) stack, whose weighted sum the solver's index
must equal, and the extended statistics the forward-map checks need (both
checked against :func:`brute_extended_stats`), the latent draw written pair
by pair, one uniform per ordered pair, against which the package's vectorized
draw is checked bit for bit, the flip law's forward map at
network size n with its inverse, against which the package's population
correction is checked, and a writer for edge-list network files, which only
the reader's tests need.  The per-agent table is also kept here in its
float64 form, one n^3 product per cell with every cell masked, so that the
package's float32 table, which takes the last cell from the agent totals, can
be checked against it bit for bit.  The grid commands' outputs and the
membership check are kept here in their row-wise form, one ``Theta``, one
statistic, one Python loop and one formatted row per grid point, against
which the array path from the grid's points to its columns is checked byte
for byte.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from misnet.equilibrium import BeliefMatrix, SolverConfig, best_response
from misnet.estimation import CellEstimates, Dataset, MomentEvaluator
from misnet.exceptions import DegenerateVariance, EmptyCell, NonConvergence
from misnet.inference import REASON_ABOVE_CRITICAL, REASON_DEGENERATE, chi2_quantile
from misnet.model import CovariateSupport, Network, PairCovariates, Theta, theta_coordinates
from misnet.normal import norm_cdf, norm_pdf
from misnet.semiparametric import CellSummary, MembershipResult, Violation


# ---------------------------------------------------------------------------
# regularized incomplete gamma and chi-square quantiles


def reg_gamma_lower(a: float, x: float) -> float:
    """P(a, x) by series (x < a + 1) or continued fraction, to ~1e-14."""
    if x < 0 or a <= 0:
        raise ValueError("invalid arguments")
    if x == 0:
        return 0.0
    if x < a + 1.0:
        # series expansion around zero
        term = 1.0 / a
        total = term
        denom = a
        for _ in range(500):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    # Lentz continued fraction for the upper tail Q(a, x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    q = math.exp(-x + a * math.log(x) - math.lgamma(a)) * h
    return 1.0 - q


def chi2_cdf(x: float, dof: int) -> float:
    return reg_gamma_lower(dof / 2.0, x / 2.0)


def chi2_quantile_bisect(dof: int, prob: float, tol: float = 1e-12) -> float:
    """Bracket and bisect the chi-square cdf."""
    lo, hi = 0.0, 1.0
    while chi2_cdf(hi, dof) < prob:
        hi *= 2.0
        if hi > 1e8:
            raise RuntimeError("bracketing failed")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if chi2_cdf(mid, dof) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# belief statistics


def brute_network_stats(p: np.ndarray) -> np.ndarray:
    """(n, n, 3) expected statistics by direct summation."""
    n = p.shape[0]
    out = np.zeros((n, n, 3))
    for i in range(n):
        for j in range(n):
            s2 = sum(p[k, j] for k in range(n) if k != i) / n
            s3 = sum(p[k, i] * p[k, j] for k in range(n) if k != i) / n
            out[i, j] = (p[j, i], s2, s3)
    return out


def brute_extended_stats(p: np.ndarray) -> np.ndarray:
    """(n, n, 4): the three statistics plus the combined in-degree term."""
    n = p.shape[0]
    base = brute_network_stats(p)
    out = np.zeros((n, n, 4))
    for i in range(n):
        for j in range(n):
            s4 = sum(p[k, i] + p[k, j] for k in range(n) if k != i) / n
            out[i, j] = (*base[i, j], s4)
    return out


def network_stats(p: np.ndarray) -> np.ndarray:
    """Expected network statistics per ordered pair from beliefs p, shape (n, n, 3).

    Entry (i, j) holds
        (p_ji,  (1/n) sum_{k != i} p_kj,  (1/n) sum_{k != i} p_ki * p_kj);
    the k = i term of the last vanishes through the zero diagonal.
    """
    n = p.shape[0]
    col = p.sum(axis=0)  # sum_k p_kj, with p_jj = 0
    return np.stack([p.T, (col[None, :] - p) / n, (p.T @ p) / n], axis=-1)


def extended_stats_from_beliefs(beliefs: BeliefMatrix) -> np.ndarray:
    """The three statistics plus the combined in-degree term, shape (n, n, 4).

    Component 4 of entry (i, j) is (1/n) sum_{k != i} (p_ki + p_kj).
    """
    p = beliefs.probs
    n = p.shape[0]
    col = p.sum(axis=0)
    deg_sum = (col[:, None] + col[None, :] - p) / n
    return np.concatenate([network_stats(p), deg_sum[..., None]], axis=-1)


# ---------------------------------------------------------------------------
# the flip law's forward map and its inverse


@dataclass(frozen=True)
class FlipLawMaps:
    """Affine maps between latent and observed statistics at one (fp, fn, n).

    true_stats = offset + matrix @ observed_stats, and the forward direction
    observed_stats = shift + forward @ true_stats_ext, where the extended true
    vector carries the combined in-degree component.
    """

    offset: np.ndarray  # (3,)
    matrix: np.ndarray  # (3, 4)
    shift: np.ndarray  # (4,)
    forward: np.ndarray  # (4, 4)

    def true_from_observed(self, observed_stats) -> np.ndarray:
        return self.offset + self.matrix @ np.asarray(observed_stats, dtype=float)

    def observed_from_true(self, true_stats_ext) -> np.ndarray:
        return self.shift + self.forward @ np.asarray(true_stats_ext, dtype=float)


def flip_law_maps(fp_rate: float, fn_rate: float, n: float = math.inf) -> FlipLawMaps:
    """Closed-form forward map and correction for given rates and network size n.

    Both directions follow from the flip law.  For the pair (i, j), with
    inner sums over k != i and a zero diagonal, the observed statistics
    collect 1, n - 2, n - 2 and 2n - 3 flipped links, each recorded with
    probability fp + lam * p where lam = 1 - fp - fn.  Their expectations are

        s1 = fp + lam g1
        s2 = fp (1 - 2/n) + lam g2
        s3 = fp^2 (1 - 2/n) + lam^2 g3 + fp lam (g4 - g1/n)
        s4 = fp (2 - 3/n) + lam g4

    (g4 counts p_ji for k = j, where the product term is zero).  Inverting the
    block-triangular forward map gives the correction, with
    offset = (-fp/lam, -fp (1 - 2/n)/lam, fp^2 (1 - 2/n)/lam^2).  Every finite-n
    term is written in 1/n, so n = inf is the population map that
    ``misnet.misclassification.population_correction`` computes, with the same
    arithmetic.  Rates must satisfy fp, fn >= 0 and fp + fn < 1, and n >= 2.
    """
    inv_n = 1.0 / n
    inner = 1.0 - 2.0 * inv_n  # (n - 2)/n: the links k -> j with k outside {i, j}
    lam = 1.0 - fp_rate - fn_rate
    ratio = fp_rate / lam
    shift = np.array(
        [fp_rate, fp_rate * inner, fp_rate * fp_rate * inner, fp_rate * (2.0 - 3.0 * inv_n)]
    )
    forward = np.array(
        [
            [lam, 0.0, 0.0, 0.0],
            [0.0, lam, 0.0, 0.0],
            [-fp_rate * lam * inv_n, 0.0, lam * lam, fp_rate * lam],
            [0.0, 0.0, 0.0, lam],
        ]
    )
    inv_lam = 1.0 / lam
    degree_weight = fp_rate * inv_lam * inv_lam
    matrix = np.array(
        [
            [inv_lam, 0.0, 0.0, 0.0],
            [0.0, inv_lam, 0.0, 0.0],
            [degree_weight * inv_n, 0.0, inv_lam * inv_lam, -degree_weight],
        ]
    )
    offset = np.array([-ratio, -ratio * inner, ratio * ratio * inner])
    return FlipLawMaps(offset=offset, matrix=matrix, shift=shift, forward=forward)


# ---------------------------------------------------------------------------
# estimators, written directly off their definitions


def offdiag_mask(n: int) -> np.ndarray:
    """(n, n) boolean mask of the ordered pairs i != j."""
    mask = np.ones((n, n), dtype=bool)
    np.fill_diagonal(mask, False)
    return mask


def pair_stats(adj: np.ndarray) -> np.ndarray:
    """Per-pair observed 4-vector, shape (n, n, 4)."""
    g = adj.astype(float)
    n = g.shape[0]
    col = g.sum(axis=0)
    recip = g.T
    in_deg = np.broadcast_to(col[None, :] / n, (n, n))
    common = (g.T @ g) / n
    deg_sum = (col[:, None] + col[None, :]) / n
    return np.stack([recip, in_deg, common, deg_sum], axis=-1)


def brute_cell_estimates(adj: np.ndarray, labels: np.ndarray, n_cells: int):
    """(freq, stats, counts) with explicit pair loops."""
    n = adj.shape[0]
    n_pairs = n * (n - 1)
    counts = np.zeros(n_cells)
    sums = np.zeros((n_cells, 4))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            c = labels[i, j]
            v2 = sum(adj[k, j] for k in range(n)) / n
            v3 = sum(adj[k, i] * adj[k, j] for k in range(n)) / n
            v4 = sum(adj[k, i] + adj[k, j] for k in range(n)) / n
            counts[c] += 1
            sums[c] += (adj[j, i], v2, v3, v4)
    stats = sums / counts[:, None]
    return counts / n_pairs, stats, counts


def reference_agent_table(data: Dataset, counts: np.ndarray) -> np.ndarray:
    """The (n, J, 5) per-agent table in float64, every cell from its own mask."""
    n, J = data.n, data.n_cells
    g = data.network.adj.astype(float)
    out = np.empty((n, J, 5))
    for j in range(J):
        cell = (data.covariates.assignment == j).astype(float)
        np.fill_diagonal(cell, 0.0)
        m_count = counts[j]
        row_count, col_count = cell.sum(axis=1), cell.sum(axis=0)
        out[:, j, 0] = (g * cell).sum(axis=1)
        out[:, j, 1] = n * (g * cell.T).sum(axis=1) / m_count
        out[:, j, 2] = (g @ col_count) / m_count
        out[:, j, 3] = ((g @ cell) * g).sum(axis=1) / m_count
        out[:, j, 4] = (g @ (row_count + col_count)) / m_count
    return out


def reference_cell_estimates(data: Dataset) -> CellEstimates:
    """Cell estimates from :func:`reference_agent_table`, the counts by a
    ``bincount`` of the off-diagonal labels; raises ``EmptyCell`` for the first
    empty cell."""
    n, J = data.n, data.n_cells
    off_diagonal = data.covariates.assignment[~np.eye(n, dtype=bool)]
    counts = np.bincount(off_diagonal, minlength=J).astype(float)
    for j in range(J):
        if counts[j] == 0:
            raise EmptyCell(j)
    table = reference_agent_table(data, counts)
    link_sums = table[:, :, 0].sum(axis=0)
    stats = table[:, :, 1:].mean(axis=0)
    table[:, :, 0] /= n
    table = table.reshape(n, 5 * J)
    table -= table.mean(axis=0)
    cov = (table.T @ table / n).reshape(J, 5, J, 5)
    return CellEstimates(counts / data.n_pairs, stats, counts, link_sums, cov)


def cell_index_values(stats: np.ndarray, points: np.ndarray, theta) -> np.ndarray:
    """Corrected single index per cell."""
    cm = flip_law_maps(theta.fp_rate, theta.fn_rate)
    J = stats.shape[0]
    out = np.zeros(J)
    for j in range(J):
        corrected = cm.offset + cm.matrix @ stats[j]
        out[j] = corrected @ theta.externality + points[j] @ theta.homophily
    return out


def brute_moment(adj, labels, points, theta, stats, n_cells) -> np.ndarray:
    n = adj.shape[0]
    n_pairs = n * (n - 1)
    u = cell_index_values(stats, points, theta)
    lam = 1.0 - theta.fp_rate - theta.fn_rate
    out = np.zeros(n_cells)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            c = labels[i, j]
            out[c] += adj[i, j] - theta.fp_rate - lam * norm_cdf(u[c])
    return out / n_pairs


def brute_stat_influence(adj, labels, agent: int, cell: int) -> np.ndarray:
    """Per-agent influence on one cell's statistics."""
    n = adj.shape[0]
    first = np.zeros(4)
    m_count = 0
    for i1 in range(n):
        for j1 in range(n):
            if i1 == j1 or labels[i1, j1] != cell:
                continue
            m_count += 1
            first += (
                0.0,
                adj[agent, j1],
                adj[agent, i1] * adj[agent, j1],
                adj[agent, i1] + adj[agent, j1],
            )
    first /= m_count
    second = np.zeros(4)
    for i1 in range(n):
        if i1 != agent and labels[i1, agent] == cell:
            second[0] += adj[agent, i1]
    second *= n / m_count
    return first + second


def brute_psi_matrix(adj, labels, points, theta, stats, n_cells) -> np.ndarray:
    """Per-agent influence vectors for the moment, shape (n, J)."""
    n = adj.shape[0]
    cm = flip_law_maps(theta.fp_rate, theta.fn_rate)
    u = cell_index_values(stats, points, theta)
    lam = 1.0 - theta.fp_rate - theta.fn_rate
    slope = cm.matrix.T @ theta.externality
    psi = np.zeros((n, n_cells))
    for i in range(n):
        for j in range(n):
            if j != i:
                psi[i, labels[i, j]] += adj[i, j] / n
        correction = np.zeros(n_cells)
        influence = {c: brute_stat_influence(adj, labels, i, c) for c in range(n_cells)}
        for l in range(n):
            for j in range(n):
                if l == j:
                    continue
                c = labels[l, j]
                correction[c] += norm_pdf(u[c]) * (slope @ influence[c])
        psi[i] -= lam * correction / (n * n)
    return psi


def brute_variance(adj, labels, points, theta, stats, n_cells) -> np.ndarray:
    psi = brute_psi_matrix(adj, labels, points, theta, stats, n_cells)
    n = adj.shape[0]
    mean = psi.mean(axis=0)
    S = np.zeros((n_cells, n_cells))
    for i in range(n):
        S += np.outer(psi[i], psi[i])
    return S / n - np.outer(mean, mean)


# ---------------------------------------------------------------------------
# the link decision of one agent, written off the model's utility


def pair_covariates(covariates: PairCovariates, support: CovariateSupport) -> np.ndarray:
    """Covariate vector of every pair, shape (n, n, d): the per-pair form of
    x'hom that the solver, which forms x'hom once per support point, must equal."""
    return support.points[covariates.assignment]


def utility_index(true_stats, x, externality, homophily) -> float:
    """Marginal utility index of a link: stats'ext + x'hom."""
    return float(
        np.dot(np.asarray(true_stats, dtype=float), externality)
        + np.dot(np.asarray(x, dtype=float), homophily)
    )


def decide_link(index: float, shock: float) -> int:
    """Optimal link choice: 1 iff index + shock >= 0 (ties form the link)."""
    return int(index + shock >= 0)


def total_utility(
    choice: np.ndarray,
    agent: int,
    network: Network,
    covariates: PairCovariates,
    support: CovariateSupport,
    shocks: np.ndarray,
    theta: Theta,
) -> float:
    """Realized utility of ``agent`` from choosing link vector ``choice``.

    The network statistics exclude the agent's own row, so ``network``'s row
    ``agent`` never enters; ``choice`` must have a zero self-link.  Used to
    verify best responses by enumeration, not in the estimation path.
    """
    g = network.adj.astype(float)
    n = g.shape[0]
    choice = np.asarray(choice, dtype=float).reshape(-1)
    shocks = np.asarray(shocks, dtype=float).reshape(-1)
    if choice.shape != (n,) or shocks.shape != (n,):
        raise ValueError("choice and shocks must have length n")
    if choice[agent] != 0:
        raise ValueError("self-link must be zero")

    col = g.sum(axis=0)
    recip = g[:, agent]  # g[j, agent] for each target j
    in_deg = (col - g[agent, :]) / n  # sum over k != agent of g[k, j]
    common = (g[:, agent] @ g) / n  # k = agent term vanishes (zero diagonal)
    x = pair_covariates(covariates, support)[agent]  # (n, d)

    marginal = (
        recip * theta.externality[0]
        + in_deg * theta.externality[1]
        + common * theta.externality[2]
        + x @ theta.homophily
        + shocks
    )
    return float(np.dot(choice, marginal) / n)


# ---------------------------------------------------------------------------
# the equilibrium solver's loop through the public best response


def reference_solve(
    covariates: PairCovariates,
    support: CovariateSupport,
    externality,
    homophily,
    config: SolverConfig = SolverConfig(),
) -> BeliefMatrix:
    """Damped fixed-point iteration that calls ``best_response`` and builds a
    validated ``BeliefMatrix`` at every step: the package's solver must
    return the same point bit for bit where the contraction certificate
    L >= 1, and within (r + r') / (1 - L) of it, for the two residuals r and
    r', where L < 1."""
    p = norm_cdf(pair_covariates(covariates, support) @ np.asarray(homophily, float))
    np.fill_diagonal(p, 0.0)
    residual = np.inf
    for _ in range(config.max_iter):
        current = BeliefMatrix(p)
        q = best_response(current, covariates, support, externality, homophily).probs
        residual = float(np.max(np.abs(q - p)))
        if residual <= config.tol:
            return current
        p = (1.0 - config.damping) * p + config.damping * q
        np.fill_diagonal(p, 0.0)
    raise NonConvergence(residual, config.max_iter)


# ---------------------------------------------------------------------------
# the latent network by inverse-cdf sampling, pair by pair


def reference_draw(link_probs, seed) -> Network:
    """One uniform per ordered pair, taken from the seed's generator one at a
    time in row-major order; the pair links when its uniform falls below its
    link probability, so with probability Phi(index), as index + a standard
    normal shock >= 0 does.  ``draw_network`` must draw the same network bit
    for bit."""
    n = len(link_probs)
    rng = np.random.default_rng(seed)
    adj = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        for j in range(n):
            adj[i, j] = 1 if rng.random() < link_probs[i][j] else 0
    return Network(adj)


# ---------------------------------------------------------------------------
# edge-list network files, the second format ``netio.read_network`` accepts


def write_network_edges(network: Network, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"n={network.n}\n")
        writer = csv.writer(fh)
        writer.writerow(["i", "j"])
        for i, j in zip(*np.nonzero(network.adj)):
            writer.writerow([int(i), int(j)])


# ---------------------------------------------------------------------------
# isotonic regression (pool adjacent violators) for the rank condition


def isotonic_sse(indices: np.ndarray, means: np.ndarray) -> float:
    """Sum of squared deviations of the best monotone fit through the cells.

    Points are pooled by exact index ties first (a monotone function cannot
    separate them), then PAV enforces monotonicity across groups.
    """
    order = np.argsort(indices, kind="stable")
    x = indices[order]
    y = means[order]
    groups = []
    start = 0
    for k in range(1, len(x) + 1):
        if k == len(x) or x[k] != x[start]:
            groups.append((np.mean(y[start:k]), k - start, list(range(start, k))))
            start = k
    blocks = [[g] for g in groups]
    merged = True
    while merged:
        merged = False
        k = 0
        while k < len(blocks) - 1:
            left = blocks[k]
            right = blocks[k + 1]
            lv = sum(m * w for m, w, _ in left) / sum(w for _, w, _ in left)
            rv = sum(m * w for m, w, _ in right) / sum(w for _, w, _ in right)
            if lv > rv:
                blocks[k : k + 2] = [left + right]
                merged = True
            else:
                k += 1
    fitted = np.zeros_like(y)
    for block in blocks:
        value = sum(m * w for m, w, _ in block) / sum(w for _, w, _ in block)
        for _, _, members in block:
            for idx in members:
                fitted[idx] = value
    return float(np.sum((y - fitted) ** 2))


# ---------------------------------------------------------------------------
# the grid commands row by row: membership loop and row-wise CSV writers


def reference_membership(summary: CellSummary, theta: Theta) -> MembershipResult:
    """The two bound conditions and the rank condition as one loop per cell and cell pair."""
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
    for a in range(len(means)):
        for b in range(len(means)):
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


def reference_identified_set(data: Dataset, grid) -> list:
    """One ``CellSummary`` and one :func:`reference_membership` per grid point."""
    evaluator = MomentEvaluator(data)
    means = evaluator.cells.link_sums / evaluator.cells.counts
    indices = evaluator.indices(grid.points)
    return [(theta, reference_membership(CellSummary(means, u), theta)) for theta, u in zip(grid, indices)]


def reference_write_table(path, header, rows) -> None:
    """The row-wise table writer: each field formatted on its own (floats as
    ``.17g``, booleans as 0/1), one row at a time, into a directory it makes."""

    def field(value):
        if isinstance(value, (bool, np.bool_)):
            return int(value)
        if isinstance(value, (float, np.floating)):
            return f"{value:.17g}"
        return value

    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *([field(v) for v in row] for row in rows)])


def _reference_summary(path, payload: dict) -> None:
    """A command's ``summary.json``, indented; every value here is finite."""
    Path(path).write_text(json.dumps(payload, indent=2))


def reference_ci(data: Dataset, grid, alpha: float, out) -> None:
    """``ci``'s three files from one ``Theta`` and one
    ``MomentEvaluator.statistic`` per grid point, written row by row; the
    critical value is the package's chi-square quantile."""
    evaluator = MomentEvaluator(data)
    critical = chi2_quantile(data.n_cells, 1.0 - alpha)
    names = grid.coordinate_names()
    rows, accepted, degenerate = [], [], 0
    for theta in grid:
        coords = theta_coordinates(theta)
        try:
            stat = evaluator.statistic(theta)
        except DegenerateVariance:
            rows.append([*coords, math.nan, False, REASON_DEGENERATE])
            degenerate += 1
            continue
        rows.append([*coords, stat, stat <= critical, "" if stat <= critical else REASON_ABOVE_CRITICAL])
        if stat <= critical:
            accepted.append(coords)
    out = Path(out)
    reference_write_table(out / "ci_grid.csv", [*names, "statistic", "accepted", "reason"], rows)
    intervals = {}
    if accepted:
        coords = np.array(accepted)
        intervals = {name: [float(coords[:, k].min()), float(coords[:, k].max())] for k, name in enumerate(names)}
    reference_write_table(
        out / "projection.csv", ["coordinate", "lower", "upper"], ([k, *v] for k, v in intervals.items())
    )
    summary = {"alpha": alpha, "dof": data.n_cells, "critical_value": critical, "n_grid": len(rows),
               "n_accepted": len(accepted), "n_degenerate": degenerate, "projection": intervals}
    _reference_summary(out / "summary.json", summary)


def reference_sp_set(data: Dataset, grid, out) -> None:
    """``sp-set``'s two files from :func:`reference_identified_set`, written row by row."""
    rows = []
    for theta, res in reference_identified_set(data, grid):
        detail = "; ".join(f"{v.condition}{v.cells}: {v.detail}" for v in res.violations)
        rows.append([*theta_coordinates(theta), res.member, detail])
    out = Path(out)
    reference_write_table(out / "sp_grid.csv", [*grid.coordinate_names(), "member", "violations"], rows)
    _reference_summary(out / "summary.json", {"n_grid": len(rows), "n_member": sum(row[-2] for row in rows)})
