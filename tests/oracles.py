"""Independent brute-force implementations used as test oracles.

Everything here is written as plain loops straight off the estimator
definitions, deliberately sharing no code path with the package internals
(except the normal cdf, whose accuracy is checked separately against mpmath).
It also holds the model's link utility, against which the link rule is
checked by enumeration, a solver loop written through the public best
response, against which the package's plain-array loop is checked, and a
writer for edge-list network files, which only the reader's tests need.
"""

import csv
import math

import numpy as np

from misnet.equilibrium import BeliefMatrix, SolverConfig, best_response
from misnet.exceptions import NonConvergence
from misnet.misclassification import correction_maps
from misnet.model import CovariateSupport, Network, PairCovariates, Theta
from misnet.normal import norm_cdf, norm_pdf


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


def cell_index_values(stats: np.ndarray, points: np.ndarray, theta) -> np.ndarray:
    """Corrected single index per cell."""
    cm = correction_maps(theta.fp_rate, theta.fn_rate)
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
    cm = correction_maps(theta.fp_rate, theta.fn_rate)
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
    x = covariates.values(support)[agent]  # (n, d)

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
    validated ``BeliefMatrix`` at every step; the package's solver must
    return the same point bit for bit."""
    xvals = covariates.values(support)
    p = norm_cdf(xvals @ np.asarray(homophily, float))
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
