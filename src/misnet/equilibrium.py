"""Symmetric equilibrium beliefs: fixed-point solver and network simulation.

Beliefs are the pairwise link probabilities conditional on the covariate
profile.  The best-response map sends a belief matrix p to
Phi(stats(p)'ext + x'hom) entrywise; an equilibrium is a fixed point.  Shocks
are taken independent across the pairs of one agent as well as across agents,
which gives the product form p_ki * p_kj for the common in-neighbor
expectation.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import NonConvergence
from .model import CovariateSupport, Network, PairCovariates
from .normal import norm_cdf

__all__ = [
    "BeliefMatrix",
    "SolverConfig",
    "network_stats_from_beliefs",
    "extended_stats_from_beliefs",
    "best_response",
    "solve_equilibrium",
    "simulate_true_network",
]


@dataclass(frozen=True)
class BeliefMatrix:
    """Pairwise link probabilities with a zero diagonal."""

    probs: np.ndarray  # (n, n) in [0, 1]

    def __post_init__(self):
        arr = np.array(np.asarray(self.probs, dtype=float))
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("beliefs must be a square (n, n) array")
        if np.any(arr < 0) or np.any(arr > 1) or not np.all(np.isfinite(arr)):
            raise ValueError("belief entries must lie in [0, 1]")
        if np.any(np.diagonal(arr) != 0):
            raise ValueError("diagonal beliefs must be zero")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def n(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point iteration controls."""

    tol: float = 1e-10
    max_iter: int = 10000
    damping: float = 1.0

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not (0 < self.damping <= 1):
            raise ValueError("damping must lie in (0, 1]")


def network_stats_from_beliefs(beliefs: BeliefMatrix) -> np.ndarray:
    """Expected network statistics per ordered pair, shape (n, n, 3).

    Entry (i, j) holds
        (p_ji,  (1/n) sum_{k != i} p_kj,  (1/n) sum_{k != i} p_ki * p_kj).
    The product form in the third component uses independence of distinct
    link shocks within an agent.  Diagonal entries are computed but carry no
    model meaning.
    """
    return _stats(beliefs.probs)


def _stats(p: np.ndarray) -> np.ndarray:
    n = p.shape[0]
    col = p.sum(axis=0)  # sum_k p_kj, with p_jj = 0
    recip = p.T
    in_deg = (col[None, :] - p) / n
    common = (p.T @ p) / n  # k = i term vanishes through the zero diagonal
    return np.stack([recip, in_deg, common], axis=-1)


def extended_stats_from_beliefs(beliefs: BeliefMatrix) -> np.ndarray:
    """The three statistics plus the combined in-degree term, shape (n, n, 4).

    Component 4 of entry (i, j) is (1/n) sum_{k != i} (p_ki + p_kj).
    """
    p = beliefs.probs
    n = p.shape[0]
    col = p.sum(axis=0)
    base = network_stats_from_beliefs(beliefs)
    deg_sum = (col[:, None] + col[None, :] - p) / n
    return np.concatenate([base, deg_sum[..., None]], axis=-1)


def _index(p: np.ndarray, xhom: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """Utility index stats(p)'ext + x'hom on plain arrays."""
    return _stats(p) @ ext + xhom


def _index_matrix(beliefs, covariates, support, externality, homophily) -> np.ndarray:
    xhom = covariates.values(support) @ np.asarray(homophily, float)
    return _index(beliefs.probs, xhom, np.asarray(externality, float))


def best_response(
    beliefs: BeliefMatrix,
    covariates: PairCovariates,
    support: CovariateSupport,
    externality,
    homophily,
) -> BeliefMatrix:
    """One application of the belief map: Phi(index) off-diagonal, 0 on it."""
    idx = _index_matrix(beliefs, covariates, support, externality, homophily)
    out = norm_cdf(idx)
    np.fill_diagonal(out, 0.0)
    return BeliefMatrix(out)


def solve_equilibrium(
    covariates: PairCovariates,
    support: CovariateSupport,
    externality,
    homophily,
    config: SolverConfig = SolverConfig(),
) -> BeliefMatrix:
    """Damped fixed-point iteration from the externality-free start.

    Starts at p0 = Phi(x'hom) and iterates p <- (1 - damping) p + damping BR(p)
    until the sup-norm residual ||BR(p) - p|| falls below ``config.tol``.
    x'hom is computed once, and only the returned point is validated;
    ``_iterate`` holds the loop and also returns that point's residual.
    Raises :class:`NonConvergence` when ``max_iter`` is exhausted; callers may
    retry with smaller damping.  The returned point is the deterministic
    selection used everywhere in this package.
    """
    return _iterate(covariates, support, externality, homophily, config)[0]


def _iterate(covariates, support, externality, homophily, config) -> tuple[BeliefMatrix, float]:
    """The loop of :func:`solve_equilibrium`; the residual it also returns is
    bit-identical to ``equilibrium_residual`` of the returned beliefs."""
    ext = np.asarray(externality, float)
    xhom = covariates.values(support) @ np.asarray(homophily, float)
    p = norm_cdf(xhom)
    np.fill_diagonal(p, 0.0)
    residual = np.inf
    for _ in range(config.max_iter):
        q = norm_cdf(_index(p, xhom, ext))
        np.fill_diagonal(q, 0.0)
        residual = float(np.max(np.abs(q - p)))
        if residual <= config.tol:
            return BeliefMatrix(p), residual
        p = (1.0 - config.damping) * p + config.damping * q
        np.fill_diagonal(p, 0.0)
    raise NonConvergence(residual, config.max_iter)


def equilibrium_residual(
    beliefs: BeliefMatrix,
    covariates: PairCovariates,
    support: CovariateSupport,
    externality,
    homophily,
) -> float:
    """Sup-norm best-response residual of a candidate belief matrix."""
    q = best_response(beliefs, covariates, support, externality, homophily)
    return float(np.max(np.abs(q.probs - beliefs.probs)))


def simulate_true_network(
    beliefs: BeliefMatrix,
    covariates: PairCovariates,
    support: CovariateSupport,
    externality,
    homophily,
    seed,
) -> Network:
    """Draw one latent network from equilibrium beliefs.

    Each ordered pair receives an independent standard normal shock and the
    link forms when index + shock >= 0.  Deterministic given ``seed``.
    """
    idx = _index_matrix(beliefs, covariates, support, externality, homophily)
    rng = np.random.default_rng(seed)
    shocks = rng.standard_normal(idx.shape)
    adj = (idx + shocks >= 0).astype(np.int8)
    np.fill_diagonal(adj, 0)
    return Network(adj)
