"""Symmetric equilibrium beliefs: fixed-point solver and network simulation.

Beliefs are the pairwise link probabilities conditional on the covariate
profile.  The best-response map sends a belief matrix p to
Phi(stats(p)'ext + x'hom) entrywise; an equilibrium is a fixed point.  Shocks
are taken independent across the pairs of one agent as well as across agents,
which gives the product form p_ki * p_kj for the common in-neighbor
expectation.  One step gives the index, Phi(index) with a zero diagonal and the
sup-norm residual; the solver, ``best_response`` and ``equilibrium_residual``
all take it.  The solver returns an :class:`Equilibrium`, whose accepting step's
index :func:`draw_network` draws latent networks from.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import NonConvergence
from .model import CovariateSupport, Network, PairCovariates
from .normal import norm_cdf

__all__ = [
    "BeliefMatrix",
    "Equilibrium",
    "SolverConfig",
    "best_response",
    "solve_equilibrium",
    "draw_network",
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


@dataclass(frozen=True)
class Equilibrium(BeliefMatrix):
    """Beliefs with the utility index and sup-norm residual of the solver step that accepted them."""

    index: np.ndarray  # (n, n)
    residual: float


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


def _index(p: np.ndarray, xhom: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """Utility index stats(p)'ext + x'hom on plain arrays, shape (n, n).

    The statistics of entry (i, j) are
        (p_ji,  (1/n) sum_{k != i} p_kj,  (1/n) sum_{k != i} p_ki * p_kj),
    weighted and summed in that order.  The product form in the third uses
    independence of distinct link shocks within an agent; its k = i term
    vanishes through the zero diagonal.  The diagonal carries no model meaning.
    The index is built C-ordered in two n x n buffers: a transposed (F-ordered)
    index slows the solver's later passes, and more temporaries cost page faults.
    """
    n = p.shape[0]
    index = np.multiply(p.T, ext[0], order="C")
    term = p.sum(axis=0) - p
    term /= n
    term *= ext[1]
    index += term
    np.matmul(p.T, p, out=term)
    term /= n
    term *= ext[2]
    index += term
    index += xhom
    return index


def _arrays(covariates, support, externality, homophily):
    """x'hom (n, n), :meth:`CovariateSupport.homophily_index` gathered by the cell
    labels in any integer dtype, and the externality weights as a float array."""
    covariates.check_cells(support)
    return support.homophily_index(homophily)[covariates.assignment], np.asarray(externality, float)


def _step(p: np.ndarray, xhom: np.ndarray, ext: np.ndarray):
    """The index of p, the best response q = Phi(index) with a zero diagonal, and max |q - p|.

    The residual takes one n x n difference and no absolute value of it: its
    largest entry or its smallest negated, which is max |q - p| bit for bit
    (NaN when an entry is NaN).  Adding 0.0 turns a zero that reads -0.0 into
    the 0.0 that |q - p| gives."""
    index = _index(p, xhom, ext)
    q = norm_cdf(index)
    np.fill_diagonal(q, 0.0)
    d = q - p
    return index, q, float(max(d.max(), -d.min()) + 0.0)


def draw_network(index: np.ndarray, seed) -> Network:
    """Links where index + an independent standard normal shock >= 0; deterministic given ``seed``."""
    adj = (index + np.random.default_rng(seed).standard_normal(index.shape) >= 0).astype(np.int8)
    np.fill_diagonal(adj, 0)
    return Network(adj)


def best_response(
    beliefs: BeliefMatrix,
    covariates: PairCovariates,
    support: CovariateSupport,
    externality,
    homophily,
) -> BeliefMatrix:
    """One application of the belief map: Phi(index) off-diagonal, 0 on it."""
    return BeliefMatrix(_step(beliefs.probs, *_arrays(covariates, support, externality, homophily))[1])


def solve_equilibrium(
    covariates: PairCovariates,
    support: CovariateSupport,
    externality,
    homophily,
    config: SolverConfig = SolverConfig(),
) -> Equilibrium:
    """Damped fixed-point iteration from the externality-free start.

    Starts at p0 = Phi(x'hom) and iterates p <- (1 - damping) p + damping BR(p)
    until the sup-norm residual ||BR(p) - p|| falls below ``config.tol``; only
    the returned point is validated.  The result also carries the accepting
    step's index, which :func:`draw_network` draws from, and its residual.
    Raises :class:`NonConvergence` when ``max_iter`` is exhausted; callers may
    retry with smaller damping.  The point is this package's deterministic selection.
    """
    xhom, ext = _arrays(covariates, support, externality, homophily)
    p = norm_cdf(xhom)
    np.fill_diagonal(p, 0.0)
    residual = np.inf
    for _ in range(config.max_iter):
        index, q, residual = _step(p, xhom, ext)
        if residual <= config.tol:
            return Equilibrium(p, index, residual)
        # p and q have zero diagonals, and at damping 1 the blend equals q exactly
        p = q if config.damping == 1.0 else (1.0 - config.damping) * p + config.damping * q
        del index, q  # the next step's index is not allocated beside this one
    raise NonConvergence(residual, config.max_iter)


def equilibrium_residual(
    beliefs: BeliefMatrix,
    covariates: PairCovariates,
    support: CovariateSupport,
    externality,
    homophily,
) -> float:
    """Sup-norm best-response residual of a candidate belief matrix."""
    return _step(beliefs.probs, *_arrays(covariates, support, externality, homophily))[2]


def simulate_true_network(
    beliefs: BeliefMatrix,
    covariates: PairCovariates,
    support: CovariateSupport,
    externality,
    homophily,
    seed,
) -> Network:
    """One latent network drawn from the index of the beliefs by :func:`draw_network`."""
    return draw_network(_index(beliefs.probs, *_arrays(covariates, support, externality, homophily)), seed)
