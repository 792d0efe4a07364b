"""Symmetric equilibrium beliefs: fixed-point solver and network simulation.

Beliefs are the pairwise link probabilities conditional on the covariate
profile.  The best-response map sends a belief matrix p to
Phi(stats(p)'ext + x'hom) entrywise; an equilibrium is a fixed point.  Shocks
are taken independent across the pairs of one agent as well as across agents,
which gives the product form p_ki * p_kj for the common in-neighbor
expectation.  One step gives the index, Phi(index) with a zero diagonal and the
sup-norm residual; the solver, ``best_response`` and ``equilibrium_residual``
all take it.  The solver returns an :class:`Equilibrium`, whose accepting step's
Phi(index) :func:`draw_network` draws latent networks from.

Selection.  :func:`contraction_bound` gives, from the externality weights
alone, a bound L on the map's Lipschitz constant.  Where L < 1 the map is a
contraction and its equilibrium unique: the solver returns it to within
tol / (1 - L), after float32 warm-up steps and Anderson(1) steps in float64.
Where L >= 1, or L or x'hom is not finite, it runs plain damped iteration
from Phi(x'hom), whose point is this package's deterministic selection.
``SolverConfig.max_iter`` bounds each phase.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import NonConvergence
from .model import CovariateSupport, Network, PairCovariates
from .normal import norm_cdf, norm_pdf

__all__ = [
    "BeliefMatrix",
    "Equilibrium",
    "SolverConfig",
    "best_response",
    "contraction_bound",
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
    """Beliefs with the best response Phi(index) and sup-norm residual of the solver step that accepted them."""

    link_probs: np.ndarray  # (n, n) in [0, 1], zero diagonal
    residual: float


# the float32 residual at which a solve under the contraction certificate
# leaves its float32 warm-up steps for float64
FLOAT32_SWITCH = 1e-5
_PHI0 = float(norm_pdf(0.0))


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


def contraction_bound(externality) -> float:
    """L = phi(0) (|w_recip| + |w_indeg| + 2 |w_common|), a bound on the belief
    map's Lipschitz constant in the sup norm over beliefs in [0, 1].

    Moving every belief by at most h moves index (i, j) by at most h |w_recip|
    through p_ji, h |w_indeg| (n - 1) / n through the in-degree term and
    2 h |w_common| (n - 1) / n through the products p_ki p_kj, whose factors lie
    in [0, 1]; and Phi' <= phi(0).  Where L < 1 the map is a contraction: its
    fixed point is unique, and a point with residual r lies within r / (1 - L)
    of it.  NaN when a weight is NaN.
    """
    w = np.abs(np.asarray(externality, float))
    return _PHI0 * float(w[0] + w[1] + 2.0 * w[2])


def _index(p: np.ndarray, xhom: np.ndarray, ext: np.ndarray, out=None, term=None) -> np.ndarray:
    """Utility index stats(p)'ext + x'hom on plain arrays, shape (n, n).

    The statistics of entry (i, j) are
        (p_ji,  (1/n) sum_{k != i} p_kj,  (1/n) sum_{k != i} p_ki * p_kj),
    weighted and summed in that order.  The product form in the third uses
    independence of distinct link shocks within an agent; its k = i term
    vanishes through the zero diagonal.  The diagonal carries no model meaning.
    The index is built C-ordered in ``out`` with ``term`` as scratch, n x n
    buffers of p's dtype, or in two new ones: a transposed (F-ordered) index
    slows the solver's later passes, and more temporaries cost page faults.
    The arithmetic is in p's dtype when x'hom and ext share it.
    """
    n = p.shape[0]
    index = np.multiply(p.T, ext[0], out=out, order="C")
    term = np.subtract(p.sum(axis=0), p, out=term)
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


def _step(p: np.ndarray, xhom: np.ndarray, ext: np.ndarray, q=None, d=None):
    """The index of p, the best response q = Phi(index) with a zero diagonal, and max |q - p|.

    Given the solver's buffers q and d (p's shape and dtype), the index is
    built in q, Phi is applied to it in place and the difference is written in
    d, so the step allocates no n x n array and the index it returns is q.
    The residual takes one n x n difference and no absolute value of it: its
    largest entry or its smallest negated, which is max |q - p| bit for bit
    (NaN when an entry is NaN).  Adding 0.0 turns a zero that reads -0.0 into
    the 0.0 that |q - p| gives."""
    index = _index(p, xhom, ext, q, d)
    q = norm_cdf(index) if q is None else norm_cdf(index, out=index)
    np.fill_diagonal(q, 0.0)
    d = np.subtract(q, p, out=d)
    return index, q, float(max(d.max(), -d.min()) + 0.0)


def _iterate(p: np.ndarray, xhom: np.ndarray, ext: np.ndarray, tol: float, config, accelerate=False):
    """Steps from p, in p's dtype, until one's residual is at most ``tol``, for
    at most ``config.max_iter`` steps: that step's p, best response q and
    residual, and the number of steps taken.  When no step was accepted the
    residual is above ``tol`` or NaN, p is the point after the last move and q
    holds no meaning.

    Plain steps move p to (1 - damping) p + damping q, to q itself at damping 1.
    With ``accelerate`` the moves are Anderson(1) steps (Walker and Ni 2011):
    with f = q - p, df and dp the last changes of f and p, and gamma minimizing
    |f - gamma df| in the 2-norm, p moves to p + damping (f - gamma df) - gamma dp,
    clipped to [0, 1].  The history f and dp is held in float32; gamma is 0 at
    the first step and where the residual grew, which drops the history.
    """
    q, d = np.empty_like(p), np.empty_like(p)
    if accelerate:
        f_last, move = np.empty(p.shape, np.float32), np.empty(p.shape, np.float32)
    damping, last = config.damping, np.inf
    for steps in range(1, config.max_iter + 1):
        _, q, residual = _step(p, xhom, ext, q, d)
        if residual <= tol:
            return p, q, residual, steps
        if accelerate:  # the next p is written in q: q = p + f is not needed again
            gamma = 0.0
            if steps > 1 and residual <= last:
                df = np.subtract(d, f_last, out=q)
                norm = np.vdot(df, df)
                gamma = float(np.vdot(df, d) / norm) if norm > 0 else 0.0
                df *= -gamma
                q += d
            else:
                np.copyto(q, d)
            if damping != 1.0:
                q *= damping
            if gamma:
                move *= -gamma
                q += move
            q += p
            np.clip(q, 0.0, 1.0, out=q)
            np.subtract(q, p, out=move)
            np.copyto(f_last, d, casting="same_kind")
        elif damping != 1.0:
            # p and q have zero diagonals; the blend's bits are those of (1 - damping) p + damping q
            q *= damping
            q += np.multiply(p, 1.0 - damping, out=d)
        p, q, last = q, p, residual
    return p, q, residual, config.max_iter


def draw_network(link_probs: np.ndarray, seed) -> Network:
    """Links where a pair's float64 uniform on [0, 1) falls below its link
    probability: at Phi(index), the law of index + a standard normal shock >= 0
    (inverse-cdf sampling).  Deterministic given ``seed``; a zero diagonal draws no self-link."""
    u = np.random.default_rng(seed).random(link_probs.shape)
    return Network((u < link_probs).view(np.int8))


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
    """Fixed-point iteration from the externality-free start p0 = Phi(x'hom).

    Where :func:`contraction_bound` L < 1 the equilibrium is unique, and the
    returned point lies within tol / (1 - L) of it.  Plain steps run on float32
    copies until the float32 residual is at most ``FLOAT32_SWITCH``; then
    Anderson(1) steps run in float64 from the last float32 best response, or
    from p0 when the first float32 residual was already that small.  Where
    L >= 1, or L or x'hom is not finite, damped iteration p <- (1 - damping) p
    + damping BR(p) runs in float64 from p0, the package's deterministic
    selection among equilibria.  ``config.max_iter`` bounds each phase.

    A point is accepted only when its float64 residual ||BR(p) - p|| is at
    most ``config.tol``; only that point is validated.  The result carries the
    accepting step's best response q = Phi(index) with a zero diagonal, which
    :func:`draw_network` draws from, and its residual: both equal what
    :func:`simulate_true_network` and :func:`equilibrium_residual` compute
    from the point, bit for bit.  Raises :class:`NonConvergence` when the
    float64 phase exhausts ``max_iter``: retry with a larger one.  A smaller
    damping may help only where L >= 1; below it the map contracts at any
    damping, and a smaller one only slows it.
    """
    xhom, ext = _arrays(covariates, support, externality, homophily)
    per_point = support.homophily_index(homophily)
    p = norm_cdf(per_point)[covariates.assignment]  # Phi(x'hom), one cdf per support point
    np.fill_diagonal(p, 0.0)
    accelerate = contraction_bound(ext) < 1.0 and np.isfinite(per_point).all()
    if accelerate:
        f32 = np.float32
        p32, q32, residual, steps = _iterate(p.astype(f32), xhom.astype(f32), ext.astype(f32), FLOAT32_SWITCH, config)
        if steps > 1:
            p = (q32 if residual <= FLOAT32_SWITCH else p32).astype(float)
        del p32, q32  # not held beside the float64 phase's buffers
    p, q, residual, _ = _iterate(p, xhom, ext, config.tol, config, accelerate)
    if not residual <= config.tol:
        raise NonConvergence(residual, config.max_iter)
    return Equilibrium(p, q, residual)


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
    """One latent network drawn by :func:`draw_network` from the best response to the beliefs."""
    return draw_network(_step(beliefs.probs, *_arrays(covariates, support, externality, homophily))[1], seed)
