"""Link misclassification: the flip mechanism and its correction algebra.

A recorded link differs from the latent one with probability fp_rate when the
latent link is absent and fn_rate when it is present, independently across
ordered pairs.  The correction algebra maps the four observed expected
statistics back to the three latent ones through an affine map whose 4x4
forward matrix has the closed-form inverse implemented here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import Network, validate_rates

__all__ = [
    "CorrectionMaps",
    "correction_maps",
    "apply_misclassification",
]


@dataclass(frozen=True)
class CorrectionMaps:
    """Affine correction for one (fp_rate, fn_rate) point at network size n.

    true_stats = offset + matrix @ observed_stats, and the forward direction
    observed_stats = shift + forward @ true_stats_ext, where the extended true
    vector carries the combined in-degree component.  n = inf gives the
    population map.
    """

    offset: np.ndarray  # (3,)
    matrix: np.ndarray  # (3, 4)
    shift: np.ndarray  # (4,)
    forward: np.ndarray  # (4, 4)
    fp_rate: float
    fn_rate: float

    def true_from_observed(self, observed_stats) -> np.ndarray:
        return self.offset + self.matrix @ np.asarray(observed_stats, dtype=float)

    def observed_from_true(self, true_stats_ext) -> np.ndarray:
        return self.shift + self.forward @ np.asarray(true_stats_ext, dtype=float)


def correction_maps(fp_rate: float, fn_rate: float, n: float = math.inf) -> CorrectionMaps:
    """Closed-form correction algebra for given rates and network size n.

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
    term is written in 1/n, so the default n = inf is the population map.
    Rates with fp + fn >= 1 are rejected, as the forward matrix would be
    singular, and so is n < 2.
    """
    validate_rates(fp_rate, fn_rate)
    if not n >= 2:
        raise ValueError(f"network size must be at least 2, got {n}")
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
    return CorrectionMaps(
        offset=offset,
        matrix=matrix,
        shift=shift,
        forward=forward,
        fp_rate=float(fp_rate),
        fn_rate=float(fn_rate),
    )


def apply_misclassification(
    true_network: Network, fp_rate: float, fn_rate: float, seed
) -> Network:
    """Flip each off-diagonal entry independently; deterministic given seed."""
    validate_rates(fp_rate, fn_rate)
    g = true_network.adj
    rng = np.random.default_rng(seed)
    u = rng.random(g.shape)
    observed = np.where(g == 1, u >= fn_rate, u < fp_rate).astype(np.int8)
    np.fill_diagonal(observed, 0)
    return Network(observed)

