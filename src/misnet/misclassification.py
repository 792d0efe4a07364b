"""Link misclassification: the flip mechanism and its correction.

A recorded link differs from the latent one with probability fp_rate when the
latent link is absent and fn_rate when it is present, independently across
ordered pairs.  The correction maps the four observed expected statistics back
to the three latent ones through an affine map, the population (n = inf)
inverse of the flip law's forward map.
"""

import numpy as np

from .model import Network, validate_rates

__all__ = [
    "population_correction",
    "apply_misclassification",
]


def population_correction(fp_rate, fn_rate) -> tuple[np.ndarray, np.ndarray]:
    """Affine correction true_stats = offset + matrix @ observed_stats, elementwise
    over arrays of rates: offset (..., 3) and matrix (..., 3, 4).

    With lam = 1 - fp - fn, the observed statistics of a pair have expectations
    fp + lam g1, fp + lam g2, fp^2 + lam^2 g3 + fp lam g4 and 2 fp + lam g4 in
    the latent ones, up to terms of order 1/n.  Inverting that forward map gives
    offset (-fp/lam, -fp/lam, fp^2/lam^2) and a matrix that rescales by 1/lam,
    1/lam and 1/lam^2 and removes fp/lam^2 times the combined in-degree from the
    third statistic.  Rates outside {fp, fn >= 0, fp + fn < 1} raise
    ``InvalidRates`` with ``validate_rates``' message for the first of them.
    """
    fp, fn = np.broadcast_arrays(np.asarray(fp_rate, dtype=float), np.asarray(fn_rate, dtype=float))
    bad = ~((fp >= 0) & (fn >= 0) & (fp + fn < 1))  # NaN and infinities fail one of these
    if bad.any():
        first = np.flatnonzero(bad)[0]
        validate_rates(fp.flat[first], fn.flat[first])
    lam = 1.0 - fp - fn
    inv_lam = 1.0 / lam
    ratio = fp / lam
    offset = np.stack([-ratio, -ratio, ratio * ratio], axis=-1)
    matrix = np.zeros((*fp.shape, 3, 4))
    matrix[..., 0, 0] = inv_lam
    matrix[..., 1, 1] = inv_lam
    matrix[..., 2, 2] = inv_lam * inv_lam
    matrix[..., 2, 3] = -(fp * inv_lam * inv_lam)
    return offset, matrix


def apply_misclassification(
    true_network: Network, fp_rate: float, fn_rate: float, seed
) -> Network:
    """Flip each off-diagonal entry independently; deterministic given seed.

    One uniform u per entry: a latent link is recorded when u >= fn_rate, an
    absent one when u < fp_rate.  The record is built as booleans in the
    network's int8 memory, from the latent adjacency's bool view."""
    validate_rates(fp_rate, fn_rate)
    g = true_network.adj.view(bool)
    u = np.random.default_rng(seed).random(g.shape)
    observed = np.empty(g.shape, dtype=np.int8)
    recorded = np.greater_equal(u, fn_rate, out=observed.view(bool))
    recorded &= g
    false_links = u < fp_rate
    false_links &= ~g
    recorded |= false_links
    np.fill_diagonal(recorded, False)
    return Network(observed)
