"""Shared builders for test designs."""

import tracemalloc

import numpy as np
import pytest

from misnet import CovariateSupport, Dataset, Network, PairCovariates, Theta, ThetaGrid
from misnet.model import theta_coordinates


def scalar_support(*values) -> CovariateSupport:
    return CovariateSupport(np.array(values, dtype=float).reshape(-1, 1))


def random_assignment(rng, n, n_cells) -> PairCovariates:
    """Assignment with every cell guaranteed non-empty off the diagonal."""
    while True:
        arr = rng.integers(0, n_cells, size=(n, n))
        off = ~np.eye(n, dtype=bool)
        if len(np.unique(arr[off])) == n_cells:
            return PairCovariates(arr.astype(np.int64))


def circulant_covariates(n: int) -> PairCovariates:
    """Two-cell design indexed by the offset parity, so every agent is
    exchangeable: each row and column hits both cells in the same counts."""
    offsets = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    labels = (offsets % 2).astype(np.int64)
    np.fill_diagonal(labels, 0)
    return PairCovariates(labels)


def random_network(rng, n, density=0.5) -> Network:
    adj = (rng.random((n, n)) < density).astype(np.int8)
    np.fill_diagonal(adj, 0)
    return Network(adj)


def random_dataset(rng, n, n_cells=2, density=0.5) -> Dataset:
    support = scalar_support(*np.linspace(-0.5, 0.5, n_cells))
    return Dataset(
        network=random_network(rng, n, density),
        covariates=random_assignment(rng, n, n_cells),
        support=support,
    )


def tournament_dataset(n=10) -> Dataset:
    """Every cell mean is exactly one half: one direction of each unordered
    pair is linked (a tournament), and the label is symmetric in (i, j), so
    both directions of a pair fall in the same cell."""
    adj = np.zeros((n, n), dtype=int)
    adj[np.triu_indices(n, 1)] = 1
    idx = np.arange(n)
    labels = (idx[:, None] + idx[None, :]) % 2
    return Dataset(Network(adj), PairCovariates(labels), scalar_support(-0.5, 0.5))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def default_theta(d=1) -> Theta:
    return Theta(
        externality=np.array([0.5, 0.25, 0.25]),
        homophily=np.full(d, 0.8),
        fp_rate=0.05,
        fn_rate=0.10,
    )


def report_statistics(report) -> np.ndarray:
    """The statistics of a coverage report's replications that did not fail."""
    return np.array([r.statistic for r in report.records if not r.error])


def singleton_grid(theta: Theta) -> ThetaGrid:
    """Degenerate grid holding exactly one parameter point."""
    return ThetaGrid(tuple([v] for v in theta_coordinates(theta)))


def peak_bytes(fn) -> int:
    """The most bytes ``fn()`` held at once above what was held when it
    started, as ``tracemalloc`` counts them (numpy's array buffers included)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
