"""Belief statistics, the best-response map, the solver, and simulation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from misnet import (
    CovariateSupport,
    NonConvergence,
    PairCovariates,
    SolverConfig,
    simulate_true_network,
    solve_equilibrium,
)
from misnet.equilibrium import (
    BeliefMatrix,
    _draw,
    _index,
    _iterate,
    _step,
    best_response,
    equilibrium_residual,
)
from misnet.normal import norm_cdf

from conftest import default_theta, random_assignment, scalar_support
from oracles import (
    brute_extended_stats,
    brute_network_stats,
    extended_stats_from_beliefs,
    network_stats,
    reference_solve,
)


def uniform_beliefs(n, q):
    probs = np.full((n, n), q)
    np.fill_diagonal(probs, 0.0)
    return BeliefMatrix(probs)


def index_stats(p):
    """The three statistics read off the solver's index one unit weight at a time, (n, n, 3)."""
    zero = np.zeros_like(p)
    return np.stack([_index(p, zero, weights) for weights in np.eye(3)], axis=-1)


class TestNetworkStats:
    """``_index``, the kernel the solver and the simulation run."""

    def test_zero_beliefs(self):
        stats = index_stats(uniform_beliefs(5, 0.0).probs)
        assert np.all(stats == 0.0)

    def test_uniform_three_agents(self):
        q = 0.4
        stats = index_stats(uniform_beliefs(3, q).probs)
        i, j = 0, 1
        # exactly one k outside {i, j} contributes to the sums
        assert stats[i, j] == pytest.approx([q, q / 3, q * q / 3], abs=1e-15)

    @pytest.mark.parametrize("n", [4, 7, 12])
    def test_uniform_general_n(self, n):
        q = 0.3
        stats = index_stats(uniform_beliefs(n, q).probs)
        off = ~np.eye(n, dtype=bool)
        expected = np.array([q, (n - 2) * q / n, (n - 2) * q * q / n])
        assert np.allclose(stats[off], expected, atol=1e-14)

    def test_matches_direct_summation(self, rng):
        n = 6
        probs = rng.random((n, n))
        np.fill_diagonal(probs, 0.0)
        beliefs = BeliefMatrix(probs)
        assert np.allclose(index_stats(probs), brute_network_stats(probs), atol=1e-13)
        assert np.allclose(network_stats(probs), brute_network_stats(probs), atol=1e-13)
        assert np.allclose(
            extended_stats_from_beliefs(beliefs), brute_extended_stats(probs), atol=1e-13
        )

    @pytest.mark.parametrize("n", [2, 9, 64])
    def test_index_is_the_weighted_stack(self, rng, n):
        """The index equals the statistic stack weighted by the externality plus
        x'hom: bit for bit at weights whose products are exact (the (.5, .25,
        .25) of the default theta), and to rounding at any weights.  It is
        C-ordered."""
        probs = rng.random((n, n))
        np.fill_diagonal(probs, 0.0)
        xhom = rng.standard_normal((n, n))
        for ext, exact in [(default_theta().externality, True), (rng.standard_normal(3), False)]:
            index = _index(probs, xhom, ext)
            stack = network_stats(probs) @ ext + xhom
            assert index.flags.c_contiguous
            assert np.allclose(index, stack, rtol=1e-14, atol=1e-15)
            assert np.array_equal(index, stack) or not exact


class TestBestResponse:
    def setup_method(self):
        self.support = scalar_support(-0.5, 0.5)

    def test_zero_parameters_give_half(self, rng):
        n = 6
        cov = random_assignment(rng, n, 2)
        out = best_response(uniform_beliefs(n, 0.3), cov, self.support, [0, 0, 0], [0.0])
        off = ~np.eye(n, dtype=bool)
        assert np.allclose(out.probs[off], 0.5, atol=1e-15)

    def test_externality_free_case_ignores_beliefs(self, rng):
        n = 5
        cov = random_assignment(rng, n, 2)
        hom = [0.8]
        out1 = best_response(uniform_beliefs(n, 0.1), cov, self.support, [0, 0, 0], hom)
        out2 = best_response(uniform_beliefs(n, 0.9), cov, self.support, [0, 0, 0], hom)
        expected = norm_cdf(cov.values(self.support) @ np.array(hom))
        np.fill_diagonal(expected, 0.0)
        assert np.allclose(out1.probs, expected, atol=1e-15)
        assert np.allclose(out2.probs, out1.probs, atol=1e-15)

    def test_range_is_open_unit_interval(self, rng):
        n = 5
        cov = random_assignment(rng, n, 2)
        theta = default_theta()
        out = best_response(
            uniform_beliefs(n, 0.5), cov, self.support, theta.externality, theta.homophily
        )
        off = ~np.eye(n, dtype=bool)
        assert np.all(out.probs[off] > 0) and np.all(out.probs[off] < 1)


class TestSolver:
    def setup_method(self):
        self.support = scalar_support(-0.5, 0.5)

    def test_externality_free_converges_immediately(self, rng):
        n = 8
        cov = random_assignment(rng, n, 2)
        cfg = SolverConfig(max_iter=1)
        beliefs = solve_equilibrium(cov, self.support, [0, 0, 0], [0.8], cfg)
        expected = norm_cdf(cov.values(self.support) @ np.array([0.8]))
        np.fill_diagonal(expected, 0.0)
        assert np.allclose(beliefs.probs, expected, atol=1e-15)

    def test_zero_parameters_give_half_everywhere(self, rng):
        n = 6
        cov = random_assignment(rng, n, 2)
        beliefs = solve_equilibrium(cov, self.support, [0, 0, 0], [0.0])
        off = ~np.eye(n, dtype=bool)
        assert np.allclose(beliefs.probs[off], 0.5, atol=1e-15)

    def test_moderate_externalities_reach_tolerance(self, rng):
        n = 30
        cov = random_assignment(rng, n, 2)
        theta = default_theta()
        cfg = SolverConfig(tol=1e-10)
        beliefs = solve_equilibrium(cov, self.support, theta.externality, theta.homophily, cfg)
        residual = equilibrium_residual(
            beliefs, cov, self.support, theta.externality, theta.homophily
        )
        assert residual <= 1e-10

    def test_uniform_covariates_give_symmetric_beliefs(self, rng):
        n = 12
        cov = PairCovariates(np.zeros((n, n), dtype=int))
        support = scalar_support(0.3)
        cfg = SolverConfig(tol=1e-10)
        beliefs = solve_equilibrium(cov, support, [0.5, 0.25, 0.25], [0.5], cfg)
        off = ~np.eye(n, dtype=bool)
        values = beliefs.probs[off]
        assert values.max() - values.min() <= 10 * cfg.tol

    def test_label_permutation_equivariance_without_externalities(self, rng):
        n = 7
        cov = random_assignment(rng, n, 2)
        perm = rng.permutation(n)
        cov_perm = PairCovariates(cov.assignment[np.ix_(perm, perm)])
        sol = solve_equilibrium(cov, self.support, [0, 0, 0], [0.8])
        sol_perm = solve_equilibrium(cov_perm, self.support, [0, 0, 0], [0.8])
        assert np.allclose(sol_perm.probs, sol.probs[np.ix_(perm, perm)], atol=1e-14)

    def test_nonconvergence_raised_for_oscillating_map(self, rng):
        # strong negative reciprocity with full damping alternates forever
        n = 6
        cov = random_assignment(rng, n, 2)
        cfg = SolverConfig(tol=1e-10, max_iter=50, damping=1.0)
        with pytest.raises(NonConvergence):
            solve_equilibrium(cov, self.support, [-50.0, 0.0, 0.0], [0.0], cfg)


class TestLoopMatchesReference:
    """The plain-array loop returns the same point as the loop that calls the
    public best response and validates a BeliefMatrix at every step, and the
    index and residual of the step that accepted it."""

    SUPPORTS = {
        "scalar": (scalar_support(-0.5, 0.5), [0.8]),
        "2-d": (CovariateSupport(np.array([[-0.5, 0.0], [-0.5, 1.0], [0.5, 0.0]])), [0.8, -0.4]),
    }

    @pytest.mark.parametrize("damping", [1.0, 0.5])
    @pytest.mark.parametrize("n", [7, 30])
    @pytest.mark.parametrize("design", ["scalar", "2-d"])
    def test_same_beliefs_and_residual(self, rng, damping, n, design):
        support, hom = self.SUPPORTS[design]
        cov = random_assignment(rng, n, support.n_points)
        ext = default_theta().externality
        cfg = SolverConfig(damping=damping)
        beliefs, index, residual = _iterate(cov, support, ext, hom, cfg)
        expected = reference_solve(cov, support, ext, hom, cfg)
        assert np.array_equal(beliefs.probs, expected.probs)
        assert np.array_equal(solve_equilibrium(cov, support, ext, hom, cfg).probs, expected.probs)
        assert residual == equilibrium_residual(beliefs, cov, support, ext, hom)
        assert residual <= cfg.tol
        xhom, ext_arr = cov.values(support) @ np.asarray(hom, float), np.asarray(ext, float)
        assert np.array_equal(index, _index(beliefs.probs, xhom, ext_arr))
        q = _step(beliefs.probs, xhom, ext_arr)[1]
        assert np.array_equal(best_response(beliefs, cov, support, ext, hom).probs, q)

    def test_same_nonconvergence(self, rng):
        # the oscillating map of TestSolver.test_nonconvergence_raised_for_oscillating_map
        n = 6
        support = scalar_support(-0.5, 0.5)
        cov = random_assignment(rng, n, 2)
        cfg = SolverConfig(tol=1e-10, max_iter=50, damping=1.0)
        args = (cov, support, [-50.0, 0.0, 0.0], [0.0], cfg)
        with pytest.raises(NonConvergence) as lean:
            _iterate(*args)
        with pytest.raises(NonConvergence) as reference:
            reference_solve(*args)
        assert lean.value.residual == reference.value.residual
        assert lean.value.iterations == reference.value.iterations == cfg.max_iter


class TestSimulation:
    def setup_method(self):
        self.support = scalar_support(-0.5, 0.5)

    def test_deterministic_given_seed(self, rng):
        n = 10
        cov = random_assignment(rng, n, 2)
        beliefs = solve_equilibrium(cov, self.support, [0, 0, 0], [0.3])
        a = simulate_true_network(beliefs, cov, self.support, [0, 0, 0], [0.3], seed=7)
        b = simulate_true_network(beliefs, cov, self.support, [0, 0, 0], [0.3], seed=7)
        assert np.array_equal(a.adj, b.adj)

    def test_extreme_negative_index_gives_empty_network(self, rng):
        n = 20
        cov = PairCovariates(np.zeros((n, n), dtype=int))
        support = scalar_support(-8.0)
        beliefs = solve_equilibrium(cov, support, [0, 0, 0], [1.0])
        net = simulate_true_network(beliefs, cov, support, [0, 0, 0], [1.0], seed=3)
        assert net.adj.sum() == 0

    def test_zero_parameters_density_binomial(self, rng):
        n = 40
        cov = PairCovariates(np.zeros((n, n), dtype=int))
        support = scalar_support(0.0)
        beliefs = solve_equilibrium(cov, support, [0, 0, 0], [0.0])
        net = simulate_true_network(beliefs, cov, support, [0, 0, 0], [0.0], seed=11)
        n_pairs = n * (n - 1)
        freq = net.adj.sum() / n_pairs
        assert abs(freq - 0.5) <= 4 * np.sqrt(0.25 / n_pairs)

    def test_frequencies_match_beliefs_over_replications(self, rng):
        n = 10
        cov = random_assignment(rng, n, 2)
        theta = default_theta()
        beliefs = solve_equilibrium(cov, self.support, theta.externality, theta.homophily)
        reps = 400
        total = np.zeros((n, n))
        for r in range(reps):
            net = simulate_true_network(
                beliefs, cov, self.support, theta.externality, theta.homophily, seed=1000 + r
            )
            total += net.adj
        freq = total / reps
        off = ~np.eye(n, dtype=bool)
        se = np.sqrt(beliefs.probs * (1 - beliefs.probs) / reps)
        assert np.all(np.abs(freq - beliefs.probs)[off] <= 4 * se[off] + 1e-12)

    def test_fixed_point_property(self, rng):
        n = 15
        cov = random_assignment(rng, n, 3)
        support = scalar_support(-0.5, 0.0, 0.5)
        theta = default_theta()
        cfg = SolverConfig(tol=1e-12)
        beliefs = solve_equilibrium(cov, support, theta.externality, theta.homophily, cfg)
        q = best_response(beliefs, cov, support, theta.externality, theta.homophily)
        assert np.max(np.abs(q.probs - beliefs.probs)) <= cfg.tol


class TestSolveThenDraw:
    """Small designs with bounded random parameters: the solver either returns a
    valid point whose index draws a valid network, or raises NonConvergence."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 5),
        ext=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3),
        hom=st.floats(-3.0, 3.0),
        damping=st.floats(0.05, 1.0),
        data=st.data(),
    )
    def test_valid_point_and_network_or_nonconvergence(self, n, ext, hom, damping, data):
        support = scalar_support(-0.5, 0.5)
        cells = data.draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))
        cov = PairCovariates(np.array(cells).reshape(n, n))
        cfg = SolverConfig(max_iter=500, damping=damping)
        try:
            beliefs, index, residual = _iterate(cov, support, ext, [hom], cfg)
        except NonConvergence:
            return
        assert np.all(np.isfinite(beliefs.probs))
        assert np.all((beliefs.probs >= 0) & (beliefs.probs <= 1))
        assert residual <= cfg.tol
        assert residual == equilibrium_residual(beliefs, cov, support, ext, [hom])
        seed = data.draw(st.integers(0, 2**32 - 1))
        net = _draw(index, seed)
        assert set(np.unique(net.adj)) <= {0, 1} and np.all(np.diagonal(net.adj) == 0)
        public = simulate_true_network(beliefs, cov, support, ext, [hom], seed=seed)
        assert np.array_equal(public.adj, net.adj)
