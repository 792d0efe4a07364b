"""Flip mechanism and the correction, checked against the flip law in the oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from misnet import (
    InvalidRates,
    Network,
    apply_misclassification,
    population_correction,
    solve_equilibrium,
)

from conftest import default_theta, random_assignment, random_network, scalar_support
from oracles import extended_stats_from_beliefs, flip_law_maps


class TestApplyMisclassification:
    def test_zero_rates_identity(self, rng):
        net = random_network(rng, 12)
        out = apply_misclassification(net, 0.0, 0.0, seed=5)
        assert np.array_equal(out.adj, net.adj)

    def test_invalid_rates_rejected(self, rng):
        net = random_network(rng, 4)
        with pytest.raises(InvalidRates):
            apply_misclassification(net, 0.6, 0.4, seed=0)
        with pytest.raises(InvalidRates):
            apply_misclassification(net, -0.1, 0.2, seed=0)

    def test_deterministic_given_seed(self, rng):
        net = random_network(rng, 10)
        a = apply_misclassification(net, 0.1, 0.2, seed=42)
        b = apply_misclassification(net, 0.1, 0.2, seed=42)
        assert np.array_equal(a.adj, b.adj)

    def test_false_positive_frequency_on_empty_network(self):
        n = 100
        net = Network(np.zeros((n, n), dtype=int))
        out = apply_misclassification(net, 0.3, 0.0, seed=9)
        n_pairs = n * (n - 1)
        freq = out.adj.sum() / n_pairs
        assert abs(freq - 0.3) <= 4 * np.sqrt(0.3 * 0.7 / n_pairs)
        assert np.all(np.diagonal(out.adj) == 0)

    def test_false_negative_frequency_single_pair(self):
        # one true link; drop frequency over many draws approaches fn_rate
        net = Network(np.array([[0, 1], [0, 0]]))
        reps = 4000
        dropped = sum(
            1 - int(apply_misclassification(net, 0.0, 0.25, seed=r).adj[0, 1])
            for r in range(reps)
        )
        freq = dropped / reps
        assert abs(freq - 0.25) <= 4 * np.sqrt(0.25 * 0.75 / reps)

    def test_flips_factorize_across_pairs(self):
        """Joint flip frequencies for (k,i) and (k,j) factorize into marginals."""
        n = 3
        adj = np.zeros((n, n), dtype=int)
        adj[0, 1] = 1  # pair (k,i) has a true link, pair (k,j) does not
        net = Network(adj)
        reps = 6000
        both = one_a = one_b = 0
        for r in range(reps):
            out = apply_misclassification(net, 0.2, 0.3, seed=r).adj
            a, b = int(out[0, 1]), int(out[0, 2])
            one_a += a
            one_b += b
            both += a * b
        pa, pb, pab = one_a / reps, one_b / reps, both / reps
        se = np.sqrt(0.25 / reps)
        assert abs(pa - 0.7) <= 4 * se
        assert abs(pb - 0.2) <= 4 * se
        assert abs(pab - pa * pb) <= 4 * se

    def test_observed_law_for_bernoulli_truth(self, rng):
        """With latent links Bernoulli(p*), the recorded frequency is
        fp (1 - p*) + (1 - fn) p*."""
        n, reps = 30, 300
        p_star, fp, fn = 0.4, 0.1, 0.2
        count = 0
        n_pairs = n * (n - 1)
        for r in range(reps):
            local = np.random.default_rng(r)
            adj = (local.random((n, n)) < p_star).astype(int)
            np.fill_diagonal(adj, 0)
            out = apply_misclassification(Network(adj), fp, fn, seed=10_000 + r)
            count += out.adj.sum()
        freq = count / (reps * n_pairs)
        expected = fp * (1 - p_star) + (1 - fn) * p_star
        assert abs(freq - expected) <= 4 * np.sqrt(expected * (1 - expected) / (reps * n_pairs))


SELECT = np.hstack([np.eye(3), np.zeros((3, 1))])  # the three latent statistics


def feasible_rates(rng, size=None):
    fp = rng.uniform(0, 0.6, size)
    return fp, rng.uniform(0, 0.9 - fp)


class TestCorrectionMaps:
    """``population_correction`` and the flip law of ``oracles.flip_law_maps``."""

    def test_zero_rates_are_identity(self):
        offset, matrix = population_correction(0.0, 0.0)
        assert np.all(offset == 0.0)
        assert np.array_equal(matrix, SELECT)
        assert np.array_equal(flip_law_maps(0.0, 0.0).forward, np.eye(4))

    def test_reference_point(self):
        offset, _ = population_correction(0.1, 0.2)
        assert np.allclose(offset, [-1 / 7, -1 / 7, 1 / 49], atol=1e-15)

    def test_offset_third_component_value(self):
        """The population map's third offset component is exactly fp^2 / lam^2."""
        axis = np.linspace(0.0, 0.49, 25)
        fp, fn = np.meshgrid(axis, axis)
        offset, _ = population_correction(fp, fn)
        assert offset.shape == (25, 25, 3)
        assert np.array_equal(offset[..., 2], (fp / (1.0 - fp - fn)) ** 2)

    def test_matches_flip_law_inverse(self, rng):
        """Over random feasible rates, one array call equals the oracle's
        population (n = inf) inverse of the flip law row by row, bit for bit."""
        fp, fn = feasible_rates(rng, 500)
        offset, matrix = population_correction(fp, fn)
        assert offset.shape == (500, 3) and matrix.shape == (500, 3, 4)
        for k in range(500):
            law = flip_law_maps(fp[k], fn[k])
            assert np.array_equal(offset[k], law.offset)
            assert np.array_equal(matrix[k], law.matrix)
            one = population_correction(fp[k], fn[k])
            assert np.array_equal(one[0], law.offset) and np.array_equal(one[1], law.matrix)

    def test_closed_form_matches_numeric_inverse(self, rng):
        for _ in range(200):
            fp, fn = feasible_rates(rng)
            for n in (np.inf, 2, 7, 50):  # n = 2: no k outside {i, j}
                law = flip_law_maps(fp, fn, n)
                d_inv = np.linalg.inv(law.forward)
                assert np.allclose(law.matrix, SELECT @ d_inv, atol=1e-12)
                inner = (n - 2) / n if np.isfinite(n) else 1.0
                deg = (2 * n - 3) / n if np.isfinite(n) else 2.0
                shift = np.array([fp, fp * inner, fp * fp * inner, fp * deg])  # flip law
                assert np.allclose(law.shift, shift, atol=1e-15)
                assert np.allclose(law.offset, -(SELECT @ d_inv @ shift), atol=1e-12)

    def test_boundary_rates_rejected(self):
        with pytest.raises(InvalidRates):
            population_correction(0.5, 0.5)
        with pytest.raises(InvalidRates, match="non-negative"):
            population_correction([0.1, -0.1, np.nan], [0.2, 0.2, 0.2])

    def test_population_map_is_large_n_limit(self, rng):
        """The n = inf map, which the estimator uses, departs from the size-n
        map (compared with flip simulations in acceptance criterion 3) by
        exactly c / n in every entry."""
        fields = ("shift", "forward", "offset", "matrix")
        for _ in range(50):
            fp, fn = feasible_rates(rng)
            pop = flip_law_maps(fp, fn)
            scaled = [
                [n * (getattr(flip_law_maps(fp, fn, n), f) - getattr(pop, f)) for f in fields]
                for n in (20, 1000)
            ]
            for small, large in zip(*scaled):
                assert np.allclose(small, large, rtol=1e-9, atol=1e-9)
                assert np.all(np.abs(small) <= 3.0 * max(fp, fp / (1 - fp - fn) ** 2))


def corrected(fp, fn, observed):
    """The package's correction applied to one observed 4-vector."""
    offset, matrix = population_correction(fp, fn)
    return offset + matrix @ np.asarray(observed, dtype=float)


class TestBeliefMaps:
    def test_zero_rates_project_first_three(self):
        obs = np.array([0.3, 0.6, 0.2, 1.1])
        assert np.array_equal(corrected(0.0, 0.0, obs), obs[:3])
        assert np.array_equal(flip_law_maps(0.0, 0.0).observed_from_true(obs), obs)

    def test_shift_vector_maps_to_zero(self):
        obs = np.array([0.1, 0.1, 0.01, 0.2])
        assert np.allclose(corrected(0.1, 0.2, obs), 0.0, atol=1e-15)

    def test_empty_truth_maps_to_shift(self):
        out = flip_law_maps(0.3, 0.1).observed_from_true(np.zeros(4))
        assert np.allclose(out, [0.3, 0.3, 0.09, 0.6], atol=0)

    def test_roundtrip_recovers_first_three(self, rng):
        for _ in range(1000):
            fp = rng.uniform(0, 0.9)
            fn = rng.uniform(0, 0.9 - fp)
            ext = np.concatenate([rng.uniform(0, 1, 3), rng.uniform(0, 2, 1)])
            rt = corrected(fp, fn, flip_law_maps(fp, fn).observed_from_true(ext))
            assert np.max(np.abs(rt - ext[:3])) <= 1e-10

    @given(
        st.floats(0, 0.9),
        st.floats(0, 0.9),
        st.lists(st.floats(0, 1), min_size=3, max_size=3),
        st.floats(0, 2),
    )
    @settings(max_examples=200)
    def test_roundtrip_property(self, fp, fn, stats3, deg):
        if fp + fn > 0.9:
            return
        ext = np.array([*stats3, deg])
        rt = corrected(fp, fn, flip_law_maps(fp, fn).observed_from_true(ext))
        assert np.max(np.abs(rt - ext[:3])) <= 1e-9

    def test_forward_map_reciprocal_component_matches_flips(self, rng):
        """Monte Carlo check of the forward map's first row, which is the
        marginal flip law for a single link: fp + (1 - fp - fn) p.

        The other rows sum the same law over many links; the acceptance suite
        compares all four components with flip simulations at size n.
        """
        n, reps = 20, 4000
        fp, fn = 0.15, 0.1
        support = scalar_support(-0.5, 0.5)
        cov = random_assignment(rng, n, 2)
        theta = default_theta()
        beliefs = solve_equilibrium(cov, support, theta.externality, theta.homophily)
        i, j = 0, 1
        ext = extended_stats_from_beliefs(beliefs)[i, j]
        predicted = flip_law_maps(fp, fn, n).observed_from_true(ext)[0]
        hits = 0
        for r in range(reps):
            local = np.random.default_rng((5, r))
            adj = (local.random((n, n)) < beliefs.probs).astype(int)
            np.fill_diagonal(adj, 0)
            obs = apply_misclassification(Network(adj), fp, fn, seed=(6, r)).adj
            hits += int(obs[j, i])
        freq = hits / reps
        assert abs(freq - predicted) <= 4 * np.sqrt(predicted * (1 - predicted) / reps)
