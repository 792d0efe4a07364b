"""Chi-square quantiles, grid inversion, and projection intervals."""

import itertools
import math

import numpy as np
import pytest

from misnet import (
    Dataset,
    MomentEvaluator,
    Network,
    PairCovariates,
    Theta,
    ThetaGrid,
    cell_estimates,
    chi2_quantile,
    confidence_set,
)
from misnet.estimation import quadratic_form
from misnet.inference import REASON_DEGENERATE, coordinate_intervals, theta_coordinates, write_grid_table

from conftest import default_theta, random_dataset, scalar_support, singleton_grid
from oracles import brute_moment, brute_variance, chi2_cdf, chi2_quantile_bisect


class TestChi2Quantile:
    def test_reference_values(self):
        assert chi2_quantile(1, 0.95) == pytest.approx(3.8415, abs=1e-3)
        assert chi2_quantile(2, 0.95) == pytest.approx(5.9915, abs=1e-3)

    def test_two_dof_closed_form(self):
        # chi-square with two degrees of freedom is exponential with mean 2
        for prob in (0.5, 0.9, 0.95, 0.99):
            assert chi2_quantile(2, prob) == pytest.approx(-2 * math.log(1 - prob), rel=1e-12)

    def test_small_probability_limit(self):
        for dof in (1, 2, 5):
            assert chi2_quantile(dof, 1e-12) < 1e-3

    @pytest.mark.parametrize("dof", [1, 2, 3, 5])
    @pytest.mark.parametrize("prob", [0.9, 0.95, 0.99])
    def test_matches_bisection_oracle(self, dof, prob):
        assert chi2_quantile(dof, prob) == pytest.approx(
            chi2_quantile_bisect(dof, prob), abs=1e-6
        )

    def test_strictly_increasing(self):
        probs = np.linspace(0.05, 0.99, 20)
        for dof in (1, 2, 4, 8):
            values = [chi2_quantile(dof, p) for p in probs]
            assert np.all(np.diff(values) > 0)
        for prob in (0.5, 0.9):
            by_dof = [chi2_quantile(d, prob) for d in range(1, 10)]
            assert np.all(np.diff(by_dof) > 0)

    def test_quantile_inverts_oracle_cdf(self):
        for dof in (1, 3, 6):
            for prob in (0.1, 0.5, 0.9, 0.99):
                q = chi2_quantile(dof, prob)
                assert chi2_cdf(q, dof) == pytest.approx(prob, abs=1e-10)

    def test_bit_equal_to_scipy_stats(self):
        """The closed form is what ``chi2.ppf`` evaluates, bit for bit."""
        from scipy.stats import chi2

        probs = np.concatenate([np.linspace(0.001, 0.999, 1000), [1e-12, 0.95, 1 - 1e-12]])
        for dof in range(1, 9):
            ours = [chi2_quantile(dof, float(p)) for p in probs]
            assert ours == [float(chi2.ppf(p, dof)) for p in probs], dof

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            chi2_quantile(0, 0.5)
        with pytest.raises(ValueError):
            chi2_quantile(2, 1.0)


class TestThetaGrid:
    def test_iteration_order_and_length(self):
        grid = ThetaGrid(([0.0], [0.0], [0.0], [0.1, 0.2], [0.0, 0.6], [0.0, 0.6]))
        points = list(grid)
        # (0.6, 0.6) is infeasible, three rate combinations survive
        assert len(points) == len(grid) == 2 * 3
        assert points[0].homophily[0] == 0.1 and points[0].fp_rate == 0.0

    @pytest.mark.parametrize("d", [1, 2])
    def test_points_match_product_oracle(self, rng, d):
        """``points`` holds the rows of ``itertools.product`` over the axes, in
        its order, with the infeasible rate pairs skipped; iteration yields one
        ``Theta`` per row, in the same coordinate layout."""
        for _ in range(5):
            axes = [rng.uniform(-1, 1, rng.integers(1, 4)) for _ in range(3 + d)]
            fp = rng.permutation(np.append(rng.uniform(0, 0.9, rng.integers(0, 3)), [0.0, 0.6]))
            fn = rng.permutation(np.append(rng.uniform(0, 0.9, rng.integers(0, 3)), [0.5]))
            axes += [fp, fn]
            product = list(itertools.product(*axes))
            oracle = np.array([row for row in product if row[-2] + row[-1] < 1])
            assert len(oracle) < len(product)
            grid = ThetaGrid(tuple(axes))
            assert grid.points.shape == (len(oracle), 5 + d)
            assert np.array_equal(grid.points, oracle)
            thetas = list(grid)
            assert len(grid) == len(thetas)
            for theta, row in zip(thetas, grid.points):
                assert np.array_equal(theta_coordinates(theta), row)

    def test_all_points_satisfy_constraints(self):
        axis = np.linspace(0, 0.8, 5)
        grid = ThetaGrid(([0.0], [0.0], [0.0], [0.0], axis, axis))
        for theta in grid:
            assert theta.fp_rate + theta.fn_rate < 1

    def test_infeasible_grid_rejected(self):
        with pytest.raises(ValueError):
            ThetaGrid(([0.0], [0.0], [0.0], [0.0], [0.7], [0.5]))

    def test_singleton(self):
        theta = default_theta()
        points = list(singleton_grid(theta))
        assert len(points) == 1
        assert points[0] == theta


def small_grid(theta, fp_values, fn_values):
    fixed = ([v] for v in theta_coordinates(theta)[:-2])
    return ThetaGrid((*fixed, fp_values, fn_values))


class TestConfidenceSet:
    def test_inversion_consistency(self, rng):
        data = random_dataset(rng, n=20, n_cells=2)
        theta = default_theta()
        grid = small_grid(theta, np.linspace(0, 0.3, 4), np.linspace(0, 0.3, 4))
        critical_value, stats, accepted, reasons = confidence_set(data, grid, alpha=0.05)
        critical = chi2_quantile(2, 0.95)
        assert critical_value == pytest.approx(critical)
        evaluator = MomentEvaluator(data)
        for theta, stat, ok, reason in zip(grid, stats, accepted, reasons):
            if reason == REASON_DEGENERATE:
                assert math.isnan(stat) and not ok
            else:
                assert evaluator.statistic(theta) == pytest.approx(stat, abs=1e-12)
                assert ok == (stat <= critical)

    def test_statistics_match_brute_force(self, rng):
        """Every grid statistic is the quadratic form of the loop-built moment
        and variance, and the accepted set is the one those statistics give."""
        data = random_dataset(rng, n=12, n_cells=2)
        theta = default_theta()
        grid = small_grid(theta, np.linspace(0, 0.3, 4), np.linspace(0, 0.2, 3))
        critical, stats, accepted, reasons = confidence_set(data, grid, alpha=0.05)
        cells = cell_estimates(data)
        args = (data.network.adj, data.covariates.assignment, data.support.points)
        assert REASON_DEGENERATE not in reasons
        for theta, stat, ok in zip(grid, stats, accepted):
            m = brute_moment(*args, theta, cells.stats, 2)
            S = brute_variance(*args, theta, cells.stats, 2)
            want = quadratic_form(m, S, data.n)
            assert stat == pytest.approx(want, rel=1e-12, abs=0)
            assert ok == (want <= critical)
        assert 0 < accepted.sum() < len(accepted)

    def test_alpha_monotonicity(self, rng):
        data = random_dataset(rng, n=18, n_cells=2)
        theta = default_theta()
        grid = small_grid(theta, np.linspace(0, 0.4, 5), np.linspace(0, 0.4, 5))
        _, _, loose, _ = confidence_set(data, grid, alpha=0.05)
        _, _, tight, _ = confidence_set(data, grid, alpha=0.5)
        assert not (tight & ~loose).any()

    def test_extreme_alpha_shrinks_set(self, rng):
        data = random_dataset(rng, n=16, n_cells=2)
        theta = default_theta()
        grid = small_grid(theta, np.linspace(0, 0.3, 4), [0.1])
        critical, stats, accepted, _ = confidence_set(data, grid, alpha=1 - 1e-12)
        # critical value collapses toward zero, only near-zero statistics stay
        assert critical < 1e-5
        assert (stats[accepted] <= critical).all()

    def test_grid_refinement_preserves_accepted_points(self, rng):
        data = random_dataset(rng, n=20, n_cells=2)
        theta = default_theta()
        coarse = small_grid(theta, np.linspace(0.0, 0.3, 3), [0.1])
        fine = small_grid(theta, np.linspace(0.0, 0.3, 5), [0.1])  # superset axis
        _, _, in_coarse, _ = confidence_set(data, coarse, alpha=0.05)
        _, _, in_fine, _ = confidence_set(data, fine, alpha=0.05)
        accepted_coarse = {round(fp, 12) for fp in coarse.points[in_coarse, -2].tolist()}
        accepted_fine = {round(fp, 12) for fp in fine.points[in_fine, -2].tolist()}
        assert accepted_coarse <= accepted_fine

    def test_degenerate_points_recorded_not_dropped(self):
        # an empty network makes the variance singular at externality-free theta
        n = 8
        adj = np.zeros((n, n), dtype=int)
        data = Dataset(
            network=Network(adj),
            covariates=PairCovariates(np.zeros((n, n), dtype=int)),
            support=scalar_support(0.0),
        )
        theta = Theta(externality=[0, 0, 0], homophily=[0.0], fp_rate=0.0, fn_rate=0.0)
        grid = singleton_grid(theta)
        _, stats, accepted, reasons = confidence_set(data, grid, alpha=0.05)
        assert reasons == [REASON_DEGENERATE]
        assert len(stats) == 1 and math.isnan(stats[0]) and not accepted[0]

    def test_huge_signal_point_accepted(self, rng):
        """Single-point grid at the data-generating parameter on a large
        simulated sample should be accepted."""
        from misnet import apply_misclassification, solve_equilibrium
        from misnet.equilibrium import simulate_true_network
        from conftest import random_assignment

        n = 120
        support = scalar_support(-0.5, 0.5)
        cov = random_assignment(rng, n, 2)
        theta = default_theta()
        beliefs = solve_equilibrium(cov, support, theta.externality, theta.homophily)
        true_net = simulate_true_network(
            beliefs, cov, support, theta.externality, theta.homophily, seed=5
        )
        observed = apply_misclassification(true_net, theta.fp_rate, theta.fn_rate, seed=6)
        data = Dataset(network=observed, covariates=cov, support=support)
        _, _, accepted, _ = confidence_set(data, singleton_grid(theta), alpha=0.05)
        assert accepted[0]


class TestProjection:
    def test_single_point_degenerate_interval(self, rng):
        from misnet import apply_misclassification, solve_equilibrium
        from misnet.equilibrium import simulate_true_network
        from conftest import random_assignment

        n = 60
        support = scalar_support(-0.5, 0.5)
        cov = random_assignment(rng, n, 2)
        theta = default_theta()
        beliefs = solve_equilibrium(cov, support, theta.externality, theta.homophily)
        true_net = simulate_true_network(
            beliefs, cov, support, theta.externality, theta.homophily, seed=21
        )
        observed = apply_misclassification(true_net, theta.fp_rate, theta.fn_rate, seed=22)
        data = Dataset(network=observed, covariates=cov, support=support)
        grid = singleton_grid(theta)
        _, _, accepted, _ = confidence_set(data, grid, alpha=0.05)
        assert accepted.any(), "truth rejected on simulated data"
        intervals = coordinate_intervals(grid.points[accepted], grid.coordinate_names())
        assert intervals["fp_rate"] == (theta.fp_rate, theta.fp_rate)
        assert intervals["w_recip"] == (theta.externality[0],) * 2

    def test_empty_set_has_empty_projection(self, rng):
        data = random_dataset(rng, n=16, n_cells=2)
        theta = default_theta()
        grid = small_grid(theta, [0.4], [0.4])  # far from truth
        _, _, accepted, _ = confidence_set(data, grid, alpha=1 - 1e-9)
        if accepted.any():
            pytest.skip("unexpected acceptance")
        assert coordinate_intervals(grid.points[accepted], grid.coordinate_names()) == {}

    def test_symmetric_set_symmetric_interval(self, rng):
        data = random_dataset(rng, n=25, n_cells=2)
        theta = default_theta()
        grid = small_grid(theta, np.array([0.02, 0.05, 0.08]), [theta.fn_rate])
        _, _, accepted, _ = confidence_set(data, grid, alpha=0.05)
        if accepted.all():
            intervals = coordinate_intervals(grid.points[accepted], grid.coordinate_names())
            assert intervals["fp_rate"] == (0.02, 0.08)


def test_grid_csv_roundtrip(tmp_path, rng):
    data = random_dataset(rng, n=15, n_cells=2)
    theta = default_theta()
    grid = small_grid(theta, np.linspace(0, 0.2, 3), [0.1])
    _, stats, accepted, reasons = confidence_set(data, grid, alpha=0.05)
    path = tmp_path / "grid.csv"
    write_grid_table(path, grid.coordinate_names(), grid.points, stats, accepted, reasons)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "w_recip", "w_indeg", "w_common", "w_x1", "fp_rate", "fn_rate",
        "statistic", "accepted", "reason",
    ]
    assert len(lines) == 1 + len(grid)
    first = lines[1].split(",")
    assert float(first[6]) == pytest.approx(stats[0], abs=1e-12)
