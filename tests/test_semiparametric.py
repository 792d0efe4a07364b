"""Bound and rank conditions of the relaxed identified set."""

import numpy as np

from misnet import MomentEvaluator, Theta, ThetaGrid, cell_estimates, identified_set
from misnet.model import theta_coordinates
from misnet.normal import norm_cdf
from misnet.semiparametric import CellSummary, cell_summary, membership

from conftest import default_theta, random_dataset, tournament_dataset
from oracles import isotonic_sse, reference_membership


def theta_with_rates(fp, fn, d=1):
    return Theta(externality=[0.5, 0.25, 0.25], homophily=np.full(d, 0.8), fp_rate=fp, fn_rate=fn)


class TestMembership:
    def test_fp_bound_violation(self):
        summary = CellSummary(means=[0.2, 0.6], indices=[-1.0, 1.0])
        result = membership(summary, theta_with_rates(0.3, 0.0))
        assert not result.member
        kinds = {v.condition for v in result.violations}
        assert kinds == {"fp_bound"}
        assert result.violations[0].cells == (0,)

    def test_fn_bound_violation(self):
        summary = CellSummary(means=[0.5, 0.9], indices=[-1.0, 1.0])
        result = membership(summary, theta_with_rates(0.0, 0.2))
        assert not result.member
        assert {v.condition for v in result.violations} == {"fn_bound"}

    def test_single_cell_reduces_to_bounds(self):
        summary = CellSummary(means=[0.4], indices=[0.7])
        assert membership(summary, theta_with_rates(0.3, 0.5)).member
        assert not membership(summary, theta_with_rates(0.5, 0.0)).member
        assert not membership(summary, theta_with_rates(0.0, 0.7)).member

    def test_flat_means_make_rank_condition_vacuous(self):
        summary = CellSummary(means=[0.5, 0.5, 0.5], indices=[3.0, -2.0, 0.0])
        assert membership(summary, theta_with_rates(0.2, 0.2)).member

    def test_rank_violation_names_cell_pair(self):
        summary = CellSummary(means=[0.7, 0.3], indices=[-1.0, 1.0])
        result = membership(summary, theta_with_rates(0.1, 0.1))
        assert not result.member
        rank = [v for v in result.violations if v.condition == "rank"]
        assert rank and rank[0].cells == (0, 1)

    def test_equal_indices_with_unequal_means_violate(self):
        summary = CellSummary(means=[0.3, 0.6], indices=[0.5, 0.5])
        result = membership(summary, theta_with_rates(0.1, 0.1))
        assert not result.member
        assert any(v.condition == "rank" for v in result.violations)

    def test_monotone_configuration_is_member(self):
        summary = CellSummary(means=[0.2, 0.5, 0.8], indices=[-1.0, 0.0, 2.0])
        assert membership(summary, theta_with_rates(0.1, 0.1)).member

    def test_one_row_case_matches_the_loop(self, rng):
        """``membership`` gives the oracle loop's verdict and violations, in its
        order and with its text, on random cells with ties, rounded values that
        make the bounds bind exactly, and NaN or infinite indices."""
        for _ in range(300):
            J = int(rng.integers(0, 6))
            means = np.round(rng.random(J), 1)
            indices = np.round(rng.standard_normal(J), 1)
            if J and rng.random() < 0.3:
                indices[rng.integers(0, J)] = rng.choice([np.nan, np.inf, -np.inf])
            fp, fn = np.floor(rng.random(2) * 5) / 10  # 0, 0.1, ..., 0.4
            summary, theta = CellSummary(means, indices), theta_with_rates(fp, fn)
            got, expected = membership(summary, theta), reference_membership(summary, theta)
            assert got.member == expected.member
            assert got.violations == expected.violations


class TestIsotonicEquivalence:
    def test_rank_condition_iff_exact_isotonic_fit(self, rng):
        """The pairwise rank condition is equivalent to a zero-error
        monotone regression of means on indices."""
        theta = theta_with_rates(0.0, 0.0)
        for _ in range(200):
            J = int(rng.integers(2, 6))
            means = np.round(rng.random(J), 3)
            indices = np.round(rng.standard_normal(J), 2)
            if rng.random() < 0.3:
                indices[rng.integers(0, J)] = indices[rng.integers(0, J)]  # force ties
            summary = CellSummary(means=means, indices=indices)
            result = membership(summary, theta)
            rank_ok = not any(v.condition == "rank" for v in result.violations)
            sse = isotonic_sse(indices, means)
            assert rank_ok == (sse <= 1e-12), (means, indices, sse)

    def test_positive_scaling_of_weights_preserves_verdict(self, rng):
        data = random_dataset(rng, n=12, n_cells=3)
        theta = default_theta()
        for lam in (0.5, 2.0, 10.0):
            scaled = Theta(
                externality=lam * theta.externality,
                homophily=lam * theta.homophily,
                fp_rate=theta.fp_rate,
                fn_rate=theta.fn_rate,
            )
            base = membership(cell_summary(data, theta), theta)
            other = membership(cell_summary(data, scaled), scaled)
            base_rank = any(v.condition == "rank" for v in base.violations)
            other_rank = any(v.condition == "rank" for v in other.violations)
            assert base_rank == other_rank


class TestPopulationLogic:
    def test_truth_is_member_on_population_cells(self):
        """Cell means built from the probit law at theta0 satisfy all
        conditions at theta0."""
        theta0 = theta_with_rates(0.05, 0.10)
        indices = np.array([-0.8, -0.1, 0.4, 1.2])
        lam = 1 - theta0.fp_rate - theta0.fn_rate
        means = theta0.fp_rate + lam * norm_cdf(indices)
        summary = CellSummary(means=means, indices=indices)
        assert membership(summary, theta0).member

    def test_moment_zero_implies_membership(self):
        """Any parameter reproducing the cell means through the probit form
        passes the bound and rank checks."""
        for fp, fn in [(0.0, 0.0), (0.1, 0.2), (0.3, 0.1)]:
            theta = theta_with_rates(fp, fn)
            indices = np.linspace(-1.5, 1.5, 5)
            lam = 1 - fp - fn
            means = fp + lam * norm_cdf(indices)
            assert membership(CellSummary(means=means, indices=indices), theta).member


class TestIdentifiedSet:
    def test_flat_network_reduces_to_rate_bounds(self, rng):
        """A data set whose cells all have mean one half accepts exactly the
        grid points with both rates at or below one half."""
        data = tournament_dataset()
        means = cell_summary(data, theta_with_rates(0.0, 0.0)).means
        assert np.allclose(means, 0.5)
        rates = [0.1, 0.4, 0.6]
        grid = ThetaGrid(([0.0], [0.0], [0.0], [0.0], rates, rates))
        results = identified_set(data, grid)
        for theta, res in results:
            expected = theta.fp_rate <= 0.5 and theta.fn_rate <= 0.5
            assert res.member == expected

    def test_grid_results_align_with_membership(self, rng):
        """Each grid verdict is the row-by-row oracle's: the evaluator's batched
        index row equals its one-row call and ``cell_summary``'s exactly, and the
        oracle's membership loop on that summary gives the same verdict and the
        same violations in the same order."""
        data = random_dataset(rng, n=12, n_cells=2)
        grid = ThetaGrid(([0.0, 0.5], [0.25, -1.0], [0.25], [0.8, -2.0], [0.0, 0.1, 0.7], [0.1, 0.55]))
        results = identified_set(data, grid)
        evaluator = MomentEvaluator(data)
        indices = evaluator.indices(grid.points)
        assert len(results) == len(grid) == len(indices)
        kinds = set()
        for (theta, res), expected, row in zip(results, grid, indices):
            assert theta == expected
            assert np.array_equal(evaluator.indices([theta_coordinates(theta)])[0], row)
            summary = cell_summary(data, theta)
            assert np.array_equal(summary.indices, row)
            again = reference_membership(summary, theta)
            assert again.member == res.member
            assert [(v.condition, v.cells, v.detail) for v in res.violations] == [
                (v.condition, v.cells, v.detail) for v in again.violations
            ]
            kinds |= {v.condition for v in res.violations}
        assert kinds == {"fp_bound", "fn_bound", "rank"}
        assert any(res.member for _, res in results)

    def test_shared_cells_give_the_same_summary(self, rng):
        for n_cells in (2, 3):
            data = random_dataset(rng, n=15, n_cells=n_cells)
            cells = cell_estimates(data)
            theta = default_theta()
            shared = cell_summary(data, theta, cells)
            fresh = cell_summary(data, theta)
            assert np.array_equal(shared.means, fresh.means)
            assert np.array_equal(shared.indices, fresh.indices)
