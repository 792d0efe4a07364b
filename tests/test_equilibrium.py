"""Belief statistics, the best-response map, the solver, and simulation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from misnet import (
    CovariateSupport,
    Dataset,
    MomentEvaluator,
    Network,
    NonConvergence,
    PairCovariates,
    SolverConfig,
    solve_equilibrium,
)
from misnet import equilibrium
from misnet.equilibrium import (
    BeliefMatrix,
    _index,
    _step,
    best_response,
    contraction_bound,
    draw_network,
    equilibrium_residual,
    simulate_true_network,
)
from misnet.normal import norm_cdf

from conftest import default_theta, peak_bytes, random_assignment, random_network, scalar_support
from oracles import (
    brute_extended_stats,
    brute_network_stats,
    extended_stats_from_beliefs,
    network_stats,
    pair_covariates,
    reference_draw,
    reference_solve,
    utility_index,
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
        expected = norm_cdf(pair_covariates(cov, self.support) @ np.array(hom))
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
        expected = norm_cdf(pair_covariates(cov, self.support) @ np.array([0.8]))
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

    def test_nonconvergence_hint_names_max_iter_first(self, rng):
        """Where contraction_bound L < 1 the map contracts at any damping and
        only ``max_iter`` binds, so the message names it first and offers
        damping only for L >= 1."""
        cov = random_assignment(rng, 8, 2)
        theta = default_theta()
        assert contraction_bound(theta.externality) < 1
        with pytest.raises(NonConvergence) as info:
            solve_equilibrium(cov, self.support, theta.externality, theta.homophily, SolverConfig(max_iter=1))
        message = str(info.value)
        assert "retry with smaller damping" not in message
        assert message.index("max_iter") < message.index("contraction_bound >= 1") < message.index("damping")


def certified_distance(eq, other, *args) -> float:
    """The bound on the sup-norm distance between two points with residuals at
    most r and r' under :func:`contraction_bound` L < 1: both lie within
    r / (1 - L) and r' / (1 - L) of the unique equilibrium.  ``args`` are the
    design and weights; the slack covers rounding in the two residuals."""
    L = contraction_bound(args[2])
    assert L < 1
    return (eq.residual + equilibrium_residual(other, *args)) / (1.0 - L) + 1e-15


class TestLoopMatchesReference:
    """The solver returns the point of the loop that calls the public best
    response and validates a BeliefMatrix at every step, to within the
    contraction certificate (the benchmark theta has L = .499), with the link
    probabilities and residual of the step that accepted it; links drawn from
    those probabilities are the public simulation's."""

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
        eq = solve_equilibrium(cov, support, ext, hom, cfg)
        expected = reference_solve(cov, support, ext, hom, cfg)
        assert isinstance(eq, BeliefMatrix)
        distance = np.abs(eq.probs - expected.probs).max()
        assert distance <= certified_distance(eq, expected, cov, support, ext, hom)
        assert eq.residual == equilibrium_residual(eq, cov, support, ext, hom)
        assert eq.residual <= cfg.tol
        xhom, ext_arr = pair_covariates(cov, support) @ np.asarray(hom, float), np.asarray(ext, float)
        q = _step(eq.probs, xhom, ext_arr)[1]
        assert np.array_equal(eq.link_probs, q) and np.all(np.diagonal(eq.link_probs) == 0)
        assert np.array_equal(best_response(eq, cov, support, ext, hom).probs, q)
        for seed in (0, 1):
            public = simulate_true_network(eq, cov, support, ext, hom, seed=seed)
            assert np.array_equal(draw_network(eq.link_probs, seed).adj, public.adj)

    def test_same_nonconvergence(self, rng):
        # the oscillating map of TestSolver.test_nonconvergence_raised_for_oscillating_map
        n = 6
        support = scalar_support(-0.5, 0.5)
        cov = random_assignment(rng, n, 2)
        cfg = SolverConfig(tol=1e-10, max_iter=50, damping=1.0)
        args = (cov, support, [-50.0, 0.0, 0.0], [0.0], cfg)
        with pytest.raises(NonConvergence) as lean:
            solve_equilibrium(*args)
        with pytest.raises(NonConvergence) as reference:
            reference_solve(*args)
        assert lean.value.residual == reference.value.residual
        assert lean.value.iterations == reference.value.iterations == cfg.max_iter


def certified_theta(rng, d):
    """Externality weights with a random certificate L in (.05, .95), and d homophily weights."""
    ext = rng.uniform(-1.0, 1.0, 3)
    ext *= rng.uniform(0.05, 0.95) / contraction_bound(ext)
    return ext, rng.standard_normal(d)


def count_steps(monkeypatch) -> dict:
    """The solver's steps from here on, counted by the dtype they run in."""
    counts = {}

    def counted(p, *args):
        counts[p.dtype.name] = counts.get(p.dtype.name, 0) + 1
        return _step(p, *args)

    monkeypatch.setattr(equilibrium, "_step", counted)
    return counts


class TestContractionBound:
    """L = phi(0) (|w_recip| + |w_indeg| + 2 |w_common|) bounds the sup-norm
    of the belief map's Jacobian on beliefs in [0, 1]."""

    def test_benchmark_theta(self):
        assert contraction_bound(default_theta().externality) == pytest.approx(0.4987, abs=1e-4)
        assert math.isnan(contraction_bound([np.nan, 0.0, 0.0]))

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_bounds_the_finite_difference_jacobian(self, rng, n):
        off = ~np.eye(n, dtype=bool)
        h = 1e-6
        for _ in range(20):
            ext = rng.uniform(-3.0, 3.0, 3)
            p = np.where(off, rng.uniform(0.05, 0.95, (n, n)), 0.0)
            xhom = rng.standard_normal((n, n)) * rng.uniform(0.0, 1.0)
            columns = []
            for k, l in zip(*np.nonzero(off)):
                step = np.zeros((n, n))
                step[k, l] = h
                columns.append((_step(p + step, xhom, ext)[1] - _step(p - step, xhom, ext)[1])[off] / (2 * h))
            norm = np.abs(np.stack(columns, axis=1)).sum(axis=1).max()
            assert norm <= contraction_bound(ext) * (1 + 1e-6), ext

    def test_reached_by_reciprocity_alone_at_a_zero_index(self):
        """At ext = (w, 0, 0), zero beliefs and zero x'hom every index is 0,
        and each entry of the map moves with one belief at slope phi(0) |w|."""
        n, ext, h = 4, np.array([-1.7, 0.0, 0.0]), 1e-7
        off = ~np.eye(n, dtype=bool)
        step = np.where(off, h, 0.0)
        slope = (_step(step, np.zeros((n, n)), ext)[1] - _step(-step, np.zeros((n, n)), ext)[1])[off] / (2 * h)
        assert np.abs(slope).max() == pytest.approx(contraction_bound(ext), rel=1e-6)


class TestAcceleratedSolve:
    """Where L < 1 the solver's point lies within the certificate of the plain
    oracle's, and its link probabilities and residual are those of the public
    step at that point; where L >= 1, or L or x'hom is NaN, the plain damped
    iteration runs, bit for bit the oracle's, with no float32 step."""

    @pytest.mark.parametrize("n", [2, 5, 30, 200])
    @pytest.mark.parametrize("damping", [1.0, 0.5])
    @pytest.mark.parametrize("J", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_within_the_certificate_of_the_plain_oracle(self, rng, d, J, damping, n):
        support = CovariateSupport(np.unique(rng.standard_normal((J, d)), axis=0))
        ext, hom = certified_theta(rng, d)
        cov = PairCovariates(rng.integers(0, J, size=(n, n)))
        cfg = SolverConfig(damping=damping)
        eq = solve_equilibrium(cov, support, ext, hom, cfg)
        expected = reference_solve(cov, support, ext, hom, cfg)
        assert 0 <= eq.residual <= cfg.tol
        assert np.abs(eq.probs - expected.probs).max() <= certified_distance(eq, expected, cov, support, ext, hom)
        assert eq.residual == equilibrium_residual(eq, cov, support, ext, hom)
        assert np.array_equal(eq.link_probs, best_response(eq, cov, support, ext, hom).probs)

    @pytest.mark.parametrize(
        "ext, damping",
        [([-4.0, 0.0, 0.0], 0.5), ([-2.0, 0.5, -0.5], 0.5), ([2.0, 0.5, 0.3], 1.0), ([0.0, 3.0, 0.0], 1.0)],
    )
    @pytest.mark.parametrize("n", [5, 30])
    def test_plain_iteration_where_the_certificate_fails(self, monkeypatch, rng, ext, damping, n):
        assert contraction_bound(ext) >= 1
        support = scalar_support(-0.5, 0.5)
        cov = random_assignment(rng, n, 2)
        cfg = SolverConfig(damping=damping)
        counts = count_steps(monkeypatch)
        eq = solve_equilibrium(cov, support, ext, [0.8], cfg)
        assert set(counts) == {"float64"}
        expected = reference_solve(cov, support, ext, [0.8], cfg)
        assert np.array_equal(eq.probs, expected.probs)
        assert eq.residual == equilibrium_residual(expected, cov, support, ext, [0.8])
        assert np.array_equal(eq.link_probs, best_response(expected, cov, support, ext, [0.8]).probs)

    @pytest.mark.parametrize("ext, hom", [([np.nan, 0.0, 0.0], [0.8]), ([0.5, 0.25, 0.25], [np.nan])])
    def test_nan_weight_runs_the_plain_loop(self, monkeypatch, rng, ext, hom):
        counts = count_steps(monkeypatch)
        cov, support = random_assignment(rng, 6, 2), scalar_support(-0.5, 0.5)
        with pytest.raises(NonConvergence) as excinfo:
            solve_equilibrium(cov, support, ext, hom, SolverConfig(max_iter=4))
        assert counts == {"float64": 4} and math.isnan(excinfo.value.residual)

    def test_few_float64_steps_at_the_benchmark_theta(self, monkeypatch, rng):
        """22 plain float64 steps before acceleration; float32 steps first, then at most 10."""
        theta = default_theta()
        cov = random_assignment(rng, 200, 2)
        counts = count_steps(monkeypatch)
        eq = solve_equilibrium(cov, scalar_support(-0.5, 0.5), theta.externality, theta.homophily)
        assert eq.residual <= SolverConfig().tol
        assert counts["float32"] >= 1 and counts["float64"] <= 10, counts

    def test_max_iter_bounds_each_phase(self, monkeypatch, rng):
        theta = default_theta()
        cov, support = random_assignment(rng, 30, 2), scalar_support(-0.5, 0.5)
        counts = count_steps(monkeypatch)
        with pytest.raises(NonConvergence) as excinfo:
            solve_equilibrium(cov, support, theta.externality, theta.homophily, SolverConfig(max_iter=3))
        assert counts == {"float32": 3, "float64": 3} and excinfo.value.iterations == 3


class TestPerPointHomophily:
    """The solver forms x'hom once per support point; its accepting step's
    link probabilities Phi(index), residual and index equal, bit for bit,
    those of the step run at its point on the per-pair x'hom of the oracle,
    and on the estimator's x'hom at zero externality,
    and a cell index with no support point is refused with one ValueError by
    every solver entry and by ``Dataset``."""

    @staticmethod
    def _per_pair_solve(xhom, ext, cfg):
        p = norm_cdf(xhom)
        np.fill_diagonal(p, 0.0)
        for _ in range(cfg.max_iter):
            index, q, residual = _step(p, xhom, ext)
            if residual <= cfg.tol:
                return p, index, residual
            p = q
        raise NonConvergence(residual, cfg.max_iter)

    @pytest.mark.parametrize("n", [2, 5, 200])
    @pytest.mark.parametrize("J", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_solve_equals_the_per_pair_solve(self, rng, d, J, n):
        """The step at the solver's point, run on the per-pair x'hom, gives its
        link probabilities and residual bit for bit; the plain iteration on the
        per-pair x'hom reaches the same point to within the certificate."""
        ext = default_theta().externality
        for _ in range(5):  # a last-bit difference shows on some draws only
            points = rng.standard_normal((J, d)) * 10.0 ** rng.uniform(-2, 0, size=(J, d))
            support = CovariateSupport(points[np.lexsort(points.T[::-1])])
            hom = rng.standard_normal(d) * 10.0 ** rng.uniform(-2, 0, size=d)
            cov = PairCovariates(rng.integers(0, J, size=(n, n)))
            eq = solve_equilibrium(cov, support, ext, hom)
            xhom = pair_covariates(cov, support) @ hom
            index, link_probs, residual = _step(eq.probs, xhom, ext)
            assert np.array_equal(eq.link_probs, link_probs)
            assert np.array_equal(link_probs, np.where(np.eye(n, dtype=bool), 0.0, norm_cdf(index)))
            assert eq.residual == residual
            probs, _, plain_residual = self._per_pair_solve(xhom, ext, SolverConfig())
            bound = (residual + plain_residual) / (1.0 - contraction_bound(ext)) + 1e-15
            assert np.abs(eq.probs - probs).max() <= bound

    @pytest.mark.parametrize("n", [2, 5, 40])
    @pytest.mark.parametrize("J", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_estimator_index_equals_the_solver_index(self, rng, d, J, n):
        """At zero externality and zero rates both indices are x'hom alone, so
        the evaluator's per-cell index over rows of theta, gathered by the cell
        labels, equals each row's solver index and the oracle's per-pair x'hom
        bit for bit.  The evaluator's dataset has every cell filled (n = 40,
        whatever the solve's n)."""
        for _ in range(4):
            points = rng.standard_normal((J, d)) * 10.0 ** rng.uniform(-2, 0, size=(J, d))
            support = CovariateSupport(points[np.lexsort(points.T[::-1])])
            rows = np.zeros((10, 5 + d))  # strided homophily columns, as in ``grid.points``
            rows[:, 3:-2] = rng.standard_normal((10, d)) * 10.0 ** rng.uniform(-2, 0, size=(10, d))
            data = Dataset(random_network(rng, 40), random_assignment(rng, 40, J), support)
            indices = MomentEvaluator(data).indices(rows)
            cov = PairCovariates(rng.integers(0, J, size=(n, n)))
            for row, u in zip(rows, indices):
                eq = solve_equilibrium(cov, support, row[:3], row[3:-2])
                index = _step(eq.probs, *equilibrium._arrays(cov, support, row[:3], row[3:-2]))[0]
                assert np.array_equal(u[cov.assignment], index), (row, u)
                assert np.array_equal(index, pair_covariates(cov, support) @ row[3:-2]), row
                link_probs = norm_cdf(u[cov.assignment])
                np.fill_diagonal(link_probs, 0.0)
                assert np.array_equal(eq.link_probs, link_probs), row

    @pytest.mark.parametrize("label", [2, 3])
    @pytest.mark.parametrize(
        "call",
        [
            lambda cov, s: solve_equilibrium(cov, s, [0, 0, 0], [0.8]),
            lambda cov, s: best_response(uniform_beliefs(cov.n, 0.5), cov, s, [0, 0, 0], [0.8]),
            lambda cov, s: equilibrium_residual(uniform_beliefs(cov.n, 0.5), cov, s, [0, 0, 0], [0.8]),
            lambda cov, s: simulate_true_network(uniform_beliefs(cov.n, 0.5), cov, s, [0, 0, 0], [0.8], 0),
            lambda cov, s: Dataset(Network(np.zeros((cov.n, cov.n), dtype=int)), cov, s),
        ],
        ids=["solve_equilibrium", "best_response", "equilibrium_residual", "simulate_true_network", "Dataset"],
    )
    def test_label_outside_the_support_refused(self, call, label):
        cov = PairCovariates(np.array([[0, 1, 0], [1, 0, label], [0, 1, 0]]))
        with pytest.raises(ValueError, match="^assignment references a cell outside the support$"):
            call(cov, scalar_support(-0.5, 0.5))


def _bits(x) -> int:
    return int(np.float64(x).view(np.uint64))


class TestResidual:
    """The step's residual, one difference and no absolute value of it, equals
    ``np.max(np.abs(q - p))`` bit for bit, signed zeros and NaN included."""

    @staticmethod
    def _residual(monkeypatch, q, p):
        """The step's q (``q`` with its diagonal cleared) and residual against ``p``."""
        monkeypatch.setattr(equilibrium, "norm_cdf", lambda index: q.copy())
        n = p.shape[0]
        _, q_out, residual = _step(p, np.zeros((n, n)), np.zeros(3))
        return q_out, residual

    @pytest.mark.parametrize("n", [1, 2, 7, 50])
    def test_equals_the_max_of_abs(self, monkeypatch, rng, n):
        for draw in range(20):
            q, p = rng.random((n, n)), rng.random((n, n))
            if draw % 4 == 1:  # signed zeros among ordinary entries
                q[rng.random((n, n)) < 0.3], p[rng.random((n, n)) < 0.3] = -0.0, 0.0
            if draw % 4 == 2:  # every difference a zero, some of them -0.0
                q, p = (np.where(rng.random((n, n)) < 0.5, -0.0, 0.0) for _ in range(2))
            if draw % 4 == 3:  # differences of one sign only
                q, p = np.minimum(q, p), np.maximum(q, p)
            q_out, residual = self._residual(monkeypatch, q, p)
            assert type(residual) is float
            assert _bits(residual) == _bits(np.max(np.abs(q_out - p))), draw

    def test_all_zero_difference_is_positive_zero(self, monkeypatch):
        q = np.full((3, 3), -0.0)
        q_out, residual = self._residual(monkeypatch, q, np.zeros((3, 3)))
        assert np.signbit(q_out).any()  # q - p holds -0.0 off the diagonal
        assert residual == 0.0 and not np.signbit(residual)

    @pytest.mark.parametrize("where", [(0, 1), (2, 0)])
    def test_nan_gives_nan(self, monkeypatch, rng, where):
        for nan_in in ("q", "p"):
            q, p = rng.random((3, 3)), rng.random((3, 3))
            (q if nan_in == "q" else p)[where] = np.nan
            q_out, residual = self._residual(monkeypatch, q, p)
            assert np.isnan(residual) and np.isnan(np.max(np.abs(q_out - p))), nan_in

    def test_nan_residual_is_nonconvergence(self, rng):
        cov, support = random_assignment(rng, 6, 2), scalar_support(-0.5, 0.5)
        with pytest.raises(NonConvergence) as excinfo:
            solve_equilibrium(cov, support, [np.nan, 0.0, 0.0], [0.8], SolverConfig(max_iter=4))
        assert np.isnan(excinfo.value.residual) and excinfo.value.iterations == 4


class TestSolverMemory:
    def test_solve_holds_five_float64_matrices(self, rng):
        """At n = 300 the solve holds at most x'hom, p, the index, q and one
        difference at a time: five float64 n x n arrays (40 n^2 bytes), within
        44 n^2 bytes; the labels made before it are not counted.  The
        absolute value of the difference, and the previous step's index held
        into the next step, would take it to 56 n^2."""
        n = 300
        cov = random_assignment(rng, n, 2)
        support, theta = scalar_support(-0.5, 0.5), default_theta()
        solve = lambda: solve_equilibrium(cov, support, theta.externality, theta.homophily)
        solve()
        assert peak_bytes(solve) <= 44 * n * n


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


class TestLatentDraw:
    """The latent network is one uniform per ordered pair against the solver's
    link probabilities: the draw equals the pair-by-pair oracle bit for bit,
    and each pair's link share over many seeds matches Phi of its utility index,
    written off the model's utility, with no self-link ever drawn."""

    @pytest.mark.parametrize("n", [2, 5, 200])
    def test_draw_equals_the_pairwise_oracle(self, rng, n):
        support = scalar_support(-0.5, 0.5)
        theta = default_theta()
        eq = solve_equilibrium(random_assignment(rng, n, 2), support, theta.externality, theta.homophily)
        seeds = [0, 1, 2**32 - 1, *np.random.SeedSequence((3, 1, 0)).spawn(3)]
        for seed in seeds:
            assert np.array_equal(draw_network(eq.link_probs, seed).adj, reference_draw(eq.link_probs, seed).adj)

    def test_link_shares_match_phi_of_the_index(self, rng):
        n, reps = 5, 2000
        support = scalar_support(-1.0, 1.0)
        cov = random_assignment(rng, n, 2)
        ext, hom = [0.5, -0.5, 0.25], [1.5]
        eq = solve_equilibrium(cov, support, ext, hom)
        stats, x = brute_network_stats(eq.probs), pair_covariates(cov, support)
        off = ~np.eye(n, dtype=bool)
        phi = np.zeros((n, n))
        for i, j in zip(*np.nonzero(off)):
            phi[i, j] = 0.5 * math.erfc(-utility_index(stats[i, j], x[i, j], ext, hom) / math.sqrt(2.0))
        assert 0.05 < phi[off].min() and phi[off].max() < 0.99  # a spread of link probabilities
        total = np.zeros((n, n), dtype=np.int64)
        for seed in range(reps):
            total += draw_network(eq.link_probs, seed).adj
        assert np.all(np.diagonal(total) == 0)
        share = total / reps
        assert np.all(np.abs(share - phi)[off] <= 4.5 * np.sqrt(phi * (1 - phi) / reps)[off])


class TestSolveThenDraw:
    """Small designs with bounded random parameters: the solver either returns a
    valid point whose link probabilities draw a valid network, or raises NonConvergence."""

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
            eq = solve_equilibrium(cov, support, ext, [hom], cfg)
        except NonConvergence:
            return
        assert isinstance(eq, BeliefMatrix)
        assert np.all(np.isfinite(eq.probs))
        assert np.all((eq.probs >= 0) & (eq.probs <= 1))
        assert eq.residual <= cfg.tol
        assert eq.residual == equilibrium_residual(eq, cov, support, ext, [hom])
        xhom, ext_arr = pair_covariates(cov, support) @ np.asarray([hom], float), np.asarray(ext, float)
        assert np.array_equal(eq.link_probs, _step(eq.probs, xhom, ext_arr)[1])
        assert np.all(np.diagonal(eq.link_probs) == 0)
        seed = data.draw(st.integers(0, 2**32 - 1))
        net = draw_network(eq.link_probs, seed)
        assert set(np.unique(net.adj)) <= {0, 1} and np.all(np.diagonal(net.adj) == 0)
        public = simulate_true_network(eq, cov, support, ext, [hom], seed=seed)
        assert np.array_equal(public.adj, net.adj)
