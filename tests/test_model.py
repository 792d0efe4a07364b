"""Core types, the utility index, and the link decision rule."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from misnet import (
    CovariateSupport,
    Dataset,
    InvalidRates,
    Network,
    PairCovariates,
    Theta,
    ThetaGrid,
    confidence_set,
    solve_equilibrium,
)
from misnet.equilibrium import BeliefMatrix, _index
from misnet.semiparametric import CellSummary

from conftest import default_theta, random_dataset, scalar_support, singleton_grid


def _dataset():
    return random_dataset(np.random.default_rng(3), 6)


# a call the library refuses with a ValueError, and a part of its message
_INVALID = {
    "support empty": (lambda: CovariateSupport(np.empty((0, 1))), "non-empty (J, d) array"),
    "support not finite": (lambda: CovariateSupport([[0.0], [np.inf]]), "must be finite"),
    "beliefs not square": (lambda: BeliefMatrix(np.zeros((2, 3))), "square (n, n) array"),
    "beliefs above 1": (lambda: BeliefMatrix([[0, 1.5], [0, 0]]), "must lie in [0, 1]"),
    "beliefs nan": (lambda: BeliefMatrix([[0, np.nan], [0, 0]]), "must lie in [0, 1]"),
    "beliefs diagonal": (lambda: BeliefMatrix([[0.5, 0], [0, 0]]), "diagonal beliefs must be zero"),
    "theta externality size": (lambda: Theta([0, 0], [0], 0, 0), "exactly 3 components"),
    "theta no homophily": (lambda: Theta([0, 0, 0], [], 0, 0), "at least one component"),
    "theta not finite": (lambda: Theta([0, 0, np.nan], [0], 0, 0), "parameters must be finite"),
    "network not square": (lambda: Network(np.zeros((2, 3))), "square (n, n) array"),
    "assignment not square": (lambda: PairCovariates(np.zeros((2, 3), dtype=int)), "square (n, n) array"),
    "assignment not integer": (lambda: PairCovariates(np.zeros((2, 2))), "integer cell indices"),
    "assignment empty": (lambda: PairCovariates(np.zeros((0, 0), dtype=int)), "at least one agent"),
    "assignment negative": (lambda: PairCovariates([[0, -1], [0, 0]]), "must be non-negative"),
    "assignment outside support": (
        lambda: solve_equilibrium(PairCovariates([[0, 2], [0, 0]]), scalar_support(-0.5, 0.5), [0, 0, 0], [0.0]),
        "outside the support",
    ),
    "cell summary lengths": (lambda: CellSummary([0.5, 0.5], [0.0]), "equal length"),
    "cell summary mean": (lambda: CellSummary([0.5, 1.5], [0.0, 1.0]), "must lie in [0, 1]"),
    "grid axes": (lambda: ThetaGrid(([0.0],) * 5), "3 externality, at least 1 homophily"),
    "grid axis empty": (lambda: ThetaGrid(([0.0],) * 5 + ([],)), "non-empty and finite"),
    "grid rate negative": (lambda: ThetaGrid(([0.0],) * 4 + ([-0.1], [0.0])), "non-negative"),
    "confidence alpha 0": (lambda: confidence_set(_dataset(), singleton_grid(default_theta()), 0.0), "alpha"),
    "confidence alpha 1": (lambda: confidence_set(_dataset(), singleton_grid(default_theta()), 1.0), "alpha"),
    "dataset sizes": (
        lambda: Dataset(_dataset().network, PairCovariates(np.zeros((5, 5), dtype=int)), scalar_support(0.0)),
        "sizes differ",
    ),
    "dataset cell outside support": (
        lambda: Dataset(_dataset().network, _dataset().covariates, scalar_support(0.0)),
        "outside the support",
    ),
}
from oracles import decide_link, pair_covariates, total_utility, utility_index

# an invalid Theta: externality, homophily, fp and fn, the exception and its whole message
_THETA_INVALID = {
    "externality size": (([0, 0], [0], 0.0, 0.0), ValueError, "externality must have exactly 3 components"),
    "no homophily": (([0, 0, 0], [], 0.0, 0.0), ValueError, "homophily must have at least one component"),
    "externality nan": (([0, 0, np.nan], [0], 0.0, 0.0), ValueError, "parameters must be finite"),
    "homophily inf": (([0, 0, 0], [0, -np.inf], 0.0, 0.0), ValueError, "parameters must be finite"),
    "fp nan": (([0, 0, 0], [0], np.nan, 0.0), InvalidRates, "rates must be finite"),
    "fn inf": (([0, 0, 0], [0], 0.0, np.inf), InvalidRates, "rates must be finite"),
    "fp negative": (([0, 0, 0], [0], -0.1, 0.0), InvalidRates, "rates must be non-negative, got (-0.1, 0.0)"),
    "rates sum to one": (
        ([0, 0, 0], [0], 0.6, 0.4), InvalidRates, "rates must satisfy fp + fn < 1, got 0.6 + 0.4 = 1.0",
    ),
}


def _read_only_view(values, dtype=float):
    """``values`` as a read-only view into a larger array, as a grid row's slices are."""
    base = np.array([0.0, *values, 0.0], dtype=dtype)
    base.setflags(write=False)
    return base[1:-1]


# how a caller may pass Theta's vectors and rates
_THETA_FORMS = {
    "list": (list, float),
    "writeable array": (lambda v: np.array(v, dtype=float), lambda r: np.array(r)),
    "read-only view": (_read_only_view, lambda r: _read_only_view([r])[0]),
    "numpy scalar": (lambda v: [np.float64(x) for x in v], np.float64),
}


class TestTypes:
    def test_support_requires_lexicographic_order(self):
        with pytest.raises(ValueError):
            CovariateSupport([[0.5], [-0.5]])
        with pytest.raises(ValueError):
            CovariateSupport([[0.5], [0.5]])
        sup = CovariateSupport([[0.0, 1.0], [1.0, -1.0]])
        assert sup.n_points == 2 and sup.dimension == 2

    def test_network_rejects_bad_matrices(self):
        for entry in [2, -1, 0.5, np.nan]:
            with pytest.raises(ValueError):
                Network(np.array([[0, entry], [0, 0]]))
        with pytest.raises(ValueError):
            Network(np.array([[1, 0], [0, 0]]))  # non-zero diagonal
        accepted = Network(np.array([[False, True], [True, False]]))
        assert accepted.adj.dtype == np.int8 and accepted.adj.tolist() == [[0, 1], [1, 0]]

    def test_theta_rejects_invalid_rates(self):
        with pytest.raises(InvalidRates):
            Theta(externality=[0, 0, 0], homophily=[0], fp_rate=0.6, fn_rate=0.4)
        with pytest.raises(InvalidRates):
            Theta(externality=[0, 0, 0], homophily=[0], fp_rate=-0.1, fn_rate=0.0)

    @pytest.mark.parametrize("case", list(_INVALID))
    def test_constructors_reject_invalid_values(self, case):
        call, message = _INVALID[case]
        with pytest.raises(ValueError) as excinfo:
            call()
        assert message in str(excinfo.value)

    @pytest.mark.parametrize("form", list(_THETA_FORMS))
    @pytest.mark.parametrize("case", list(_THETA_INVALID))
    def test_theta_checks_keep_type_and_message(self, case, form):
        (ext, hom, fp, fn), error, message = _THETA_INVALID[case]
        vector, rate = _THETA_FORMS[form]
        with pytest.raises(error) as excinfo:
            Theta(vector(ext), vector(hom), rate(fp), rate(fn))
        assert type(excinfo.value) is error and str(excinfo.value) == message

    @pytest.mark.parametrize("form", list(_THETA_FORMS))
    def test_theta_accepts_every_form_alike(self, form):
        vector, rate = _THETA_FORMS[form]
        theta = Theta(vector([0.5, 0.25, -0.0]), vector([0.8, 1e308]), rate(0.05), rate(0.1))
        assert theta == Theta([0.5, 0.25, -0.0], [0.8, 1e308], 0.05, 0.1)
        assert type(theta.fp_rate) is float and type(theta.fn_rate) is float
        assert np.signbit(theta.externality[2])
        assert theta.externality.dtype == theta.homophily.dtype == np.float64

    def test_theta_does_not_follow_the_callers_array(self):
        """A Theta holds its own read-only copies: writing to the arrays it was
        built from, a grid-like row or a (3, 1) column, leaves it unchanged."""
        rows = np.array([[0.5, 0.25, 0.25, 0.8, 0.05, 0.1]])
        column = np.array([[0.5], [0.25], [0.25]])
        from_row = Theta(rows[0, :3], rows[0, 3:-2], rows[0, -2], rows[0, -1])
        from_column = Theta(column, rows[0, 3:-2], 0.05, 0.1)
        rows[:] = 7.0
        column[:] = 7.0
        for theta in (from_row, from_column):
            assert theta.externality.tolist() == [0.5, 0.25, 0.25]
            assert theta.homophily.tolist() == [0.8]
            assert (theta.fp_rate, theta.fn_rate) == (0.05, 0.1)
            for values in (theta.externality, theta.homophily):
                with pytest.raises(ValueError):
                    values[0] = 1.0

    @pytest.mark.parametrize(
        "largest, dtype",
        [(0, np.uint8), (1, np.uint8), (255, np.uint8),
         (256, np.uint16), (65535, np.uint16), (65536, np.uint32)],
    )
    @pytest.mark.parametrize("given", [np.int64, np.uint64, np.int32, list])
    def test_labels_take_the_smallest_unsigned_dtype(self, largest, dtype, given):
        """Labels are held in the smallest unsigned dtype of their largest
        value, read-only and equal to the given ones, whatever their type."""
        labels = np.array([[0, largest, 1], [largest, 0, 0], [0, 1, 0]]).clip(max=largest)
        cov = PairCovariates(labels.tolist() if given is list else labels.astype(given))
        assert cov.assignment.dtype == dtype
        assert np.array_equal(cov.assignment, labels) and not cov.assignment.flags.writeable

    def test_labels_are_a_copy(self):
        labels = np.zeros((3, 3), dtype=np.uint8)
        cov = PairCovariates(labels)
        labels[0, 1] = 1
        assert cov.assignment[0, 1] == 0

    def test_immutability(self):
        net = Network(np.zeros((3, 3), dtype=int))
        with pytest.raises(ValueError):
            net.adj[0, 1] = 1


class TestUtilityIndex:
    def test_zero_stats_and_covariate(self):
        assert utility_index([0, 0, 0], [0.0], [1, 2, 3], [4.0]) == 0.0

    def test_zero_parameters(self):
        assert utility_index([0.3, 0.9, 0.1], [2.0], [0, 0, 0], [0.0]) == 0.0

    def test_dot_product_value(self):
        # (0.5 + 0.2 + 0.1) + 1 * 2 = 2.8
        value = utility_index([0.5, 0.2, 0.1], [1.0], [1, 1, 1], [2.0])
        assert value == pytest.approx(2.8, abs=1e-15)

    @given(
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        st.floats(-5, 5),
        st.floats(-5, 5),
        st.floats(-3, 3),
    )
    def test_linearity(self, g1, g2, x1, x2, a):
        ext = np.array([0.7, -0.4, 1.1])
        hom = np.array([0.9])
        g1, g2 = np.array(g1), np.array(g2)
        lhs = utility_index(a * g1 + g2, [a * x1 + x2], ext, hom)
        rhs = a * utility_index(g1, [x1], ext, hom) + utility_index(g2, [x2], ext, hom)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestDecideLink:
    def test_tie_forms_link(self):
        assert decide_link(0.0, 0.0) == 1

    def test_clear_cases(self):
        assert decide_link(2.0, -1.9) == 1
        assert decide_link(-0.5, 0.2) == 0

    @given(
        st.floats(-10, 10), st.floats(-10, 10), st.floats(0, 5), st.floats(0, 5)
    )
    def test_monotone_in_both_arguments(self, index, shock, d1, d2):
        assert decide_link(index + d1, shock + d2) >= decide_link(index, shock)


class TestTotalUtility:
    def setup_method(self):
        self.support = scalar_support(-0.5, 0.5)
        self.theta = default_theta()

    def test_empty_choice_is_zero(self, rng):
        n = 5
        net = Network((rng.random((n, n)) < 0.5).astype(int) * (1 - np.eye(n, dtype=int)))
        cov = PairCovariates(rng.integers(0, 2, (n, n)))
        value = total_utility(np.zeros(n), 0, net, cov, self.support, rng.standard_normal(n), self.theta)
        assert value == 0.0

    def test_two_agent_reciprocity(self):
        net = Network(np.array([[0, 0], [1, 0]]))
        cov = PairCovariates(np.zeros((2, 2), dtype=int))
        support = scalar_support(0.0)
        theta = Theta(externality=[1, 0, 0], homophily=[0.0], fp_rate=0.0, fn_rate=0.0)
        value = total_utility([0, 1], 0, net, cov, support, np.zeros(2), theta)
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_zero_parameters_and_shocks(self, rng):
        n = 4
        net = Network((rng.random((n, n)) < 0.6).astype(int) * (1 - np.eye(n, dtype=int)))
        cov = PairCovariates(rng.integers(0, 2, (n, n)))
        theta = Theta(externality=[0, 0, 0], homophily=[0.0], fp_rate=0.0, fn_rate=0.0)
        for _ in range(5):
            choice = rng.integers(0, 2, n)
            choice[2] = 0
            value = total_utility(choice, 2, net, cov, self.support, np.zeros(n), theta)
            assert value == 0.0

    def test_self_link_rejected(self, rng):
        net = Network(np.zeros((3, 3), dtype=int))
        cov = PairCovariates(np.zeros((3, 3), dtype=int))
        with pytest.raises(ValueError):
            total_utility([1, 0, 0], 0, net, cov, scalar_support(0.0), np.zeros(3), self.theta)


def test_componentwise_rule_maximizes_expected_utility(rng):
    """Enumerate all choice vectors and all rival configurations for n <= 4.

    The expected utility of a choice vector against independent Bernoulli
    beliefs is computed by full enumeration of the rivals' links weighted by
    their probabilities; the componentwise threshold rule must attain the
    maximum.
    """
    n = 4
    agent = 1
    support = scalar_support(-0.5, 0.5)
    theta = default_theta()
    for trial in range(3):
        probs = rng.random((n, n))
        np.fill_diagonal(probs, 0.0)
        beliefs = BeliefMatrix(probs)
        cov = PairCovariates(rng.integers(0, 2, (n, n)))
        shocks = rng.standard_normal(n)
        shocks[agent] = 0.0

        rivals = [k for k in range(n) if k != agent]
        slots = [(k, j) for k in rivals for j in range(n) if j != k]
        expected = {}
        for bits in itertools.product((0, 1), repeat=len(slots)):
            adj = np.zeros((n, n), dtype=int)
            weight = 1.0
            for (k, j), bit in zip(slots, bits):
                adj[k, j] = bit
                p = probs[k, j]
                weight *= p if bit else (1.0 - p)
            if weight == 0.0:
                continue
            net = Network(adj)
            for mask in itertools.product((0, 1), repeat=n - 1):
                choice = np.zeros(n, dtype=int)
                choice[rivals] = mask
                key = tuple(choice)
                value = total_utility(choice, agent, net, cov, support, shocks, theta)
                expected[key] = expected.get(key, 0.0) + weight * value

        best = max(expected.values())
        xhom = pair_covariates(cov, support) @ theta.homophily
        index = _index(beliefs.probs, xhom, theta.externality)[agent]
        rule = np.zeros(n, dtype=int)
        for j in range(n):
            if j == agent:
                continue
            rule[j] = decide_link(index[j], shocks[j])
        assert expected[tuple(rule)] == pytest.approx(best, abs=1e-12)
