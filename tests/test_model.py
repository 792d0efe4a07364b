"""Core types, the utility index, and the link decision rule."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from misnet import CovariateSupport, InvalidRates, Network, PairCovariates, Theta
from misnet.equilibrium import BeliefMatrix, _index

from conftest import default_theta, scalar_support
from oracles import decide_link, total_utility, utility_index


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
        xhom = cov.values(support) @ theta.homophily
        index = _index(beliefs.probs, xhom, theta.externality)[agent]
        rule = np.zeros(n, dtype=int)
        for j in range(n):
            if j == agent:
                continue
            rule[j] = decide_link(index[j], shocks[j])
        assert expected[tuple(rule)] == pytest.approx(best, abs=1e-12)
