"""Cell estimators, moment vector, influence terms, and the variance matrix.

Every estimator is checked against the brute-force loop implementations in
``oracles.py``; the quadratic-form statistic against explicit inversion.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from misnet import (
    CovariateSupport,
    DegenerateVariance,
    Dataset,
    EmptyCell,
    MisnetError,
    MomentEvaluator,
    Network,
    PairCovariates,
    Theta,
    InvalidRates,
    ThetaGrid,
    cell_estimates,
    population_correction,
)
from misnet import equilibrium, estimation
from misnet.estimation import (
    CellEstimates,
    _corrected_index,
    moment,
    moment_variance,
    quadratic_form,
    stat_influence_all,
)
from misnet.normal import norm_cdf

from conftest import (
    circulant_covariates,
    default_theta,
    peak_bytes,
    random_assignment,
    random_dataset,
    random_network,
    scalar_support,
)
from oracles import (
    brute_cell_estimates,
    brute_moment,
    brute_stat_influence,
    brute_variance,
    offdiag_mask,
    pair_covariates,
    pair_stats,
    reference_agent_table,
    reference_cell_estimates,
)


def complete_dataset(n):
    adj = np.ones((n, n), dtype=int)
    np.fill_diagonal(adj, 0)
    return Dataset(
        network=Network(adj),
        covariates=PairCovariates(np.zeros((n, n), dtype=int)),
        support=scalar_support(0.0),
    )


def empty_dataset(n):
    return Dataset(
        network=Network(np.zeros((n, n), dtype=int)),
        covariates=PairCovariates(np.zeros((n, n), dtype=int)),
        support=scalar_support(0.0),
    )


class TestCellEstimates:
    def test_complete_network_single_cell(self):
        n = 6
        cells = cell_estimates(complete_dataset(n))
        assert cells.freq == pytest.approx([1.0])
        expected = [1.0, (n - 1) / n, (n - 2) / n, 2 * (n - 1) / n]
        assert cells.stats[0] == pytest.approx(expected, abs=1e-15)

    def test_empty_network_single_cell(self):
        cells = cell_estimates(empty_dataset(5))
        assert cells.freq == pytest.approx([1.0])
        assert np.all(cells.stats == 0.0)

    def test_empty_cell_raises(self, rng):
        n = 4
        data = Dataset(
            network=random_network(rng, n),
            covariates=PairCovariates(np.zeros((n, n), dtype=int)),
            support=scalar_support(-0.5, 0.5),  # cell 1 never used
        )
        with pytest.raises(EmptyCell) as excinfo:
            cell_estimates(data)
        assert excinfo.value.cell == 1

    def test_matches_brute_force(self, rng):
        for _ in range(10):
            data = random_dataset(rng, n=int(rng.integers(4, 9)), n_cells=2)
            cells = cell_estimates(data)
            freq, stats, counts = brute_cell_estimates(
                data.network.adj, data.covariates.assignment, data.n_cells
            )
            assert np.allclose(cells.freq, freq, atol=1e-15)
            assert np.allclose(cells.stats, stats, atol=1e-13)
            assert np.allclose(cells.counts, counts, atol=0)

    def test_stats_within_pairwise_hull(self, rng):
        """Cell averages stay inside the componentwise range of the per-pair
        statistic vectors of that cell."""
        data = random_dataset(rng, n=10, n_cells=2)
        cells = cell_estimates(data)
        pair = pair_stats(data.network.adj)
        off = offdiag_mask(data.n)
        labels = data.covariates.assignment
        for j in range(2):
            mask = off & (labels == j)
            lo = pair[mask].min(axis=0)
            hi = pair[mask].max(axis=0)
            assert np.all(cells.stats[j] >= lo - 1e-14)
            assert np.all(cells.stats[j] <= hi + 1e-14)

    def test_link_sums_match_brute_force(self, rng):
        for n, n_cells in [(5, 2), (9, 3), (23, 4), (4, 1)]:
            data = random_dataset(rng, n=n, n_cells=n_cells)
            adj, labels = data.network.adj, data.covariates.assignment
            expected = np.zeros(n_cells)
            per_agent = np.zeros((n_cells, n))
            for i in range(n):
                for j in range(n):
                    if i != j:
                        expected[labels[i, j]] += adj[i, j]
                        per_agent[labels[i, j], i] += adj[i, j]
            cells = cell_estimates(data)
            assert np.array_equal(cells.link_sums, expected)
            table = estimation._agent_table(data, cells.counts)
            assert np.array_equal(table[:, :, 0].T, per_agent)


def labelled_dataset(adj, labels, n_cells):
    return Dataset(
        network=Network(adj),
        covariates=PairCovariates(labels),
        support=scalar_support(*np.linspace(-0.5, 0.5, n_cells)),
    )


def assert_bit_identical(data):
    """The table and every ``CellEstimates`` field equal the float64 reference
    bit for bit, or both raise ``EmptyCell`` for the same cell."""
    try:
        expected = reference_cell_estimates(data)
    except EmptyCell as err:
        with pytest.raises(EmptyCell) as excinfo:
            cell_estimates(data)
        assert excinfo.value.cell == err.cell
        return
    counts = estimation._cell_counts(data)
    assert np.array_equal(counts, expected.counts)
    table = estimation._agent_table(data, counts)
    assert np.array_equal(table, reference_agent_table(data, counts))
    cells = cell_estimates(data)
    for field in dataclasses.fields(CellEstimates):
        assert np.array_equal(getattr(cells, field.name), getattr(expected, field.name)), field.name


class TestAgentTableBitExact:
    """The float32 table with the last cell from the agent totals reproduces the
    float64 table of every cell's own mask exactly, not only within rounding."""

    @pytest.mark.parametrize("n_cells", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 5, 23, 200])
    def test_random_designs(self, n, n_cells):
        rng = np.random.default_rng(1000 * n + n_cells)
        for density in (0.1, 0.5):
            adj = (rng.random((n, n)) < density).astype(np.int8)
            np.fill_diagonal(adj, 0)
            assert_bit_identical(labelled_dataset(adj, rng.integers(0, n_cells, (n, n)), n_cells))

    @pytest.mark.parametrize("n_cells", [2, 3])
    def test_across_row_blocks(self, rng, n_cells):
        """Three blocks of ``ROW_BLOCK`` rows, the last a short one: the
        reverse-pair column read off each block's product, at its offset."""
        n = 2 * estimation.ROW_BLOCK + 37
        adj = random_network(rng, n, 0.2).adj
        assert_bit_identical(labelled_dataset(adj, rng.integers(0, n_cells, (n, n)), n_cells))

    def test_circulant_design(self, rng):
        """The fixed two-cell design of the ``mc_fixed`` benchmark."""
        n = 200
        for density in (0.02, 0.1, 0.5):
            adj = random_network(rng, n, density).adj
            assert_bit_identical(labelled_dataset(adj, circulant_covariates(n).assignment, 2))

    @pytest.mark.parametrize("n_cells", [1, 2, 3])
    def test_empty_and_complete_networks(self, n_cells):
        """Zero totals, and totals at their largest: with cell 0 holding all but
        a few pairs of the complete network, the entries of ``g @ cell`` reach
        n - 1."""
        n = 23
        labels = np.zeros((n, n), dtype=int)
        labels[0, 1:n_cells] = np.arange(1, n_cells)
        complete = np.ones((n, n), dtype=np.int8)
        np.fill_diagonal(complete, 0)
        for adj in (np.zeros((n, n), dtype=np.int8), complete):
            assert_bit_identical(labelled_dataset(adj, labels, n_cells))
        cell = (labels == 0).astype(float)
        np.fill_diagonal(cell, 0.0)
        assert (complete @ cell).max() == n - 1

    def test_single_cell_from_totals(self, rng):
        """At J = 1 there is no mask: the whole table is the agent totals, and
        the estimates hold no n x n array (a float32 mask would take 4 n^2 bytes)."""
        n = 23
        data = labelled_dataset(random_network(rng, n, 0.3).adj, np.zeros((n, n), dtype=int), 1)
        assert estimation._cell_counts(data).tolist() == [n * (n - 1)]
        assert_bit_identical(data)
        n = 600
        data = labelled_dataset(random_network(rng, n, 0.3).adj, np.zeros((n, n), dtype=int), 1)
        assert peak_bytes(lambda: cell_estimates(data)) < n * n

    def test_diagonal_labels_are_ignored(self, rng):
        """A label on the diagonal counts for no cell: the last cell's count is
        n(n - 1) minus the others', not n^2 minus them."""
        n, n_cells = 23, 3
        adj = random_network(rng, n, 0.3).adj
        for diagonal in range(n_cells):
            labels = rng.integers(0, n_cells, (n, n))
            np.fill_diagonal(labels, diagonal)
            assert_bit_identical(labelled_dataset(adj, labels, n_cells))

    @pytest.mark.parametrize("empty", [0, 1, 2])
    def test_label_only_on_the_diagonal_is_an_empty_cell(self, rng, empty):
        """A cell index that appears only on the diagonal names an empty cell,
        the last one included."""
        n, n_cells = 23, 3
        labels = rng.choice([j for j in range(n_cells) if j != empty], (n, n))
        np.fill_diagonal(labels, empty)
        data = labelled_dataset(random_network(rng, n, 0.3).adj, labels, n_cells)
        assert_bit_identical(data)
        with pytest.raises(EmptyCell) as excinfo:
            cell_estimates(data)
        assert excinfo.value.cell == empty

    def test_empty_last_cell_raises_before_the_table(self, rng, monkeypatch):
        n = 23
        data = labelled_dataset(random_network(rng, n, 0.3).adj, rng.integers(0, 2, (n, n)), 3)

        def no_table(*args):
            raise AssertionError("the table was built for a design with an empty cell")

        monkeypatch.setattr(estimation, "_agent_table", no_table)
        with pytest.raises(EmptyCell) as excinfo:
            cell_estimates(data)
        assert excinfo.value.cell == 2


def labels_held_as(covariates: PairCovariates, dtype) -> PairCovariates:
    """``covariates`` with its labels held in ``dtype``, past the constructor's narrowing."""
    held = PairCovariates(covariates.assignment)
    labels = covariates.assignment.astype(dtype)
    labels.setflags(write=False)
    object.__setattr__(held, "assignment", labels)
    return held


class TestNarrowLabels:
    """The labels as the constructor holds them (uint8 up to 256 cells, uint16
    at 257) and the same labels held as int64 give the per-pair oracle's x'hom
    and the float64 oracle's counts and cell estimates, bit for bit."""

    @pytest.mark.parametrize(
        "J, narrow", [(1, np.uint8), (2, np.uint8), (3, np.uint8), (4, np.uint8), (257, np.uint16)]
    )
    def test_either_width_matches_the_oracles(self, J, narrow):
        rng = np.random.default_rng(J)
        n = 40 if J == 257 else 23
        points = rng.standard_normal((J, 2))
        support = CovariateSupport(points[np.lexsort(points.T[::-1])])
        hom = rng.standard_normal(2)
        covariates = random_assignment(rng, n, J)
        assert covariates.assignment.dtype == narrow
        adj = random_network(rng, n, 0.3).adj
        expected = reference_cell_estimates(Dataset(Network(adj), covariates, support))
        for dtype in (narrow, np.int64):
            held = labels_held_as(covariates, dtype)
            assert held.assignment.dtype == dtype
            xhom = equilibrium._arrays(held, support, np.zeros(3), hom)[0]
            assert np.array_equal(xhom, pair_covariates(held, support) @ hom), dtype
            data = Dataset(Network(adj), held, support)
            assert np.array_equal(estimation._cell_counts(data), expected.counts), dtype
            assert_bit_identical(data)


class TestTableMemory:
    def test_cell_estimates_peak(self, rng):
        """At n = 600 and two cells the table holds one float32 mask (4 n^2
        bytes) and float32 blocks of ``ROW_BLOCK`` rows of the links and of
        ``g @ cell`` (3.4 n^2 at 256 rows), within 9 n^2 bytes.  A bool mask
        beside the float32 one, or a float32 copy of the whole adjacency, would
        not fit."""
        n = 600
        data = random_dataset(rng, n)
        cell_estimates(data)
        assert peak_bytes(lambda: cell_estimates(data)) <= 9 * n * n


class TestMoment:
    def test_zero_parameters_reduce_to_half_centering(self, rng):
        data = random_dataset(rng, n=8, n_cells=2)
        theta = Theta(externality=[0, 0, 0], homophily=[0.0], fp_rate=0.0, fn_rate=0.0)
        m = moment(data, theta)
        g = data.network.adj
        labels = data.covariates.assignment
        off = ~np.eye(data.n, dtype=bool)
        for j in range(2):
            mask = off & (labels == j)
            expected = np.sum(g[mask] - 0.5) / data.n_pairs
            assert m[j] == pytest.approx(expected, abs=1e-14)

    def test_cell_moments_sum_to_pooled(self, rng):
        """Per row of theta, the index and lam of the batch give the pooled
        moment that the cell moments at that point sum to."""
        data = random_dataset(rng, n=9, n_cells=3)
        grid = ThetaGrid(([0.5, -0.3], [0.25], [0.25], [0.8, -0.4], [0.0, 0.05, 0.2], [0.1, 0.3]))
        cells = cell_estimates(data)
        u, lam, _ = _corrected_index(cells, data.support, grid.points)
        assert u.shape == (len(grid), 3) and lam.shape == (len(grid),)
        off = ~np.eye(data.n, dtype=bool)
        labels = data.covariates.assignment
        for theta, u_row, lam_row in zip(grid, u, lam):
            assert lam_row == 1 - theta.fp_rate - theta.fn_rate
            fitted_per_pair = theta.fp_rate + lam_row * norm_cdf(u_row)[labels]
            pooled = np.sum(data.network.adj[off] - fitted_per_pair[off]) / data.n_pairs
            assert moment(data, theta, cells).sum() == pytest.approx(pooled, abs=1e-14)

    def test_bounded_by_cell_frequency(self, rng):
        for _ in range(5):
            data = random_dataset(rng, n=7, n_cells=2)
            theta = default_theta()
            cells = cell_estimates(data)
            m = moment(data, theta, cells)
            assert np.all(np.abs(m) <= cells.freq + 1e-15)

    def test_matches_brute_force(self, rng):
        for _ in range(10):
            data = random_dataset(rng, n=int(rng.integers(4, 9)), n_cells=2)
            theta = default_theta()
            cells = cell_estimates(data)
            expected = brute_moment(
                data.network.adj,
                data.covariates.assignment,
                data.support.points,
                theta,
                cells.stats,
                2,
            )
            assert np.allclose(moment(data, theta, cells), expected, atol=1e-14)

    def test_near_boundary_rates_limit(self, rng):
        """As fp + fn approaches 1 the probit weight vanishes and the moment
        tends to the centered link share."""
        data = random_dataset(rng, n=8, n_cells=2)
        fp = 0.4
        theta = Theta(
            externality=[0.5, 0.25, 0.25], homophily=[0.8],
            fp_rate=fp, fn_rate=1.0 - fp - 1e-9,
        )
        cells = cell_estimates(data)
        m = moment(data, theta, cells)
        g = data.network.adj
        labels = data.covariates.assignment
        off = ~np.eye(data.n, dtype=bool)
        for j in range(2):
            mask = off & (labels == j)
            limit = np.sum(g[mask] - fp) / data.n_pairs
            assert m[j] == pytest.approx(limit, abs=1e-8)

    def test_two_dimensional_covariates_match_oracle(self, rng):
        support = CovariateSupport([[0.0, 1.0], [1.0, -1.0]])
        n = 7
        data = Dataset(
            network=random_network(rng, n),
            covariates=PairCovariates(rng.integers(0, 2, (n, n))),
            support=support,
        )
        theta = Theta(
            externality=[0.5, 0.25, 0.25], homophily=[0.4, -0.3],
            fp_rate=0.05, fn_rate=0.1,
        )
        cells = cell_estimates(data)
        expected = brute_moment(
            data.network.adj, data.covariates.assignment, support.points, theta,
            cells.stats, 2,
        )
        assert np.allclose(moment(data, theta, cells), expected, atol=1e-14)
        S_o = brute_variance(
            data.network.adj, data.covariates.assignment, support.points, theta,
            cells.stats, 2,
        )
        assert np.allclose(moment_variance(data, theta, cells), S_o, atol=1e-12)


class TestStatInfluence:
    def test_empty_network_is_zero(self):
        data = empty_dataset(5)
        cells = cell_estimates(data)
        assert np.all(stat_influence_all(data, cells) == 0.0)

    def test_complete_network_combinatorics(self):
        n = 6
        data = complete_dataset(n)
        table = stat_influence_all(data, cell_estimates(data))
        for agent in range(3):
            value = table[agent, 0]
            expected = brute_stat_influence(data.network.adj, data.covariates.assignment, agent, 0)
            assert np.allclose(value, expected, atol=1e-13)

    def test_matches_brute_force(self, rng):
        for _ in range(5):
            n = int(rng.integers(4, 9))
            data = random_dataset(rng, n=n, n_cells=2)
            table = stat_influence_all(data, cell_estimates(data))
            for agent in range(n):
                for cell in range(2):
                    got = table[agent, cell]
                    want = brute_stat_influence(
                        data.network.adj, data.covariates.assignment, agent, cell
                    )
                    assert np.allclose(got, want, atol=1e-13)

    def test_blocked_size_matches_brute_force(self, rng):
        """Three cells at a size where the matrix products run blocked."""
        data = random_dataset(rng, n=41, n_cells=3, density=0.3)
        cells = cell_estimates(data)
        table = stat_influence_all(data, cells)
        adj, labels = data.network.adj, data.covariates.assignment
        for agent in range(data.n):
            for cell in range(3):
                want = brute_stat_influence(adj, labels, agent, cell)
                assert np.allclose(table[agent, cell], want, atol=1e-13)

    def test_agent_average_recovers_cell_stats(self, rng):
        """The cell statistics are the agent means of the influence terms; those
        means match the pair-loop estimator."""
        for n_cells in (2, 3, 1, 4):
            data = random_dataset(rng, n=9, n_cells=n_cells)
            cells = cell_estimates(data)
            table = stat_influence_all(data, cells)
            _, stats, _ = brute_cell_estimates(
                data.network.adj, data.covariates.assignment, n_cells
            )
            assert np.allclose(table.mean(axis=0), stats, atol=1e-13)

    def test_norm_bound(self, rng):
        for _ in range(5):
            data = random_dataset(rng, n=8, n_cells=2)
            cells = cell_estimates(data)
            bound = np.sqrt(7.0) / cells.freq.min()
            table = stat_influence_all(data, cells)
            norms = np.linalg.norm(table, axis=2)
            assert np.all(norms <= bound + 1e-12)

    def test_depends_only_on_own_row(self, rng):
        """With cell inputs held fixed, zeroing other agents' rows leaves an
        agent's statistic influences unchanged, so each row of the table that
        the variance is the covariance of depends on one agent's links."""
        data = random_dataset(rng, n=8, n_cells=2)
        cells = cell_estimates(data)
        agent = 3
        table = stat_influence_all(data, cells)
        adj = np.array(data.network.adj)
        for other in range(data.n):
            if other != agent:
                adj[other] = 0
        stripped = Dataset(
            network=Network(adj), covariates=data.covariates, support=data.support
        )
        assert np.array_equal(stat_influence_all(stripped, cells)[agent], table[agent])


class TestVariance:
    def test_empty_network_degenerate(self):
        data = empty_dataset(6)
        theta = Theta(externality=[0, 0, 0], homophily=[0.0], fp_rate=0.0, fn_rate=0.0)
        with pytest.raises(DegenerateVariance):
            moment_variance(data, theta)

    def test_matches_brute_force(self, rng):
        rates = [(fp, fn) for fp in (0.0, 0.05, 0.2) for fn in (0.0, 0.1)]
        for (fp, fn), n_cells, _ in itertools.product(rates, (2, 3), range(3)):
            data = random_dataset(rng, n=int(rng.integers(6, 10)), n_cells=n_cells)
            theta = Theta(externality=[0.5, 0.25, 0.25], homophily=[0.8], fp_rate=fp, fn_rate=fn)
            cells = cell_estimates(data)
            expected = brute_variance(
                data.network.adj,
                data.covariates.assignment,
                data.support.points,
                theta,
                cells.stats,
                n_cells,
            )
            try:
                got = moment_variance(data, theta, cells)
            except DegenerateVariance:
                assert np.linalg.eigvalsh(expected)[0] < 1e-10
                continue
            assert np.allclose(got, expected, atol=1e-12)

    def test_medium_network_brute_force(self, rng):
        data = random_dataset(rng, n=50, n_cells=2)
        theta = default_theta()
        cells = cell_estimates(data)
        got = moment_variance(data, theta, cells)
        want = brute_variance(
            data.network.adj, data.covariates.assignment, data.support.points, theta,
            cells.stats, 2,
        )
        assert np.allclose(got, want, atol=1e-12)
        assert np.allclose(got, got.T, atol=0)
        assert np.linalg.eigvalsh(got)[0] >= -1e-12

    def test_permutation_invariance(self, rng):
        data = random_dataset(rng, n=12, n_cells=2)
        theta = default_theta()
        S = moment_variance(data, theta)
        perm = rng.permutation(data.n)
        data_p = Dataset(
            network=Network(data.network.adj[np.ix_(perm, perm)]),
            covariates=PairCovariates(data.covariates.assignment[np.ix_(perm, perm)]),
            support=data.support,
        )
        S_p = moment_variance(data_p, theta)
        assert np.allclose(S, S_p, atol=1e-12)

    def test_trace_bound(self, rng):
        """Each agent's influence vector has norm at most ``bound``, so the
        across-agent covariance of those vectors has trace at most bound**2."""
        from misnet.normal import norm_pdf

        for _ in range(5):
            data = random_dataset(rng, n=10, n_cells=2)
            theta = default_theta()
            cells = cell_estimates(data)
            S = moment_variance(data, theta, cells)
            _, matrix = population_correction(theta.fp_rate, theta.fn_rate)
            lam = 1 - theta.fp_rate - theta.fn_rate
            slope_norm = np.linalg.norm(theta.externality @ matrix)
            bound = 1.0 + lam * norm_pdf(0.0) * slope_norm * np.sqrt(7.0) / cells.freq.min()
            assert np.trace(S) <= bound**2 + 1e-12


class TestStatistic:
    def test_quadratic_form_basics(self):
        S = np.eye(2)
        n = 16
        m = np.array([1.0 / np.sqrt(n), 0.0])
        assert quadratic_form(m, S, n) == pytest.approx(1.0, abs=1e-14)
        assert quadratic_form(np.zeros(2), S, n) == 0.0

    def test_quadratic_form_matches_explicit_inverse(self, rng):
        for _ in range(10):
            A = rng.standard_normal((3, 3))
            S = A @ A.T + 0.5 * np.eye(3)
            m = rng.standard_normal(3)
            expected = 100 * m @ np.linalg.inv(S) @ m
            assert quadratic_form(m, S, 100) == pytest.approx(expected, rel=1e-10)

    def test_ill_conditioned_rejected(self, rng):
        """``evaluate`` judges S: at zero externality c_j = (1, 0, 0, 0, 0), so
        a covariance with C[0,0,0,0] = 1e4 and C[1,0,1,0] = 1e-9 gives
        S = diag(1e4, 1e-9), above the eigenvalue floor but with condition
        number 1e13; a non-finite S is rejected as well."""
        ev = MomentEvaluator(random_dataset(rng, n=12, n_cells=2))
        theta = Theta(externality=[0, 0, 0], homophily=[0.8], fp_rate=0.05, fn_rate=0.1)
        cov = np.zeros((2, 5, 2, 5))
        cov[0, 0, 0, 0], cov[1, 0, 1, 0] = 1e4, 1e-9
        ev.cells = dataclasses.replace(ev.cells, cov=cov)
        assert estimation.MIN_VARIANCE_EIGENVALUE < 1e-9
        with pytest.raises(DegenerateVariance, match="condition number"):
            ev.evaluate(theta)
        with pytest.raises(DegenerateVariance, match="condition number"):
            ev.statistic(theta)
        cov[1, 0, 1, 0] = 1e-3
        assert np.array_equal(ev.evaluate(theta)[1], np.diag([1e4, 1e-3]))
        cov[1, 0, 1, 0] = np.nan
        with pytest.raises(DegenerateVariance, match="not finite"):
            ev.evaluate(theta)

    def test_one_correction_map_per_statistic(self, rng, monkeypatch):
        """One statistic evaluates the correction once: the moment and the
        variance share the per-theta index, lam and slope.  A batch of rows
        evaluates it once as well, over the rows' rate columns."""
        ev = MomentEvaluator(random_dataset(rng, n=12, n_cells=2))
        calls = []

        def counting(fp, fn):
            calls.append((fp.tolist(), fn.tolist()))
            return population_correction(fp, fn)

        monkeypatch.setattr(estimation, "population_correction", counting)
        ev.statistic(default_theta())
        assert calls == [([0.05], [0.1])]
        grid = ThetaGrid(([0.5, 0.0], [0.25, 0.1], [0.25], [0.8], [0.0, 0.05, 0.3], [0.1, 0.2]))
        calls.clear()
        ev.statistics(grid.points)
        assert calls == [(grid.points[:, -2].tolist(), grid.points[:, -1].tolist())]

    def test_infeasible_rates_raise(self, rng):
        """Rows with rates outside {fp, fn >= 0, fp + fn < 1} raise InvalidRates
        from ``statistics``, with ``validate_rates``' message for the first such
        row, whichever of NaN, a negative rate or fp + fn = 1 comes first."""
        ev = MomentEvaluator(random_dataset(rng, n=12, n_cells=2))
        good = [0.5, 0.25, 0.25, 0.8, 0.05, 0.1]
        bad = {
            "rates must be finite": [0.5, 0.25, 0.25, 0.8, np.nan, 0.1],
            "rates must be non-negative, got (0.05, -0.1)": [0.5, 0.25, 0.25, 0.8, 0.05, -0.1],
            "rates must satisfy fp + fn < 1, got 0.5 + 0.5 = 1.0": [0.5, 0.25, 0.25, 0.8, 0.5, 0.5],
        }
        rows = list(bad.items())
        for shift in range(3):
            order = rows[shift:] + rows[:shift]
            points = [good, *(row for _, row in order), good]
            with pytest.raises(InvalidRates) as excinfo:
                ev.statistics(points)
            assert str(excinfo.value) == order[0][0]

    def test_evaluator_matches_direct_path(self, rng):
        """One evaluator's ``evaluate`` and the free functions, each of which
        builds its own cell estimates, run the same arithmetic on the same
        inputs, and the statistic is the quadratic form of the free functions'
        m and S: equal exactly."""
        for n, n_cells in [(20, 2), (45, 3)]:
            data = random_dataset(rng, n=n, n_cells=n_cells)
            theta = default_theta()
            ev = MomentEvaluator(data)
            m, S = moment(data, theta), moment_variance(data, theta)
            got_m, got_S, stat = ev.evaluate(theta)
            assert np.array_equal(got_m, m)
            assert np.array_equal(got_S, S)
            assert stat == ev.statistic(theta) == quadratic_form(m, S, data.n)

    def test_statistic_nonnegative(self, rng):
        for _ in range(5):
            data = random_dataset(rng, n=15, n_cells=2)
            assert MomentEvaluator(data).statistic(default_theta()) >= 0.0



def mixed_rate_grid(d=1):
    """Rows with five distinct (fp, fn) pairs and both zero and non-zero externality."""
    return ThetaGrid(
        ([0.0, 0.5], [0.0, 0.25], [0.0, -0.2], *([[0.8, -0.3]] * d), [0.0, 0.05, 0.3], [0.1, 0.6])
    )


def one_row(ev, theta):
    """``ev.statistic(theta)`` with NaN for a degenerate variance."""
    try:
        return ev.statistic(theta)
    except DegenerateVariance:
        return float("nan")


class TestStatistics:
    def test_rows_equal_one_row_calls(self, rng):
        """Row p of the batch is ``statistic(theta_p)`` bit for bit, and NaN
        exactly where the one-row call raises.  Cell 1's link shares are
        projected out of C, so S is singular at zero externality and regular
        elsewhere: the grid holds degenerate and regular rows."""
        for n_cells, d in [(2, 1), (3, 1), (2, 2)]:
            data = random_dataset(rng, n=14, n_cells=n_cells)
            if d == 2:
                support = CovariateSupport(
                    np.column_stack([np.linspace(-0.5, 0.5, n_cells), np.arange(n_cells)])
                )
                data = dataclasses.replace(data, support=support)
            ev = MomentEvaluator(data)
            cov = ev.cells.cov.copy()
            cov[1, 0], cov[:, :, 1, 0] = 0.0, 0.0
            ev.cells = dataclasses.replace(ev.cells, cov=cov)
            grid = mixed_rate_grid(d)
            stats = ev.statistics(grid.points)
            assert stats.shape == (len(grid),)
            assert np.isnan(stats).any() and np.isfinite(stats).any()
            for theta, stat in zip(grid, stats):
                want = one_row(ev, theta)
                assert np.isnan(stat) == np.isnan(want)
                assert np.isnan(stat) or stat == want
            # a row's value does not depend on the rows around it
            order = rng.permutation(len(grid))
            assert np.array_equal(ev.statistics(grid.points[order]), stats[order], equal_nan=True)

    def test_rows_match_brute_force(self, rng):
        """The batch's moment and variance rows against the loop oracles, and
        its statistics against their quadratic form."""
        for n_cells in (2, 3):
            data = random_dataset(rng, n=int(rng.integers(6, 10)), n_cells=n_cells)
            ev = MomentEvaluator(data)
            grid = mixed_rate_grid()
            m, S, _, stats = ev._evaluate(grid.points)
            args = (data.network.adj, data.covariates.assignment, data.support.points)
            for p, theta in enumerate(grid):
                m_o = brute_moment(*args, theta, ev.cells.stats, n_cells)
                S_o = brute_variance(*args, theta, ev.cells.stats, n_cells)
                assert np.allclose(m[p], m_o, atol=1e-14)
                assert np.allclose(S[p], S_o, atol=1e-12)
                if np.isfinite(stats[p]):
                    assert stats[p] == pytest.approx(quadratic_form(m_o, S_o, data.n), rel=1e-9)

    def test_quadratic_form_over_leading_axes(self, rng):
        A = rng.standard_normal((2, 3, 4, 4))
        S = A @ A.swapaxes(-1, -2) + np.eye(4)
        m = rng.standard_normal((2, 3, 4))
        got = quadratic_form(m, S, 7)
        assert got.shape == (2, 3)
        for i, k in itertools.product(range(2), range(3)):
            assert got[i, k] == quadratic_form(m[i, k], S[i, k], 7)

    @given(
        st.integers(2, 5),
        st.integers(1, 2),
        st.sampled_from(["empty", "complete", "random"]),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 0.999),
        st.sampled_from([0.0, 0.5, 1.0 - 1e-6, 1.0 - 1e-12, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_edge_sweep(self, n, n_cells, kind, seed, fp, closeness):
        """Tiny, empty and complete networks, and fp + fn up to the last float
        below 1: the batch returns finite or NaN values that agree with the
        one-row calls, or raises a MisnetError; nothing else escapes."""
        rng = np.random.default_rng(seed)
        adj = {"empty": np.zeros((n, n)), "complete": np.ones((n, n))}.get(kind, rng.random((n, n)) < 0.5)
        adj = adj.astype(np.int8)
        np.fill_diagonal(adj, 0)
        labels = rng.integers(0, n_cells, (n, n))
        support = scalar_support(*np.linspace(-0.5, 0.5, n_cells))
        data = Dataset(Network(adj), PairCovariates(labels), support)
        fn = np.nextafter(1.0 - fp, 0.0) if closeness == 1.0 else (1.0 - fp) * closeness
        fn_axis = [0.0, fn] if fp + fn < 1 else [0.0]
        grid = ThetaGrid(([0.0, 0.5], [0.25], [-1.0, 0.25], [0.8], [fp], fn_axis))
        try:
            ev = MomentEvaluator(data)
            stats = ev.statistics(grid.points)
        except MisnetError:
            return
        assert not np.isinf(stats).any()
        for theta, stat in zip(grid, stats):
            want = one_row(ev, theta)
            assert (np.isnan(stat) and np.isnan(want)) or stat == want
