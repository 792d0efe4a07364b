"""Config parsing, file formats, the Monte Carlo driver, and the CLI."""

import csv
import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from misnet import (
    ConfigError,
    FileFormatError,
    MomentEvaluator,
    Network,
    PairCovariates,
    simulate_true_network,
    solve_equilibrium,
)
from misnet.cli import main
from misnet.config import parse_config_text
from misnet.inference import theta_coordinates
from misnet.harness import (
    fixed_design_seed,
    load_dataset,
    ReplicationRecord,
    replication_seed,
    run_mc_coverage,
    run_simulate,
    write_report,
)
from misnet import netio

from conftest import report_statistics, scalar_support
from oracles import write_network_edges

BASE_CONFIG = """
# minimal experiment
n = 40
support_points = -0.5 | 0.5
theta_externality = 0.5, 0.25, 0.25
theta_homophily = 0.8
theta_fp = 0.05
theta_fn = 0.10
seed = 1234
replications = 4
x_mode = fixed
"""


class TestConfig:
    def test_parse_minimal(self):
        cfg = parse_config_text(BASE_CONFIG)
        assert cfg.n == 40
        assert cfg.support.n_points == 2
        assert cfg.theta.fp_rate == 0.05
        assert cfg.alpha == 0.05  # default
        assert cfg.solver.tol == 1e-10
        assert np.allclose(cfg.support_probs, [0.5, 0.5])
        assert len(cfg.grid) == 1  # degenerate grid at theta

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="theta_fp"):
            parse_config_text("n = 10\nsupport_points = 0.0\n")

    def test_bad_probabilities(self):
        """Probabilities that do not sum to 1, or hold a NaN, are refused."""
        for probs in ["0.3, 0.3", "nan, 0.5"]:
            with pytest.raises(ConfigError, match="sum to 1"):
                parse_config_text(BASE_CONFIG + f"support_probs = {probs}\n")

    def test_grid_axes(self):
        """An axis lo:hi:count holds both ends; a one-point axis needs lo == hi,
        since lo:hi:1 with lo != hi would silently drop hi."""
        cfg = parse_config_text(BASE_CONFIG + "grid_fp = 0:0.2:5\ngrid_fn = 0.0,0.1\n")
        assert len(cfg.grid) == 10
        points = list(cfg.grid)
        assert points[0].externality[0] == 0.5
        cfg = parse_config_text(BASE_CONFIG + "grid_fp = 0.1:0.1:1\n")
        assert cfg.grid.axes[-2].tolist() == [0.1]
        with pytest.raises(ConfigError, match="key grid_fp: a one-point axis needs lo == hi"):
            parse_config_text(BASE_CONFIG + "grid_fp = 0.1:0.3:1\n")

    def test_malformed_line(self):
        """A line that is not 'key = value', or a key given twice, is an error
        naming its line."""
        for text, message in [
            ("n = 10\nnot a key value pair\n", "line 2"),
            (BASE_CONFIG + "alpha = 0.1\nalpha = 0.5\n", "key alpha given twice, on lines 12 and 13"),
            (BASE_CONFIG + "seed = 7\n", "key seed given twice, on lines 9 and 12"),
        ]:
            with pytest.raises(ConfigError, match=message):
                parse_config_text(text)

    def test_unknown_keys_rejected(self):
        """A misspelt key, or a grid axis beyond the support's dimension, is an
        error rather than a silently kept default."""
        for line in ["replication = 5", "dampng = 0.5", "grid_x2 = 0:1:3"]:
            key = line.split()[0]
            with pytest.raises(ConfigError, match=f"unknown keys: {key}"):
                parse_config_text(BASE_CONFIG + line + "\n")

    def test_invalid_rates_in_theta(self):
        bad = BASE_CONFIG.replace("theta_fp = 0.05", "theta_fp = 0.95")
        with pytest.raises(ConfigError):
            parse_config_text(bad)

    def test_missing_x_file(self, tmp_path):
        with pytest.raises(ConfigError, match="x_file"):
            parse_config_text(BASE_CONFIG + "x_file = nowhere.csv\n", base_dir=tmp_path)

    def test_two_dimensional_support(self, tmp_path):
        text = """
n = 20
support_points = 0,1 | 1,0
theta_externality = 0.3, 0.2, 0.1
theta_homophily = 0.4, -0.3
theta_fp = 0.05
theta_fn = 0.10
seed = 8
grid_x2 = -0.4:0.0:3
"""
        cfg = parse_config_text(text)
        assert cfg.support.dimension == 2
        assert len(cfg.grid) == 3
        # grid_x2 is column 4 of the layout; every other column sits at theta
        theta = np.array(theta_coordinates(cfg.theta))
        assert np.array_equal(cfg.grid.points[:, 4], np.linspace(-0.4, 0.0, 3))
        others = np.delete(cfg.grid.points, 4, axis=1)
        assert np.array_equal(others, np.tile(np.delete(theta, 4), (3, 1)))
        run_simulate(cfg, tmp_path)
        data = load_dataset(tmp_path)
        assert data.support.dimension == 2
        assert MomentEvaluator(data).statistic(cfg.theta) >= 0.0


class TestNetIO:
    def test_matrix_roundtrip(self, tmp_path, rng):
        adj = (rng.random((7, 7)) < 0.4).astype(int)
        np.fill_diagonal(adj, 0)
        net = Network(adj)
        path = tmp_path / "net.csv"
        netio.write_network_matrix(net, path)
        assert np.array_equal(netio.read_network(path).adj, adj)

    def test_summary_writer(self, tmp_path):
        """``write_summary`` writes ``json.dumps(payload, indent=2)`` for a finite
        payload, and null for a non-finite float value."""
        path = tmp_path / "summary.json"
        finite = {"alpha": 0.05, "n_grid": 3, "accepted": True, "projection": {"fp": [0.0, 0.1]}}
        netio.write_summary(path, finite)
        assert path.read_text() == json.dumps(finite, indent=2)
        netio.write_summary(path, {"coverage": float("nan"), "ks": np.float64(-np.inf), "n": 2})
        written = json.loads(path.read_text(), parse_constant=pytest.fail)
        assert written == {"coverage": None, "ks": None, "n": 2}

    def test_edge_list_roundtrip(self, tmp_path, rng):
        adj = (rng.random((6, 6)) < 0.5).astype(int)
        np.fill_diagonal(adj, 0)
        net = Network(adj)
        path = tmp_path / "net_edges.csv"
        write_network_edges(net, path)
        assert np.array_equal(netio.read_network(path).adj, adj)
        path.write_text("n=4\ni,j\n")
        assert np.array_equal(netio.read_network(path).adj, np.zeros((4, 4)))

    def test_dialect_variants_read_alike(self, tmp_path, rng):
        """A copy with CRLF line ends, one with spaces around the fields and
        one with a trailing blank line read to the same arrays."""
        adj = (rng.random((5, 5)) < 0.5).astype(int)
        np.fill_diagonal(adj, 0)
        netio.write_network_matrix(Network(adj), tmp_path / "net.csv")
        write_network_edges(Network(adj), tmp_path / "edges.csv")
        netio.write_covariates(PairCovariates(rng.integers(0, 3, (5, 5))), tmp_path / "cov.csv")
        netio.write_support(scalar_support(-0.5, 0.25, 0.5), tmp_path / "support.csv")
        cases = [  # file, reader, header lines
            ("net.csv", lambda p: netio.read_network(p).adj, 0),
            ("edges.csv", lambda p: netio.read_network(p).adj, 2),
            ("cov.csv", lambda p: netio.read_covariates(p).assignment, 0),
            ("support.csv", lambda p: netio.read_support(p).points, 1),
        ]
        for name, read, head in cases:
            text = (tmp_path / name).read_text()
            lines = text.splitlines()
            padded = lines[:head] + [f" {line.replace(',', ' , ')} " for line in lines[head:]]
            expected = read(tmp_path / name)
            for variant in [text.replace("\n", "\r\n"), "\n".join(padded) + "\n", text + "\n"]:
                path = tmp_path / f"variant_{name}"
                path.write_text(variant, newline="")
                assert np.array_equal(read(path), expected), (name, variant)

    def test_malformed_row_names_line(self, tmp_path):
        """Each bad row, placed after a blank line, is named by its own line."""
        path = tmp_path / "bad.csv"
        for read, text in [
            (netio.read_network, "0,1,0\n\n0,x,0\n0,0,0\n"),  # bad token
            (netio.read_network, "0,1,0\n\n0,0.5,0\n0,0,0\n"),  # not an integer
            (netio.read_covariates, "0,1,0\n\n1,1.5,0\n0,0,0\n"),  # not an integer
            (netio.read_network, "0,1,0\n\n0,1\n0,0,0\n"),  # ragged row
            (netio.read_network, "0,1,0\n\n0,0,2\n0,0,0\n"),  # not 0/1
            (netio.read_covariates, "0,1,0\n\n1,-1,0\n0,0,0\n"),  # negative cell
        ]:
            path.write_text(text)
            with pytest.raises(FileFormatError) as excinfo:
                read(path)
            assert excinfo.value.line == 3, text

    def test_ragged_matrix_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0,1\n0\n")
        with pytest.raises(FileFormatError):
            netio.read_network(path)

    def test_edge_out_of_range(self, tmp_path):
        path = tmp_path / "edges.csv"
        for text, line in [
            ("n=3\ni,j\n0,5\n", 3),
            ("n=3\ni,j\n\n0,5\n", 4),
            ("n=3\ni,j\n0,1\n\n1,1\n", 5),  # self-loop
        ]:
            path.write_text(text)
            with pytest.raises(FileFormatError) as excinfo:
                netio.read_network(path)
            assert excinfo.value.line == line, text

    def test_covariates_roundtrip(self, tmp_path, rng):
        cov = PairCovariates(rng.integers(0, 3, (5, 5)))
        path = tmp_path / "cov.csv"
        netio.write_covariates(cov, path)
        assert np.array_equal(netio.read_covariates(path).assignment, cov.assignment)

    def test_support_roundtrip(self, tmp_path):
        support = scalar_support(-0.5, 0.5)
        path = tmp_path / "support.csv"
        netio.write_support(support, path)
        assert np.allclose(netio.read_support(path).points, support.points)

    @pytest.mark.parametrize("n", [2, 40])
    def test_matrix_writers_match_savetxt(self, tmp_path, rng, n):
        """An int8 network and an int64 design with a non-zero diagonal are
        written as ``np.savetxt(path, a, fmt="%d", delimiter=",")`` writes them."""
        adj = (rng.random((n, n)) < 0.4).astype(np.int8)
        np.fill_diagonal(adj, 0)
        assignment = rng.integers(0, 3, (n, n))
        np.fill_diagonal(assignment, 2)
        network, covariates = Network(adj), PairCovariates(assignment)
        assert network.adj.dtype == np.int8 and covariates.assignment.dtype == np.int64
        for write, value, array in [
            (netio.write_network_matrix, network, network.adj),
            (netio.write_covariates, covariates, covariates.assignment),
        ]:
            got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
            write(value, got)
            np.savetxt(expected, array, fmt="%d", delimiter=",")
            assert got.read_bytes() == expected.read_bytes(), write.__name__

    def test_csv_writers_make_missing_directories(self, tmp_path):
        """Every CSV writer makes the directory it writes into, parents included."""
        writes = [
            lambda path: netio.write_support(scalar_support(-0.5, 0.5), path),
            lambda path: netio.write_table(path, ["a", "b"], [[1, 0.5]]),
            lambda path: netio.write_network_matrix(Network(np.zeros((2, 2), dtype=np.int8)), path),
            lambda path: netio.write_covariates(PairCovariates(np.zeros((2, 2), dtype=np.int64)), path),
        ]
        for k, write in enumerate(writes):
            path = tmp_path / f"missing{k}" / "nested" / "file.csv"
            write(path)
            assert path.is_file(), k

    def test_support_header_width_matches_points(self, tmp_path):
        path = tmp_path / "support.csv"
        for text in ["x1,x2\n-0.5\n0.5\n", "x1\n-0.5,0\n0.5,1\n"]:
            path.write_text(text)
            with pytest.raises(FileFormatError) as excinfo:
                netio.read_support(path)
            assert excinfo.value.line == 1, text

    def test_cell_outside_support_named_at_its_line(self, tmp_path, rng):
        """A covariate cell index of J or more is reported at its own line,
        by ``read_covariates`` given J and by ``load_dataset``; without J the
        reader accepts it."""
        adj = (rng.random((6, 6)) < 0.5).astype(int)
        np.fill_diagonal(adj, 0)
        assignment = rng.integers(0, 2, (6, 6))
        assignment[4, 2] = 5
        netio.write_support(scalar_support(-0.5, 0.5), tmp_path / "support.csv")
        netio.write_covariates(PairCovariates(assignment), tmp_path / "covariates.csv")
        netio.write_network_matrix(Network(adj), tmp_path / "observed_network.csv")
        path = tmp_path / "covariates.csv"
        assert np.array_equal(netio.read_covariates(path).assignment, assignment)
        for read in [lambda: netio.read_covariates(path, 2), lambda: load_dataset(tmp_path)]:
            with pytest.raises(FileFormatError) as excinfo:
                read()
            assert excinfo.value.line == 5
            assert Path(excinfo.value.path).name == "covariates.csv"


class TestSeedScheme:
    def test_replication_seeds_distinct(self):
        states = {tuple(replication_seed(9, r).generate_state(4)) for r in range(200)}
        assert len(states) == 200

    def test_fixed_design_differs_from_replications(self):
        fixed = tuple(fixed_design_seed(9).generate_state(4))
        assert fixed != tuple(replication_seed(9, 0).generate_state(4))


class TestRunSimulate:
    def _config(self, extra=""):
        return parse_config_text(BASE_CONFIG + extra)

    def test_zero_rates_give_identical_files(self, tmp_path):
        text = BASE_CONFIG.replace("theta_fp = 0.05", "theta_fp = 0.0").replace(
            "theta_fn = 0.10", "theta_fn = 0.0"
        )
        cfg = parse_config_text(text)
        paths = run_simulate(cfg, tmp_path)
        true_bytes = Path(paths["true_network"]).read_bytes()
        obs_bytes = Path(paths["observed_network"]).read_bytes()
        assert true_bytes == obs_bytes

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self._config()
        a = run_simulate(cfg, tmp_path / "a")
        b = run_simulate(cfg, tmp_path / "b")
        for key in ("covariates", "true_network", "observed_network", "support"):
            assert Path(a[key]).read_bytes() == Path(b[key]).read_bytes()

    def test_flip_counts_within_binomial_band(self, tmp_path):
        cfg = parse_config_text(BASE_CONFIG.replace("n = 40", "n = 100"))
        paths = run_simulate(cfg, tmp_path)
        true_net = netio.read_network(paths["true_network"]).adj.astype(int)
        observed = netio.read_network(paths["observed_network"]).adj.astype(int)
        off = ~np.eye(100, dtype=bool)
        ones = true_net[off] == 1
        n1, n0 = ones.sum(), (~ones).sum()
        drop_rate = (true_net[off][ones] != observed[off][ones]).mean()
        add_rate = (true_net[off][~ones] != observed[off][~ones]).mean()
        assert abs(drop_rate - 0.10) <= 4 * np.sqrt(0.1 * 0.9 / n1)
        assert abs(add_rate - 0.05) <= 4 * np.sqrt(0.05 * 0.95 / n0)

    def test_summary_records_residual(self, tmp_path):
        paths = run_simulate(self._config(), tmp_path)
        summary = json.loads(Path(paths["summary"]).read_text())
        assert summary["equilibrium_residual"] <= 1e-10

    @pytest.mark.parametrize("x_mode", ["fixed", "fresh"])
    def test_true_network_is_the_public_draw(self, tmp_path, x_mode):
        # the solver's index drawn with the shock stream equals the public path
        cfg = parse_config_text(BASE_CONFIG.replace("x_mode = fixed", f"x_mode = {x_mode}"))
        paths = run_simulate(cfg, tmp_path)
        covariates = netio.read_covariates(paths["covariates"], cfg.support.n_points)
        th = cfg.theta
        args = (covariates, cfg.support, th.externality, th.homophily)
        beliefs = solve_equilibrium(*args, cfg.solver)
        shocks = replication_seed(cfg.seed, 0).spawn(3)[1]
        expected = simulate_true_network(beliefs, *args, seed=shocks)
        assert np.array_equal(netio.read_network(paths["true_network"]).adj, expected.adj)

    def test_loadable_as_dataset(self, tmp_path):
        run_simulate(self._config(), tmp_path)
        data = load_dataset(tmp_path)
        assert data.n == 40 and data.n_cells == 2


class TestMcCoverage:
    def test_single_replication_report(self):
        cfg = parse_config_text(BASE_CONFIG.replace("replications = 4", "replications = 1"))
        report = run_mc_coverage(cfg)
        assert len(report.records) == 1
        record = report.records[0]
        assert report.coverage == float(record.accepted)
        assert not record.error

    def test_deterministic_reports(self):
        cfg = parse_config_text(BASE_CONFIG)
        r1 = run_mc_coverage(cfg)
        r2 = run_mc_coverage(cfg)
        assert [rec.statistic for rec in r1.records] == [rec.statistic for rec in r2.records]
        assert r1.coverage == r2.coverage and r1.ks_distance == r2.ks_distance

    # statistics and equilibrium residuals of the configuration below, per
    # x_mode, pinned to 17 significant digits
    GOLDEN = {
        "fixed": (
            [
                14.863084470455746,
                2.149104497604525,
                1.6023005396822643,
                1.5528760067147518,
                0.52534268654305405,
            ],
            [3.746325472064882e-11] * 5,  # one design, solved once
        ),
        "fresh": (
            [
                5.5504636679878265,
                0.319229990731985,
                0.5595215361374484,
                0.1429574655886358,
                1.3929351622095012,
            ],
            [
                9.064393680091598e-11,
                9.644451903767504e-11,
                3.7944092312613975e-11,
                3.55425688880473e-11,
                3.505795653779842e-11,
            ],
        ),
    }

    def test_fixed_seed_statistics_are_pinned(self):
        """A fixed design and seed give the same statistics on every version,
        so drift in the solver or the estimation kernels fails loudly; the
        fresh design pins the path that draws and solves per replication."""
        for x_mode, (statistics, residuals) in self.GOLDEN.items():
            text = (
                BASE_CONFIG.replace("n = 40", "n = 30")
                .replace("replications = 4", "replications = 5")
                .replace("x_mode = fixed", f"x_mode = {x_mode}")
            )
            report = run_mc_coverage(parse_config_text(text))
            assert report.n_failed == 0
            assert list(report_statistics(report)) == pytest.approx(statistics, rel=1e-12, abs=0)
            residual = [r.residual for r in report.records]
            assert residual == pytest.approx(residuals, rel=1e-12, abs=0)

    def test_parallel_matches_serial(self):
        cfg = parse_config_text(BASE_CONFIG.replace("replications = 4", "replications = 6"))
        serial = run_mc_coverage(dataclasses.replace(cfg, threads=1))
        pooled = run_mc_coverage(dataclasses.replace(cfg, threads=2))
        assert [r.statistic for r in serial.records] == [r.statistic for r in pooled.records]
        assert serial.coverage == pooled.coverage

    def test_fresh_x_mode_runs(self):
        cfg = parse_config_text(BASE_CONFIG.replace("x_mode = fixed", "x_mode = fresh"))
        report = run_mc_coverage(cfg)
        assert len(report.records) == 4
        assert report.n_failed == 0

    def test_probit_submodel_coverage(self):
        """Externality-free, error-free design: the statistic at the truth is
        calibrated already at moderate n; coverage sits near the nominal level."""
        text = """
n = 150
support_points = -0.5 | 0.5
theta_externality = 0, 0, 0
theta_homophily = 0.6
theta_fp = 0.0
theta_fn = 0.0
seed = 77
replications = 300
x_mode = fixed
"""
        report = run_mc_coverage(parse_config_text(text))
        assert report.n_failed == 0
        assert 0.92 <= report.coverage <= 1.0

    def test_report_files(self, tmp_path):
        """The replication table reads back with a CSV reader: numbers exactly,
        and error text with commas and line breaks verbatim."""
        cfg = parse_config_text(BASE_CONFIG)
        report = run_mc_coverage(cfg)
        failed = ReplicationRecord(
            4, "(1234;1;4)", float("nan"), float("nan"), False,
            error='NonConvergence: stopped, retry\nwith "damping"',
        )
        report = dataclasses.replace(report, records=[*report.records, failed])
        paths = write_report(report, tmp_path)
        with open(paths["replications"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert [row["error"] for row in rows] == ["", "", "", "", failed.error]
        for row, record in zip(rows[:4], report.records):
            assert float(row["statistic"]) == record.statistic
            assert row["accepted"] == str(int(record.accepted))
        assert rows[4]["statistic"] == "nan" and rows[4]["accepted"] == "0"
        summary = json.loads(Path(paths["summary"]).read_text())
        assert summary["n_replications"] == 5

    # a tiny fresh-X design with a rare cell produces empty-cell replications
    FRAGILE = """
n = 6
support_points = -0.5 | 0.5
support_probs = 0.97, 0.03
theta_externality = 0, 0, 0
theta_homophily = 0.5
theta_fp = 0.0
theta_fn = 0.0
seed = 5
replications = 20
x_mode = fresh
"""

    def test_all_failed_summary_is_strict_json(self, tmp_path):
        """When every replication fails, the NaN aggregates are written as null,
        so the summary parses with a reader that rejects NaN."""
        text = (
            self.FRAGILE.replace("n = 6", "n = 3")
            .replace("0.97, 0.03", "0.9999, 0.0001")
            .replace("replications = 20", "replications = 5")
        )
        path = tmp_path / "all_failed.cfg"
        path.write_text(text + "failure_tolerance = 1\n")
        assert main(["mc-coverage", "--config", str(path), "--out", str(tmp_path / "mc")]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        summary = json.loads((tmp_path / "mc" / "summary.json").read_text(), parse_constant=reject)
        assert summary["n_failed"] == summary["n_replications"] == 5
        assert summary["coverage"] is None and summary["ks_distance"] is None

    def test_excessive_failures_abort(self):
        from misnet import TooManyFailures

        with pytest.raises(TooManyFailures):
            run_mc_coverage(parse_config_text(self.FRAGILE))

    def test_failures_logged_when_tolerated(self):
        cfg = parse_config_text(self.FRAGILE + "failure_tolerance = 0.95\n")
        report = run_mc_coverage(cfg)
        assert report.n_failed > 0
        failed = [r for r in report.records if r.error]
        assert all("EmptyCell" in r.error or "Degenerate" in r.error for r in failed)
        assert len(report.records) == 20


class TestCli:
    def _write_config(self, tmp_path, text=BASE_CONFIG):
        """Each call writes its own file, so a path kept from an earlier call
        still reads the text it was written with."""
        path = tmp_path / f"experiment{len(list(tmp_path.glob('experiment*.cfg')))}.cfg"
        path.write_text(text)
        return str(path)

    def test_simulate_then_estimate_then_ci(self, tmp_path):
        cfg = self._write_config(tmp_path)
        data_dir = str(tmp_path / "data")
        assert main(["simulate", "--config", cfg, "--out", data_dir]) == 0
        est_dir = str(tmp_path / "est")
        assert main(["estimate", "--config", cfg, "--data", data_dir, "--out", est_dir]) == 0
        summary = json.loads((Path(est_dir) / "summary.json").read_text())
        assert "statistic" in summary and summary["dof"] == 2
        variance = np.loadtxt(Path(est_dir) / "variance.csv", delimiter=",", skiprows=1)
        theta = parse_config_text(BASE_CONFIG).theta
        assert np.array_equal(variance, MomentEvaluator(load_dataset(data_dir)).variance(theta))
        ci_dir = str(tmp_path / "ci")
        assert main(["ci", "--config", cfg, "--data", data_dir, "--out", ci_dir]) == 0
        grid_lines = (Path(ci_dir) / "ci_grid.csv").read_text().strip().splitlines()
        assert len(grid_lines) == 2  # header plus the degenerate grid point

    def test_ci_alpha_nesting_on_disk(self, tmp_path):
        cfg_text = BASE_CONFIG + "grid_fp = 0:0.2:3\ngrid_fn = 0:0.2:3\n"
        cfg = self._write_config(tmp_path, cfg_text)
        data_dir = str(tmp_path / "data")
        assert main(["simulate", "--config", cfg, "--out", data_dir]) == 0
        a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["ci", "--config", cfg, "--data", data_dir, "--out", a_dir, "--alpha", "0.5"]) == 0
        assert main(["ci", "--config", cfg, "--data", data_dir, "--out", b_dir, "--alpha", "0.05"]) == 0

        def accepted(d):
            rows = (Path(d) / "ci_grid.csv").read_text().strip().splitlines()[1:]
            return {tuple(r.split(",")[:6]) for r in rows if r.split(",")[7] == "1"}

        assert accepted(a_dir) <= accepted(b_dir)

    def test_sp_set_subcommand(self, tmp_path):
        cfg = self._write_config(tmp_path, BASE_CONFIG + "grid_fp = 0:0.4:3\n")
        data_dir = str(tmp_path / "data")
        assert main(["simulate", "--config", cfg, "--out", data_dir]) == 0
        sp_dir = str(tmp_path / "sp")
        assert main(["sp-set", "--config", cfg, "--data", data_dir, "--out", sp_dir]) == 0
        summary = json.loads((Path(sp_dir) / "summary.json").read_text())
        assert summary["n_grid"] == 3

    def test_mc_coverage_subcommand(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "mc")
        assert main(["mc-coverage", "--config", cfg, "--out", out]) == 0
        summary = json.loads((Path(out) / "summary.json").read_text())
        assert summary["n_replications"] == 4

    def test_data_commands_read_support_once(self, tmp_path, monkeypatch):
        """``estimate``, ``ci`` and ``sp-set`` each read ``support.csv`` once,
        with the rest of the dataset."""
        cfg = self._write_config(tmp_path)
        data_dir = str(tmp_path / "data")
        assert main(["simulate", "--config", cfg, "--out", data_dir]) == 0
        reads = []
        read_support = netio.read_support
        monkeypatch.setattr(netio, "read_support", lambda path: reads.append(path) or read_support(path))
        for command in ["estimate", "ci", "sp-set"]:
            reads.clear()
            out = str(tmp_path / command)
            assert main([command, "--config", cfg, "--data", data_dir, "--out", out]) == 0
            assert len(reads) == 1, (command, reads)

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n = 10\n")  # missing required keys
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_out_of_range_override_exit_code(self, tmp_path):
        """Command-line overrides pass the same range checks as the config file."""
        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "mc")
        for flag, value in [("--seed", "-1"), ("--seed", str(2**64)), ("--threads", "0")]:
            assert main(["mc-coverage", "--config", cfg, "--out", out, flag, value]) == 2

    def test_missing_config_file(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", str(tmp_path / "none.cfg"), "--out", out]) == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        text = BASE_CONFIG.replace(
            "theta_externality = 0.5, 0.25, 0.25", "theta_externality = -60, 0, 0"
        ) + "max_iter = 30\n"
        cfg = self._write_config(tmp_path, text)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_degenerate_variance_exit_code(self, tmp_path, capsys):
        """An empty observed network has no link variation, so S is zero."""
        cfg = self._write_config(tmp_path)
        data_dir = tmp_path / "data"
        assert main(["simulate", "--config", cfg, "--out", str(data_dir)]) == 0
        empty = Network(np.zeros((40, 40), dtype=np.int8))
        netio.write_network_matrix(empty, data_dir / "observed_network.csv")
        out = tmp_path / "o"
        assert main(["estimate", "--config", cfg, "--data", str(data_dir), "--out", str(out)]) == 3
        assert "variance" in capsys.readouterr().err and not out.exists()

    def test_malformed_data_file_exit_code(self, tmp_path):
        cfg = self._write_config(tmp_path)
        data_dir = tmp_path / "data"
        assert main(["simulate", "--config", cfg, "--out", str(data_dir)]) == 0
        (data_dir / "observed_network.csv").write_text("0,1\nbroken\n")
        out = str(tmp_path / "o")
        assert main(["estimate", "--config", cfg, "--data", str(data_dir), "--out", out]) == 2

    def test_failed_command_leaves_no_out_dir(self, tmp_path):
        """A command that fails on its inputs or its solve creates no --out;
        data files that disagree with each other or with the config, and paths
        that cannot be opened, exit 2."""
        cfg = self._write_config(tmp_path)
        data_dir = tmp_path / "data"
        assert main(["simulate", "--config", cfg, "--out", str(data_dir)]) == 0
        rows = (data_dir / "covariates.csv").read_text().splitlines()
        rows[0] = ",".join(["0", "5", *rows[0].split(",")[2:]])
        all_commands = ["estimate", "ci", "sp-set"]
        network, covariates = "observed_network.csv", "covariates.csv"
        bad_files = [
            ([network], "0,1\nbroken\n", all_commands),
            ([network], "n=-3\ni,j\n", ["estimate"]),
            ([network, covariates], "0\n", all_commands),  # one agent
            ([covariates], "0,1,0\n1,0,1\n0,1,0\n", all_commands),  # network is 40 x 40
            ([covariates], "\n".join(rows) + "\n", ["estimate"]),  # cell 5 of 2
            (["support.csv"], "x1,x2\n-0.5,0\n0.5,0\n", all_commands),  # config has d = 1
        ]
        for case, (names, text, commands) in enumerate(bad_files):
            bad_dir = tmp_path / f"bad{case}"
            shutil.copytree(data_dir, bad_dir)
            for name in names:
                (bad_dir / name).write_text(text)
            for command in commands:
                out = tmp_path / f"{command}{case}"
                args = [command, "--config", cfg, "--data", str(bad_dir), "--out", str(out)]
                assert main(args) == 2, (names, text, command)
                assert not out.exists(), command
        no_covariates = tmp_path / "no_covariates"
        shutil.copytree(data_dir, no_covariates)
        (no_covariates / covariates).unlink()
        out = tmp_path / "unread"
        for bad_dir in [tmp_path / "missing", no_covariates]:
            for command in all_commands:
                args = [command, "--config", cfg, "--data", str(bad_dir), "--out", str(out)]
                assert main(args) == 2, (bad_dir, command)
                assert not out.exists(), command
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        for args in [["simulate"], ["ci", "--data", str(data_dir)]]:
            assert main([*args, "--config", cfg, "--out", str(taken)]) == 2, args
            assert taken.read_text() == "kept\n"
        (tmp_path / "design.csv").write_text("0,1,0\n1,0,1\n0,1,0\n")
        small_design = self._write_config(tmp_path, BASE_CONFIG + "x_file = design.csv\n")
        out = tmp_path / "simulate"
        assert main(["simulate", "--config", small_design, "--out", str(out)]) == 2
        assert not out.exists()
        design = np.zeros((40, 40), dtype=int)
        design[4, 7] = 5  # cell 5 of 2, on line 5
        netio.write_covariates(PairCovariates(design), tmp_path / "outside.csv")
        outside = self._write_config(tmp_path, BASE_CONFIG + "x_file = outside.csv\n")
        for command in ["simulate", "mc-coverage"]:
            assert main([command, "--config", outside, "--out", str(out)]) == 2, command
            assert not out.exists(), command
        (tmp_path / "design_dir").mkdir()
        directory = self._write_config(tmp_path, BASE_CONFIG + "x_file = design_dir\n")
        for command in ["simulate", "mc-coverage"]:
            assert main([command, "--config", directory, "--out", str(out)]) == 2, command
            assert not out.exists(), command
        diverging = self._write_config(tmp_path, BASE_CONFIG.replace(
            "theta_externality = 0.5, 0.25, 0.25", "theta_externality = -60, 0, 0"
        ) + "max_iter = 30\n")
        assert main(["simulate", "--config", diverging, "--out", str(out)]) == 3
        assert not out.exists()

    def test_unread_override_refused(self, tmp_path):
        """Each command accepts only the overrides it reads; any other is a
        usage error (exit 2) and creates no --out."""
        cfg = self._write_config(tmp_path)
        data = str(tmp_path / "data")
        out = tmp_path / "o"
        for argv in [
            ["simulate", "--alpha", "0.1"],
            ["simulate", "--threads", "2"],
            ["estimate", "--data", data, "--seed", "3"],
            ["ci", "--data", data, "--threads", "2"],
            ["sp-set", "--data", data, "--alpha", "0.1"],
        ]:
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--config", cfg, "--out", str(out)])
            assert exc.value.code == 2, argv
            assert not out.exists()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self._write_config(tmp_path)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", "--config", cfg, "--out", a]) == 0
        assert main(["simulate", "--config", cfg, "--out", b, "--seed", "999"]) == 0
        assert (Path(a) / "observed_network.csv").read_bytes() != (
            Path(b) / "observed_network.csv"
        ).read_bytes()
