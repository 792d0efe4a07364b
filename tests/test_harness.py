"""Config parsing, file formats, the Monte Carlo driver, and the CLI."""

import json
from pathlib import Path

import numpy as np
import pytest

from misnet import ConfigError, FileFormatError, Network, PairCovariates
from misnet.cli import main
from misnet.config import parse_config_text
from misnet.harness import (
    fixed_design_seed,
    load_dataset,
    replication_seed,
    run_mc_coverage,
    run_simulate,
    write_report,
)
from misnet import netio

from conftest import scalar_support
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
        with pytest.raises(ConfigError, match="sum to 1"):
            parse_config_text(BASE_CONFIG + "support_probs = 0.3, 0.3\n")

    def test_grid_axes(self):
        cfg = parse_config_text(BASE_CONFIG + "grid_fp = 0:0.2:5\ngrid_fn = 0.0,0.1\n")
        assert len(cfg.grid) == 10
        points = list(cfg.grid)
        assert points[0].externality[0] == 0.5

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("n = 10\nnot a key value pair\n")

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
        run_simulate(cfg, tmp_path)
        data = load_dataset(tmp_path)
        assert data.support.dimension == 2
        from misnet import MomentEvaluator

        assert MomentEvaluator(data).statistic(cfg.theta) >= 0.0


class TestNetIO:
    def test_matrix_roundtrip(self, tmp_path, rng):
        adj = (rng.random((7, 7)) < 0.4).astype(int)
        np.fill_diagonal(adj, 0)
        net = Network(adj)
        path = tmp_path / "net.csv"
        netio.write_network_matrix(net, path)
        assert np.array_equal(netio.read_network(path).adj, adj)

    def test_edge_list_roundtrip(self, tmp_path, rng):
        adj = (rng.random((6, 6)) < 0.5).astype(int)
        np.fill_diagonal(adj, 0)
        net = Network(adj)
        path = tmp_path / "net_edges.csv"
        write_network_edges(net, path)
        assert np.array_equal(netio.read_network(path).adj, adj)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,0\n0,x,0\n0,0,0\n")
        with pytest.raises(FileFormatError) as excinfo:
            netio.read_network(path)
        assert excinfo.value.line == 2

    def test_ragged_matrix_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0,1\n0\n")
        with pytest.raises(FileFormatError):
            netio.read_network(path)

    def test_edge_out_of_range(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("n=3\ni,j\n0,5\n")
        with pytest.raises(FileFormatError) as excinfo:
            netio.read_network(path)
        assert excinfo.value.line == 3

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
            assert list(report.statistics) == pytest.approx(statistics, rel=1e-12, abs=0)
            residual = [r.residual for r in report.records]
            assert residual == pytest.approx(residuals, rel=1e-12, abs=0)

    def test_parallel_matches_serial(self):
        cfg = parse_config_text(BASE_CONFIG.replace("replications = 4", "replications = 6"))
        serial = run_mc_coverage(cfg, threads=1)
        pooled = run_mc_coverage(cfg, threads=2)
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
        cfg = parse_config_text(BASE_CONFIG)
        report = run_mc_coverage(cfg)
        paths = write_report(report, tmp_path)
        lines = Path(paths["replications"]).read_text().strip().splitlines()
        assert len(lines) == 1 + 4
        summary = json.loads(Path(paths["summary"]).read_text())
        assert summary["n_replications"] == 4

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
        path = tmp_path / "experiment.cfg"
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

    def test_malformed_data_file_exit_code(self, tmp_path):
        cfg = self._write_config(tmp_path)
        data_dir = tmp_path / "data"
        assert main(["simulate", "--config", cfg, "--out", str(data_dir)]) == 0
        (data_dir / "observed_network.csv").write_text("0,1\nbroken\n")
        out = str(tmp_path / "o")
        assert main(["estimate", "--config", cfg, "--data", str(data_dir), "--out", out]) == 2

    def test_failed_command_leaves_no_out_dir(self, tmp_path):
        """A command that fails on its inputs or its solve creates no --out."""
        cfg = self._write_config(tmp_path)
        data_dir = tmp_path / "data"
        assert main(["simulate", "--config", cfg, "--out", str(data_dir)]) == 0
        (data_dir / "observed_network.csv").write_text("0,1\nbroken\n")
        for command in ["estimate", "ci", "sp-set"]:
            out = tmp_path / command
            args = [command, "--config", cfg, "--data", str(data_dir), "--out", str(out)]
            assert main(args) == 2
            assert not out.exists(), command
        diverging = self._write_config(tmp_path, BASE_CONFIG.replace(
            "theta_externality = 0.5, 0.25, 0.25", "theta_externality = -60, 0, 0"
        ) + "max_iter = 30\n")
        out = tmp_path / "simulate"
        assert main(["simulate", "--config", diverging, "--out", str(out)]) == 3
        assert not out.exists()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self._write_config(tmp_path)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", "--config", cfg, "--out", a]) == 0
        assert main(["simulate", "--config", cfg, "--out", b, "--seed", "999"]) == 0
        assert (Path(a) / "observed_network.csv").read_bytes() != (
            Path(b) / "observed_network.csv"
        ).read_bytes()
