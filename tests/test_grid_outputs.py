"""The grid commands' files against their row-by-row oracle, byte for byte.

``ci`` and ``sp-set`` run through the command line, and ``oracles.py`` writes
the same five files from one ``Theta``, one statistic and one membership loop
per grid point, formatted row by row; the files must not differ by a byte.
The command line itself makes no Python object per grid point.
"""

import json
from collections import Counter

import numpy as np
import pytest

from misnet import (
    CovariateSupport, Dataset, Network, PairCovariates, Theta, cell_estimates, harness, inference, netio,
    semiparametric,
)
from misnet.cli import main
from misnet.config import parse_config
from misnet.inference import GridRecord, confidence_set
from misnet.semiparametric import MembershipResult, Violation, cell_summary, membership

from conftest import random_assignment, random_network, scalar_support, tournament_dataset
from oracles import reference_ci, reference_sp_set, reference_write_table

FILES = ["ci/ci_grid.csv", "ci/projection.csv", "ci/summary.json", "sp-set/sp_grid.csv", "sp-set/summary.json"]


def _support(n_cells, d):
    """n_cells points in lexicographic order; the second coordinate alternates in sign."""
    first = np.linspace(-0.5, 0.5, n_cells)
    return CovariateSupport(np.column_stack([first, 0.3 * (-1.0) ** np.arange(n_cells)])[:, :d])


def _empty_network():
    """No links, one cell: S is zero at every theta, so every statistic is NaN."""
    n = 8
    return Dataset(Network(np.zeros((n, n), dtype=int)), PairCovariates(np.zeros((n, n), dtype=int)), scalar_support(0.0))


def _inputs(tmp_path, data: Dataset, grid: str, alpha: float) -> tuple:
    """The stored dataset and a config naming the grid: (config path, data directory)."""
    data_dir, cfg = tmp_path / "data", tmp_path / "grid.cfg"
    netio.write_network_matrix(data.network, data_dir / "observed_network.csv")
    netio.write_covariates(data.covariates, data_dir / "covariates.csv")
    netio.write_support(data.support, data_dir / "support.csv")
    d = data.support.dimension
    points = " | ".join(", ".join(map(repr, point)) for point in data.support.points.tolist())
    cfg.write_text(
        f"n = {data.n}\nsupport_points = {points}\ntheta_externality = 0.5, 0.25, 0.25\n"
        f"theta_homophily = {', '.join(['0.8'] * d)}\ntheta_fp = 0.05\ntheta_fn = 0.1\n"
        f"alpha = {alpha}\n{grid}"
    )
    return cfg, data_dir


def _run_cli(tmp_path, cfg, data_dir) -> None:
    for command in ("ci", "sp-set"):
        out = tmp_path / "cli" / command
        assert main([command, "--config", str(cfg), "--data", str(data_dir), "--out", str(out)]) == 0


def _check_against_oracle(tmp_path, cfg, data_dir) -> dict:
    """Both summaries, after checking that the command line wrote the oracle's bytes."""
    config, data = parse_config(cfg), harness.load_dataset(data_dir)
    reference_ci(data, config.grid, config.alpha, tmp_path / "oracle" / "ci")
    reference_sp_set(data, config.grid, tmp_path / "oracle" / "sp-set")
    for name in FILES:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "oracle" / name).read_bytes(), name
    return {c: json.loads((tmp_path / "cli" / c / "summary.json").read_text()) for c in ("ci", "sp-set")}


def _run_both(tmp_path, data: Dataset, grid: str, alpha: float = 0.05) -> dict:
    cfg, data_dir = _inputs(tmp_path, data, grid, alpha)
    _run_cli(tmp_path, cfg, data_dir)
    return _check_against_oracle(tmp_path, cfg, data_dir)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n_cells", [1, 2, 3])
def test_cells_and_dimensions(tmp_path, rng, n_cells, d):
    data = Dataset(random_network(rng, 14, 0.55), random_assignment(rng, 14, n_cells), _support(n_cells, d))
    axes = "".join(f"grid_x{k + 1} = 0.8, -2.0\n" for k in range(d))
    grid = f"grid_recip = 0.3, 0.5\n{axes}grid_fp = 0, 0.05, 0.7\ngrid_fn = 0.1, 0.5\n"
    summary = _run_both(tmp_path, data, grid, alpha=1e-6)
    assert summary["ci"]["n_grid"] == 10 * 2**d  # the rate pair (0.7, 0.5) is infeasible
    assert 0 < summary["ci"]["n_accepted"] < summary["ci"]["n_grid"]
    assert summary["sp-set"]["n_member"] < summary["sp-set"]["n_grid"]
    text = (tmp_path / "cli" / "sp-set" / "sp_grid.csv").read_text()
    kinds = {kind for kind in ("fp_bound(", "fn_bound(", "rank(") if kind in text}
    assert kinds == ({"fp_bound(", "fn_bound(", "rank("} if n_cells > 1 else {"fp_bound(", "fn_bound("})


def test_degenerate_statistics(tmp_path):
    grid = "grid_recip = 0\ngrid_indeg = 0\ngrid_common = 0\ngrid_x1 = 0, 1\ngrid_fp = 0, 0.1\ngrid_fn = 0\n"
    summary = _run_both(tmp_path, _empty_network(), grid)
    assert summary["ci"]["n_degenerate"] == summary["ci"]["n_grid"] == 4
    assert (tmp_path / "cli" / "ci" / "ci_grid.csv").read_text().count(",nan,0,degenerate_variance") == 4


def test_no_point_accepted(tmp_path, rng):
    data = Dataset(random_network(rng, 14), random_assignment(rng, 14, 2), scalar_support(-0.5, 0.5))
    grid = "grid_recip = 2, 3\ngrid_x1 = -4, 4\ngrid_fp = 0, 0.3\n"
    summary = _run_both(tmp_path, data, grid, alpha=0.999999)
    assert summary["ci"]["n_accepted"] == 0 and summary["ci"]["projection"] == {}


def test_every_point_a_member(tmp_path):
    grid = "grid_x1 = -1, 1\ngrid_fp = 0, 0.1, 0.5\ngrid_fn = 0, 0.4\n"
    summary = _run_both(tmp_path, tournament_dataset(), grid)
    assert summary["sp-set"]["n_member"] == summary["sp-set"]["n_grid"] == 12


def test_signed_zeros_keep_their_sign(tmp_path, rng):
    """-0.0 == 0.0 and both hash alike, but ``.17g`` writes them as -0 and 0."""
    data = Dataset(random_network(rng, 14), random_assignment(rng, 14, 2), scalar_support(-0.5, 0.5))
    grid = "grid_recip = -0.0, 0.0, 0.5\ngrid_fp = -0.0, 0.0, 0.05\n"
    _run_both(tmp_path, data, grid, alpha=0.5)
    for name in ("ci/ci_grid.csv", "sp-set/sp_grid.csv"):
        lines = (tmp_path / "cli" / name).read_text().splitlines()
        assert lines[1].startswith("-0,") and ",-0,0.10000000000000001," in lines[1]
        assert lines[2].startswith("-0,") and ",0,0.10000000000000001," in lines[2]
        assert lines[4].startswith("0,")


def test_commands_call_the_public_entry_points(tmp_path, monkeypatch, rng):
    """``ci`` makes one call of ``inference.confidence_set`` and ``sp-set`` one
    of ``semiparametric.identified_set``, each looked up on its module, where
    an entry timer that patches the module attribute sees it."""
    data = Dataset(random_network(rng, 14), random_assignment(rng, 14, 2), scalar_support(-0.5, 0.5))
    cfg, data_dir = _inputs(tmp_path, data, "grid_recip = 0.3, 0.7\ngrid_fp = 0, 0.1\n", alpha=0.05)
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in [(inference, "confidence_set"), (semiparametric, "identified_set")]:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for command, name in [("ci", "confidence_set"), ("sp-set", "identified_set")]:
        calls.clear()
        argv = [command, "--config", str(cfg), "--data", str(data_dir), "--out", str(tmp_path / command)]
        assert main(argv) == 0
        assert calls == {name: 1}, command


PER_POINT = {"Theta": (Theta, "__post_init__"), "GridRecord": (GridRecord, "__init__"),
             "MembershipResult": (MembershipResult, "__init__"), "Violation": (Violation, "__init__")}


def _count_constructions(monkeypatch) -> Counter:
    """Count each construction of a per-point type, by wrapping the method its
    ``__init__`` runs."""
    counts = Counter()

    def counting(name, method):
        def wrapper(self, *args, **kwargs):
            counts[name] += 1
            return method(self, *args, **kwargs)
        return wrapper

    for name, (cls, attr) in PER_POINT.items():
        monkeypatch.setattr(cls, attr, counting(name, getattr(cls, attr)))
    return counts


@pytest.mark.parametrize("n_cells", [2, 3])
def test_no_object_per_grid_point(tmp_path, monkeypatch, rng, n_cells):
    """Over 1,088 grid points with all six axes varying, ``ci`` and ``sp-set``
    build no ``Theta`` beyond the ones parsing the config builds, and no
    ``GridRecord``, ``MembershipResult`` or ``Violation``, and they write the
    oracle's bytes.  The benchmark's record form, built on the same grid (a
    ``GridRecord`` and ``membership(cell_summary(...))`` per point), makes at
    least one of each per point, so the counters see construction."""
    data = Dataset(random_network(rng, 16, 0.55), random_assignment(rng, 16, n_cells), _support(n_cells, 1))
    grid = (
        "grid_recip = 0.3, 0.5, 0.7, 0.9\ngrid_indeg = 0.1, 0.25\ngrid_common = 0, 0.25\n"
        "grid_x1 = 0.8, -2.0, 1.5, 3.0\ngrid_fp = 0, 0.02, 0.05, 0.1, 0.3, 0.7\ngrid_fn = 0.1, 0.2, 0.5\n"
    )
    cfg, data_dir = _inputs(tmp_path, data, grid, alpha=0.001)
    counts = _count_constructions(monkeypatch)
    config = parse_config(cfg)
    parsed = dict(counts)
    counts.clear()
    _run_cli(tmp_path, cfg, data_dir)
    made = {name: counts[name] - 2 * parsed.get(name, 0) for name in PER_POINT}
    assert made == dict.fromkeys(PER_POINT, 0)

    summary = _check_against_oracle(tmp_path, cfg, data_dir)
    points = len(config.grid)
    assert summary["ci"]["n_grid"] == points == 1088
    assert 0 < summary["ci"]["n_accepted"] < points and 0 < summary["sp-set"]["n_member"] < points
    counts.clear()
    loaded = harness.load_dataset(data_dir)
    cells = cell_estimates(loaded)
    _, stats, accepted, reasons = confidence_set(loaded, config.grid, config.alpha)
    for theta, *verdict in zip(config.grid, stats.tolist(), accepted.tolist(), reasons):
        GridRecord(theta, *verdict)
        membership(cell_summary(loaded, theta, cells), theta)
    assert min(counts.values()) >= points and counts.keys() == PER_POINT.keys()


def test_column_writer_matches_row_writer(tmp_path):
    """Column by column and row by row, the fields the oracle's row writer
    gives: signed zeros, NaN and infinities, bools against 1 and 1.0, and text
    that needs quoting."""
    columns = [
        np.array([-0.0, 0.0, np.nan, -np.inf, 0.1, 1e-300, -0.0]),
        np.array([True, False, True, True, False, False, True]),
        [True, 1, 1.0, np.float64(1.0), np.True_, None, "1"],
        ["", "a,b", 'say "x"', "two\nlines", "-0", "nan", "plain"],
        np.arange(7),
        np.linspace(0.0, 1.0, 7, dtype=np.float32),
    ]
    header = ["a", "b", "c", "d", "e", "f"]
    netio.write_columns(tmp_path / "columns.csv", header, columns)
    netio.write_table(tmp_path / "rows.csv", header, zip(*columns))
    reference_write_table(tmp_path / "oracle.csv", header, zip(*columns))
    oracle = (tmp_path / "oracle.csv").read_bytes()
    assert (tmp_path / "columns.csv").read_bytes() == oracle
    assert (tmp_path / "rows.csv").read_bytes() == oracle
    with pytest.raises(ValueError):
        netio.write_columns(tmp_path / "ragged.csv", header[:2], [columns[0], columns[1][:-1]])
    with pytest.raises(ValueError):
        netio.write_table(tmp_path / "ragged.csv", header[:2], [[1, 2], [3]])
