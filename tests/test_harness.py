"""Config parsing, file formats, the Monte Carlo driver, and the CLI."""

import builtins
import codecs
import csv
import dataclasses
import io
import json
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from misnet import (
    ConfigError,
    CovariateSupport,
    FileFormatError,
    MomentEvaluator,
    Network,
    PairCovariates,
    solve_equilibrium,
)
from misnet import harness
from misnet.cli import main
from misnet.config import parse_config, parse_config_text
from misnet.equilibrium import simulate_true_network
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

from conftest import circulant_covariates, peak_bytes, report_statistics, scalar_support
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

    def test_byte_order_mark_skipped(self, tmp_path):
        """A config file that starts with a UTF-8 byte-order mark, as Notepad
        writes it, parses as the same file without one, and so does config
        text that starts with the mark; the mark is not part of the first key."""
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        text = BASE_CONFIG.lstrip().partition("\n")[2]  # no comment line: ``n`` follows the mark
        assert text.startswith("n = ")
        plain.write_text(text)
        marked.write_bytes(codecs.BOM_UTF8 + text.encode())
        assert repr(parse_config(marked)) == repr(parse_config(plain))
        assert repr(parse_config_text("\ufeff" + text)) == repr(parse_config_text(text))

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


def _matrix_bytes(table) -> bytes:
    """A table in the matrix writers' layout: fields joined by commas, lines ended by \\n."""
    return "".join(",".join(map(str, row)) + "\n" for row in table).encode()


def _read_path_cases():
    """Each case: a reader, the file's bytes, and whether the byte path takes the file."""
    rng = np.random.default_rng(19)

    def network(n):
        adj = (rng.random((n, n)) < 0.4).astype(int)
        np.fill_diagonal(adj, 0)
        return adj

    def read_network(path):
        return netio.read_network(path).adj

    def read_cells(n_cells):
        return lambda path: netio.read_covariates(path, n_cells).assignment

    net3 = _matrix_bytes(network(3))
    with_two, with_loop = network(3), network(3)
    with_two[1, 2], with_loop[2, 2] = 2, 1
    outside = rng.integers(0, 2, (5, 5))
    outside[3, 1] = 2
    wide = rng.integers(0, 12, (4, 4))
    wide[1, 2], wide[3, 0] = 10, 11
    cases = {}
    for n in [2, 3, 40]:
        cases[f"network n={n}"] = (read_network, _matrix_bytes(network(n)), True)
        cases[f"covariates n={n}"] = (read_cells(None), _matrix_bytes(rng.integers(0, 3, (n, n))), True)
    cases |= {
        "network with a 2": (read_network, _matrix_bytes(with_two), True),
        "network with a diagonal 1": (read_network, _matrix_bytes(with_loop), True),
        "cell index of J": (read_cells(2), _matrix_bytes(outside), True),
        "no final newline": (read_network, net3[:-1], False),
        "CRLF": (read_network, net3.replace(b"\n", b"\r\n"), False),
        "misplaced comma": (read_network, net3[:1] + net3[2:3] + net3[1:2] + net3[3:], False),
        "digit for a comma": (read_network, net3[:3] + net3[2:3] + net3[4:], False),
        "line end moved": (read_network, net3[:5] + net3[7:8] + net3[6:7] + net3[5:6] + net3[8:], False),
        "comma for a line end": (read_network, net3[:5] + b"," + net3[6:], False),
        "one agent": (read_network, b"0\n", False),
        "cells 10 and 11 of 12": (read_cells(12), _matrix_bytes(wide), False),
    }
    for byte in "-. /":
        cases[f"{byte!r} at a digit"] = (read_network, net3[:2] + byte.encode() + net3[3:], False)
    return cases


_READ_PATH_CASES = _read_path_cases()


def _outcome(read, path):
    """What a read gives, in a form that ``==`` compares: the array's dtype
    and values, or the error's line and message."""
    try:
        table = read(path)
    except FileFormatError as exc:
        return "error", exc.line, str(exc)
    return "table", table.dtype.str, table.tolist()


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
        """A copy with CRLF line ends, one with spaces around the fields, one
        with a trailing blank line, one with spaces around the fields of its
        header row (``i, j`` or `` x1 , x2``) and one with a blank line before
        each head row and the first data row read to the same arrays."""
        adj = (rng.random((5, 5)) < 0.5).astype(int)
        np.fill_diagonal(adj, 0)
        netio.write_network_matrix(Network(adj), tmp_path / "net.csv")
        write_network_edges(Network(adj), tmp_path / "edges.csv")
        netio.write_covariates(PairCovariates(rng.integers(0, 3, (5, 5))), tmp_path / "cov.csv")
        netio.write_support(scalar_support(-0.5, 0.25, 0.5), tmp_path / "support.csv")
        plane = CovariateSupport(np.array([[-0.5, 0.0], [-0.5, 1.0], [0.5, 0.0]]))
        netio.write_support(plane, tmp_path / "plane.csv")
        cases = [  # file, reader, head lines, the header row with spaces around its fields
            ("net.csv", lambda p: netio.read_network(p).adj, 0, None),
            ("edges.csv", lambda p: netio.read_network(p).adj, 2, "i, j"),
            ("cov.csv", lambda p: netio.read_covariates(p).assignment, 0, None),
            ("support.csv", lambda p: netio.read_support(p).points, 1, " x1 "),
            ("plane.csv", lambda p: netio.read_support(p).points, 1, " x1 , x2"),
        ]
        for name, read, head, spaced in cases:
            text = (tmp_path / name).read_text()
            lines = text.splitlines()
            padded = lines[:head] + [f" {line.replace(',', ' , ')} " for line in lines[head:]]
            variants = [text.replace("\n", "\r\n"), "\n".join(padded) + "\n", text + "\n"]
            if spaced:
                variants.append("\n".join(lines[: head - 1] + [spaced] + lines[head:]) + "\n")
            variants.append("".join(f"\n{line}\n" if k <= head else f"{line}\n" for k, line in enumerate(lines)))
            expected = read(tmp_path / name)
            for variant in variants:
                path = tmp_path / f"variant_{name}"
                path.write_text(variant, newline="")
                assert np.array_equal(read(path), expected), (name, variant)

    def test_byte_order_mark_skipped(self, tmp_path, rng, monkeypatch):
        """A matrix network, an edge list, a covariates file and a support file
        that start with a UTF-8 byte-order mark read to the same arrays as the
        same files without one; the one-digit matrices are still read as
        bytes, with ``np.loadtxt``'s wrapper failing."""
        adj = (rng.random((5, 5)) < 0.5).astype(int)
        np.fill_diagonal(adj, 0)
        netio.write_network_matrix(Network(adj), tmp_path / "net.csv")
        write_network_edges(Network(adj), tmp_path / "edges.csv")
        netio.write_covariates(PairCovariates(rng.integers(0, 3, (5, 5))), tmp_path / "cov.csv")
        netio.write_support(scalar_support(-0.5, 0.25, 0.5), tmp_path / "support.csv")

        def no_parse(rows, dtype):
            raise AssertionError("parsed by np.loadtxt")

        for name, read, one_digit in [
            ("net.csv", lambda p: netio.read_network(p).adj, True),
            ("edges.csv", lambda p: netio.read_network(p).adj, False),
            ("cov.csv", lambda p: netio.read_covariates(p).assignment, True),
            ("support.csv", lambda p: netio.read_support(p).points, False),
        ]:
            marked = tmp_path / f"marked_{name}"
            marked.write_bytes(codecs.BOM_UTF8 + (tmp_path / name).read_bytes())
            expected = read(tmp_path / name)
            with monkeypatch.context() as patch:
                if one_digit:
                    patch.setattr(netio, "_parse", no_parse)
                got = read(marked)
            assert got.dtype == expected.dtype and np.array_equal(got, expected), name

    def test_each_reader_reads_its_file_once(self, tmp_path, rng, monkeypatch):
        """On a one-digit matrix, a general matrix, an edge list, a covariates
        file and a support, the public reader opens its file once and never
        calls ``np.fromfile``."""
        adj = (rng.random((5, 5)) < 0.5).astype(int)
        np.fill_diagonal(adj, 0)
        netio.write_network_matrix(Network(adj), tmp_path / "net.csv")
        (tmp_path / "general.csv").write_bytes((tmp_path / "net.csv").read_bytes().replace(b"\n", b"\r\n"))
        write_network_edges(Network(adj), tmp_path / "edges.csv")
        netio.write_covariates(PairCovariates(rng.integers(0, 3, (5, 5))), tmp_path / "cov.csv")
        netio.write_support(scalar_support(-0.5, 0.5), tmp_path / "support.csv")
        opened, real_open = [], io.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file).parent == tmp_path:
                opened.append(Path(file).name)
            return real_open(file, *args, **kwargs)

        def no_fromfile(*args, **kwargs):
            raise AssertionError("np.fromfile called")

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(np, "fromfile", no_fromfile)
        for name, read in [
            ("net.csv", netio.read_network),
            ("general.csv", netio.read_network),
            ("edges.csv", netio.read_network),
            ("cov.csv", netio.read_covariates),
            ("support.csv", netio.read_support),
        ]:
            opened.clear()
            read(tmp_path / name)
            assert opened == [name], (name, opened)

    def test_head_row_error_named_at_its_line(self, tmp_path):
        """An edge list's count or header row, or a support's header row, after
        blank lines is checked where it stands, and an error in it (or a
        missing header or first point) is named at its own line."""
        path = tmp_path / "data.csv"
        for read, text, line, message in [
            (netio.read_network, "\n\nn=abc\ni,j\n0,1\n", 3, "cannot parse agent count"),
            (netio.read_network, "\nn=1\ni,j\n", 2, "agent count 1 is below 2"),
            (netio.read_network, "n=3\n\n\na,b\n0,1\n", 4, "expected header row 'i,j'"),
            (netio.read_network, "n=3\n\n", 2, "expected header row 'i,j'"),
            (netio.read_support, "\n\nx1,x3\n-0.5,0\n", 3, "expected header row 'x1,x2'"),
            (netio.read_support, "\nx1,x2\n-0.5\n0.5\n", 2, "header names 2 columns, points have 1"),
            (netio.read_support, "\n\nx1\n\n", 4, "support must be a non-empty"),
        ]:
            path.write_text(text)
            with pytest.raises(FileFormatError, match=message) as excinfo:
                read(path)
            assert excinfo.value.line == line, text

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

    @pytest.mark.parametrize("case", list(_READ_PATH_CASES))
    def test_byte_path_reads_like_the_general_parser(self, tmp_path, monkeypatch, case):
        """A matrix file gives the same table values, line numbers and domain
        result, or the same error line and message, whether or not the byte
        path may take it; the byte path takes exactly the writers' one-digit
        layout, whose digits it keeps as uint8."""
        read, content, byte_path = _READ_PATH_CASES[case]
        path = tmp_path / "matrix.csv"
        path.write_bytes(content)
        assert (netio._read_digits(content) is not None) == byte_path
        readers = [
            lambda p: netio._read_square(p, content)[0].astype(np.int64),
            lambda p: np.asarray(netio._read_square(p, content)[1]),
            read,
        ]
        fast = [_outcome(r, path) for r in readers]
        monkeypatch.setattr(netio, "_read_digits", lambda raw: None)
        assert fast == [_outcome(r, path) for r in readers]

    @pytest.mark.parametrize("n", [2, 40])
    def test_writer_output_skips_loadtxt(self, tmp_path, rng, monkeypatch, n):
        """The matrices that the writers and ``run_simulate`` write are read
        without ``np.loadtxt``: with its wrapper failing on integer tables,
        ``read_network``, ``read_covariates`` and ``load_dataset`` still read
        them as the general parser does (``support.csv`` is a float table and
        still parses through it)."""
        adj = (rng.random((n, n)) < 0.4).astype(int)
        np.fill_diagonal(adj, 0)
        assignment = rng.integers(0, 3, (n, n))
        netio.write_network_matrix(Network(adj), tmp_path / "net.csv")
        netio.write_covariates(PairCovariates(assignment), tmp_path / "cov.csv")
        run_simulate(parse_config_text(BASE_CONFIG.replace("n = 40", f"n = {n}")), tmp_path / "data")
        with monkeypatch.context() as general:
            general.setattr(netio, "_read_digits", lambda path: None)
            expected = load_dataset(tmp_path / "data")
        parse = netio._parse

        def parse_floats_only(rows, dtype):
            assert dtype is float, "an integer matrix was parsed by np.loadtxt"
            return parse(rows, dtype)

        monkeypatch.setattr(netio, "_parse", parse_floats_only)
        assert np.array_equal(netio.read_network(tmp_path / "net.csv").adj, adj)
        assert np.array_equal(netio.read_covariates(tmp_path / "cov.csv").assignment, assignment)
        data = load_dataset(tmp_path / "data")
        assert data.n == n
        assert np.array_equal(data.network.adj, expected.network.adj)
        assert np.array_equal(data.covariates.assignment, expected.covariates.assignment)

    def test_undecodable_byte_named_at_its_line(self, tmp_path):
        """A byte that is not UTF-8 is a format error at its line, in every
        reader and with any line ends."""
        path = tmp_path / "bad.csv"
        for read, content, line in [
            (netio.read_network, b"\xff\xfe0,1\n1,0\n", 1),
            (netio.read_network, b"0,1,0\r\n1,0,1\r\n\r\n0,\xe9,0\r\n", 4),
            (netio.read_covariates, b"0,1\n\xff,0\n", 2),
            (netio.read_network, b"n=3\ni,j\n0,1\n\x80\n", 4),
            (netio.read_support, b"x1\n-0.5\n0.5\xc3\n", 3),
        ]:
            path.write_bytes(content)
            with pytest.raises(FileFormatError, match="is not UTF-8 text") as excinfo:
                read(path)
            assert excinfo.value.line == line, content

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

    def test_covariates_read_as_narrow_labels(self, tmp_path, rng, monkeypatch):
        """A one-digit file's uint8 bytes become the labels with no wider copy,
        within 6 n^2 bytes at n = 300 where an int64 copy alone takes 8 n^2;
        the general parser's table is narrowed alike."""
        n = 300
        assignment = rng.integers(0, 10, (n, n))
        path = tmp_path / "cov.csv"
        netio.write_covariates(PairCovariates(assignment), path)
        read = lambda: netio.read_covariates(path, 10).assignment
        assert read().dtype == np.uint8 and np.array_equal(read(), assignment)
        assert peak_bytes(read) <= 6 * n * n
        monkeypatch.setattr(netio, "_read_digits", lambda path: None)
        assert read().dtype == np.uint8 and np.array_equal(read(), assignment)
        path.write_text("0, 256\n1, 0\n")
        assert netio.read_covariates(path).assignment.dtype == np.uint16

    def test_network_read_drops_the_file_bytes(self, tmp_path, rng):
        """A one-digit network file's 2 n^2 bytes are not held beside the
        digits and the network's int8 copy: at n = 300 the read holds at most
        4.5 n^2 bytes."""
        n = 300
        adj = (rng.random((n, n)) < 0.4).astype(int)
        np.fill_diagonal(adj, 0)
        path = tmp_path / "net.csv"
        netio.write_network_matrix(Network(adj), path)
        assert peak_bytes(lambda: netio.read_network(path)) <= 4.5 * n * n

    def test_support_roundtrip(self, tmp_path):
        support = scalar_support(-0.5, 0.5)
        path = tmp_path / "support.csv"
        netio.write_support(support, path)
        assert np.allclose(netio.read_support(path).points, support.points)

    @pytest.mark.parametrize("n", [2, 40])
    def test_matrix_writers_match_savetxt(self, tmp_path, rng, n):
        """An int8 network and a uint8 design with a non-zero diagonal are
        written as ``np.savetxt(path, a, fmt="%d", delimiter=",")`` writes them."""
        adj = (rng.random((n, n)) < 0.4).astype(np.int8)
        np.fill_diagonal(adj, 0)
        assignment = rng.integers(0, 3, (n, n))
        np.fill_diagonal(assignment, 2)
        network, covariates = Network(adj), PairCovariates(assignment)
        assert network.adj.dtype == np.int8 and covariates.assignment.dtype == np.uint8
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

    def test_support_error_named_at_its_line(self, tmp_path):
        """A repeated or non-finite support point is reported by ``load_dataset``
        at its own line, not at the first point's."""
        run_simulate(parse_config_text(BASE_CONFIG), tmp_path)
        for text, line, message in [
            ("x1\n-0.5\n-0.5\n", 3, "distinct and lexicographically increasing"),
            ("x1\n-0.5\nnan\n", 3, "must be finite"),
            ("x1\n-0.5\n\n0.5\n0.25\n", 5, "distinct and lexicographically increasing"),
        ]:
            (tmp_path / "support.csv").write_text(text)
            with pytest.raises(FileFormatError, match=message) as excinfo:
                load_dataset(tmp_path)
            assert excinfo.value.line == line, text
            assert Path(excinfo.value.path).name == "support.csv"

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
        # the solver's link probabilities drawn with child 1's uniforms equal the public path
        cfg = parse_config_text(BASE_CONFIG.replace("x_mode = fixed", f"x_mode = {x_mode}"))
        paths = run_simulate(cfg, tmp_path)
        covariates = netio.read_covariates(paths["covariates"], cfg.support.n_points)
        th = cfg.theta
        args = (covariates, cfg.support, th.externality, th.homophily)
        beliefs = solve_equilibrium(*args, cfg.solver)
        links = replication_seed(cfg.seed, 0).spawn(3)[1]
        expected = simulate_true_network(beliefs, *args, seed=links)
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
                0.3350858311649723,
                3.227555595626366,
                0.07255122425600956,
                4.118114197209114,
                0.04332318295933696,
            ],
            [3.746325472064882e-11] * 5,  # one design, solved once
        ),
        "fresh": (
            [
                2.0152328626244156,
                7.300036844264793,
                0.05076435805679922,
                4.849438490177837,
                0.6987112056063569,
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

    def test_ks_distance_bit_equal_to_kstest(self):
        """The KS distance is ``kstest``'s against the chi-square cdf bit for bit,
        on samples with zeros and ties and on a coverage report."""
        from scipy.stats import chi2, kstest

        rng = np.random.default_rng(31)
        for k in range(500):
            n, dof = int(rng.integers(1, 301)), int(rng.integers(1, 9))
            sample = rng.chisquare(dof, n)
            if k % 3 == 0:
                sample[rng.random(n) < 0.2] = 0.0
            if k % 4 == 0:
                sample = np.round(sample, 1)
            assert harness._ks_distance(sample, dof) == float(kstest(sample, chi2(dof).cdf).statistic)
        report = run_mc_coverage(parse_config_text(BASE_CONFIG))
        oracle = kstest(report_statistics(report), chi2(report.dof).cdf).statistic
        assert report.ks_distance == float(oracle)

    def test_parallel_matches_serial(self):
        cfg = parse_config_text(BASE_CONFIG.replace("replications = 4", "replications = 6"))
        serial = run_mc_coverage(dataclasses.replace(cfg, threads=1))
        pooled = run_mc_coverage(dataclasses.replace(cfg, threads=2))
        assert [r.statistic for r in serial.records] == [r.statistic for r in pooled.records]
        assert serial.coverage == pooled.coverage

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("x_mode", ["fixed", "fresh"])
    def test_pooled_runs_bit_identical(self, tmp_path, x_mode, threads):
        """Every record field, the residual included, and the report files of a
        pooled run equal the one-worker run's while the threads switch often;
        on a fresh design the workers solve concurrently, where concurrent BLAS
        calls would show."""
        text = BASE_CONFIG.replace("n = 40", "n = 200").replace("replications = 4", "replications = 6")
        cfg = parse_config_text(text.replace("x_mode = fixed", f"x_mode = {x_mode}"))
        serial = run_mc_coverage(dataclasses.replace(cfg, threads=1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so that a race between workers shows
        try:
            pooled = run_mc_coverage(dataclasses.replace(cfg, threads=threads))
        finally:
            sys.setswitchinterval(interval)
        assert serial.n_failed == 0
        assert [dataclasses.astuple(r) for r in pooled.records] == [
            dataclasses.astuple(r) for r in serial.records
        ]
        files = [write_report(report, tmp_path / name) for name, report in [("1", serial), ("n", pooled)]]
        for key in ["replications", "summary"]:
            assert Path(files[1][key]).read_bytes() == Path(files[0][key]).read_bytes(), key

    @pytest.mark.parametrize("threads", [1, 2])
    def test_error_stops_the_pool(self, monkeypatch, threads):
        """An error that is not a ``MisnetError`` is re-raised, and the
        replications not yet started are cancelled instead of run."""
        started = []
        draw = harness._draw_dataset

        def failing(config, seed, design):
            index = seed.entropy[-1]
            started.append(index)
            if index == 3:
                raise RuntimeError("replication 3 broke")
            time.sleep(0.02)  # each replication outlasts the pool's reaction to the error
            return draw(config, seed, design)

        monkeypatch.setattr(harness, "_draw_dataset", failing)
        cfg = parse_config_text(BASE_CONFIG.replace("replications = 4", "replications = 40"))
        with pytest.raises(RuntimeError, match="replication 3 broke"):
            run_mc_coverage(dataclasses.replace(cfg, threads=threads))
        assert 3 in started and len(started) < 10, sorted(started)

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


class TestReplicationRecipe:
    """``simulate`` and every coverage replication draw their data through one
    recipe, and a design that replications share is solved once per run."""

    DESIGNS = ["fixed", "fresh", "x_file"]

    def _config_text(self, tmp_path, design):
        if design == "x_file":
            path = tmp_path / "design.csv"
            netio.write_covariates(circulant_covariates(40), path)
            return BASE_CONFIG + f"x_file = {path}\n"
        return BASE_CONFIG.replace("x_mode = fixed", f"x_mode = {design}")

    @pytest.mark.parametrize("design", DESIGNS)
    def test_simulate_writes_replication_zero(self, tmp_path, design):
        """``estimate`` on ``simulate``'s files gives row 0 of ``mc-coverage``
        bit for bit, and so does the equilibrium residual."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self._config_text(tmp_path, design))
        data, est, mc = (str(tmp_path / name) for name in ("data", "est", "mc"))
        assert main(["simulate", "--config", str(cfg), "--out", data]) == 0
        assert main(["estimate", "--config", str(cfg), "--data", data, "--out", est]) == 0
        assert main(["mc-coverage", "--config", str(cfg), "--out", mc]) == 0
        simulated = json.loads((Path(data) / "summary.json").read_text())
        estimated = json.loads((Path(est) / "summary.json").read_text())
        with open(Path(mc) / "replications.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["index"] == "0" and row["error"] == ""
        assert estimated["statistic"] == float(row["statistic"])
        assert simulated["equilibrium_residual"] == float(row["residual"])

    @pytest.mark.parametrize("design", DESIGNS)
    def test_one_solve_per_design(self, tmp_path, monkeypatch, design):
        """A fixed or ``x_file`` design is solved once per coverage run, a fresh
        one once per replication; ``simulate`` solves once."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve_equilibrium(*args, **kwargs)

        monkeypatch.setattr(harness, "solve_equilibrium", counted)
        config = parse_config_text(self._config_text(tmp_path, design))
        assert config.threads == 1 and config.replications == 4
        assert run_mc_coverage(config).n_failed == 0
        assert len(calls) == (4 if design == "fresh" else 1)
        calls.clear()
        run_simulate(config, tmp_path / "data")
        assert len(calls) == 1


def _config_with(line):
    """``BASE_CONFIG`` with the key of ``line`` given the value of ``line``."""
    key = line.partition("=")[0].strip()
    kept = [row for row in BASE_CONFIG.splitlines() if row.partition("=")[0].strip() != key]
    return "\n".join([*kept, line]) + "\n"


# a config line that is refused, and the message that names its key
_CONFIG_ERRORS = {
    "n not a number": ("n = abc", "key n: cannot parse 'abc'"),
    "tol negative": ("tol = -1", "tol must be positive"),
    "max_iter zero": ("max_iter = 0", "max_iter must be at least 1"),
    "damping zero": ("damping = 0", "damping must lie in (0, 1]"),
    "x_mode unknown": ("x_mode = both", "x_mode must be 'fresh' or 'fixed'"),
    "support_points ragged": ("support_points = -0.5 | 0.5, 1", "support_points rows have inconsistent"),
    "support_points empty": ("support_points = |", "support_points is empty"),
    "support_points unordered": ("support_points = 0.5 | -0.5", "support_points: support points must"),
    "grid_fp two parts": ("grid_fp = 0:1", "key grid_fp: axis must be lo:hi:count"),
    "grid_fp bad bounds": ("grid_fp = a:b:3", "key grid_fp: cannot parse axis 'a:b:3'"),
    "grid_fp no points": ("grid_fp = 0:1:0", "key grid_fp: axis count must be at least 1"),
    "grid_fp nan": ("grid_fp = nan", "grid keys grid_fp: grid axes must be non-empty and finite"),
    "grid_fp negative": ("grid_fp = -0.1, 0.1", "grid keys grid_fp: rate axes must be non-negative"),
    "support_probs length": ("support_probs = 0.2, 0.3, 0.5", "support_probs needs 2 entries, got 3"),
    "theta_externality size": ("theta_externality = 0.5, 0.25", "theta_externality needs exactly 3"),
    "theta_homophily size": ("theta_homophily = 0.8, 0.1", "theta_homophily needs 1 components"),
    "theta_homophily not a number": ("theta_homophily = high", "key theta_homophily: cannot parse 'high'"),
}

# a data file's replacement text, and the line and message its error names
_DATA_ERRORS = {
    "matrix not square": ("observed_network.csv", "0,1,0\n1,0,1\n", 1, "expected 2 columns, got 3"),
    "support without header": ("support.csv", "-0.5\n0.5\n", 1, "expected header row 'x1'"),
    "support header x1,y": ("support.csv", "x1,y\n-0.5,0\n0.5,1\n", 1, "expected header row 'x1,x2'"),
    "support header x2,x1": ("support.csv", "x2,x1\n-0.5,0\n0.5,1\n", 1, "expected header row 'x1,x2'"),
    "support without points": ("support.csv", "x1\n", 2, "support must be a non-empty"),
    "support with nan": ("support.csv", "x1\n-0.5\nnan\n", 3, "support points must be finite"),
    "edge list count": ("observed_network.csv", "n=abc\ni,j\n0,1\n", 1, "cannot parse agent count"),
    "edge list header": ("observed_network.csv", "n=40\na,b\n0,1\n", 2, "expected header row 'i,j'"),
    "edge list header after a blank line": (
        "observed_network.csv", "n=40\n\na,b\n0,1\n", 3, "expected header row 'i,j'"
    ),
    "edge list fields": ("observed_network.csv", "n=40\ni,j\n0,1,2\n", 3, "expected two fields 'i,j'"),
}


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
        assert np.array_equal(variance, MomentEvaluator(load_dataset(data_dir)).evaluate(theta)[1])
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

    def test_out_of_range_override_exit_code(self, tmp_path, capsys):
        """Command-line overrides are parsed and range-checked as the config
        file's lines are: each bad one exits 2 with a message naming its key,
        and creates no --out."""
        cfg = self._write_config(tmp_path)
        out = tmp_path / "mc"
        for key, value in [
            ("seed", "-1"), ("seed", str(2**64)), ("threads", "0"),
            ("seed", "abc"), ("seed", "1.5"), ("alpha", "1.5"),
        ]:
            assert main(["mc-coverage", "--config", cfg, "--out", str(out), f"--{key}", value]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: key {key}:"), err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "mc-coverage"])
    def test_seed_override_equals_the_file_value(self, tmp_path, command):
        """``--seed 5`` over a file with ``seed = 0`` writes the same bytes as
        a file with ``seed = 5``; only the output paths in ``simulate``'s
        summary differ."""
        overridden, direct = tmp_path / "overridden", tmp_path / "direct"
        for line, out, flags in [("seed = 0", overridden, ["--seed", "5"]), ("seed = 5", direct, [])]:
            cfg = self._write_config(tmp_path, _config_with(line))
            assert main([command, "--config", cfg, "--out", str(out), *flags]) == 0
        names = sorted(path.name for path in direct.iterdir())
        assert names == sorted(path.name for path in overridden.iterdir())
        for name in names:
            ours, theirs = (overridden / name).read_bytes(), (direct / name).read_bytes()
            if command == "simulate" and name == "summary.json":
                ours = ours.replace(str(overridden).encode(), str(direct).encode())
            assert ours == theirs, name

    @pytest.mark.parametrize("case", list(_CONFIG_ERRORS))
    def test_config_value_error_exit_code(self, tmp_path, capsys, case):
        """A config value that cannot be used exits 2 with a message naming
        its key, and creates no --out."""
        line, message = _CONFIG_ERRORS[case]
        cfg = self._write_config(tmp_path, _config_with(line))
        out = tmp_path / "o"
        assert main(["mc-coverage", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err, err
        assert not out.exists()

    @pytest.mark.parametrize("case", list(_DATA_ERRORS))
    def test_data_error_names_path_and_line(self, tmp_path, capsys, case):
        """A malformed data file makes every data command exit 2 with its
        ``path:line`` in the message, and create no --out."""
        name, text, line, message = _DATA_ERRORS[case]
        cfg = self._write_config(tmp_path)
        data_dir = tmp_path / "data"
        assert main(["simulate", "--config", cfg, "--out", str(data_dir)]) == 0
        (data_dir / name).write_text(text)
        capsys.readouterr()
        for command in ["estimate", "ci", "sp-set"]:
            out = tmp_path / command
            assert main([command, "--config", cfg, "--data", str(data_dir), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"{data_dir / name}:{line}: {message}" in err, (command, err)
            assert not out.exists(), command

    def test_config_directory_exit_code(self, tmp_path, capsys):
        """A config path that cannot be opened as a file is a config error."""
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(tmp_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:") and not out.exists()

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(BASE_CONFIG.encode() + b"# caf\xe9\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        line = BASE_CONFIG.count("\n") + 1
        assert f"line {line}: byte 0xe9" in capsys.readouterr().err and not out.exists()

    def test_non_utf8_data_file_exit_code(self, tmp_path):
        """A data file that starts with a UTF-16 byte-order mark is an input error."""
        cfg = self._write_config(tmp_path)
        data_dir = tmp_path / "data"
        assert main(["simulate", "--config", cfg, "--out", str(data_dir)]) == 0
        (data_dir / "observed_network.csv").write_bytes(b"\xff\xfe0\x00,\x001\x00\n\x00")
        for command in ["estimate", "ci", "sp-set"]:
            out = tmp_path / command
            assert main([command, "--config", cfg, "--data", str(data_dir), "--out", str(out)]) == 2
            assert not out.exists(), command

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
