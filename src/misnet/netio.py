"""The package's CSV format: every table it reads or writes goes through here.

Network files come in two formats: a matrix CSV (n rows of n comma-separated
0/1 values, no header) and an edge list (first line ``n=<count>``, then a
``i,j`` header and one 0-based link per line).  Covariates are a matrix CSV
of 0-based support indices; the support definition is a CSV with one
``x1..xd`` header row and one point per line.  Networks and covariates need
n >= 2 agents.

The dialect: fields are separated by commas and lines end in ``\\n``.
Writers put floats as ``.17g`` (so they read back exactly) and booleans as
0/1, and quote a field that contains a comma, a quote or a line break.
Readers accept ``\\r\\n`` line ends, blank lines and spaces around fields.
Every parse or domain error raises ``FileFormatError`` naming the line.
Each command's ``summary.json`` is written by :func:`write_summary`, after its
CSV files; the CSV writer makes the directory it writes into.
"""

import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np

from .exceptions import FileFormatError
from .model import CovariateSupport, Network, PairCovariates

__all__ = [
    "write_network_matrix",
    "read_network",
    "write_covariates",
    "read_covariates",
    "write_support",
    "read_support",
    "write_table",
    "write_summary",
]


def _field(value):
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    return value


def _write_rows(path, rows) -> None:
    """The one CSV writer: one line per row of formatted fields, into a
    directory it makes when it is missing."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def write_table(path, header, rows) -> None:
    """Write a header row and then one line per row, in the dialect above."""
    _write_rows(path, [header, *([_field(v) for v in row] for row in rows)])


def write_summary(path, payload: dict) -> None:
    """Write a run summary as indented JSON; strict JSON has no NaN, so a
    non-finite float value is written as null."""
    strict = {
        k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in payload.items()
    }
    Path(path).write_text(json.dumps(strict, indent=2))


def _parse(rows, dtype):
    # some numpy releases read an integer field such as "0.5" through float,
    # truncate it and only warn; as an error it is rejected like any bad token
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=2)


def _read_table(path, skip=0, dtype=np.int64):
    """The non-blank lines after the first ``skip`` as one array.

    Returns the first ``skip`` lines (padded with "" when the file is
    shorter), the array, and the 1-based line number of each of its rows.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    head = (lines + [""] * skip)[:skip]
    numbers = [k + 1 for k in range(skip, len(lines)) if lines[k].strip()]
    rows = [lines[k - 1] for k in numbers]
    if not rows:
        return head, np.empty((0, 0), dtype=dtype), numbers
    try:
        return head, _parse(rows, dtype), numbers
    except (ValueError, DeprecationWarning) as exc:
        # locate the first line that does not parse, or whose width differs
        width = None
        for number, row in zip(numbers, rows):
            try:
                columns = _parse([row], dtype).shape[1]
            except (ValueError, DeprecationWarning) as row_exc:
                raise FileFormatError(path, number, str(row_exc).replace("row 0, ", "")) from row_exc
            width = columns if width is None else width
            if columns != width:
                raise FileFormatError(path, number, f"expected {width} columns, got {columns}") from exc
        raise FileFormatError(path, numbers[0], str(exc)) from exc


def _reject(path, numbers, bad_rows, message) -> None:
    """Raise at the line of the first row flagged in ``bad_rows``."""
    bad = np.flatnonzero(bad_rows)
    if bad.size:
        raise FileFormatError(path, numbers[bad[0]], message)


def _read_square(path):
    """A matrix CSV of integers for n >= 2 agents, with its row line numbers."""
    _, table, numbers = _read_table(path)
    n = table.shape[0]
    if n < 2:
        raise FileFormatError(path, numbers[0] if numbers else 1, f"agent count {n} is below 2")
    if table.shape[1] != n:
        raise FileFormatError(path, numbers[0], f"expected {n} columns, got {table.shape[1]}")
    return table, numbers


def write_network_matrix(network: Network, path) -> None:
    _write_rows(path, (row.tolist() for row in network.adj))


def read_network(path) -> Network:
    """Read either format; edge lists are recognized by their ``n=`` first line."""
    path = Path(path)
    with open(path) as fh:
        edge_list = fh.readline().startswith("n=")
    if edge_list:
        return _read_edge_list(path)
    table, numbers = _read_square(path)
    _reject(path, numbers, ~((table == 0) | (table == 1)).all(axis=1), "expected 0/1 entries")
    _reject(path, numbers, np.diagonal(table) != 0, "diagonal must be zero")
    return Network(table)


def _read_edge_list(path) -> Network:
    head, edges, numbers = _read_table(path, skip=2)
    try:
        n = int(head[0].partition("=")[2])
    except ValueError as exc:
        raise FileFormatError(path, 1, "cannot parse agent count") from exc
    if n < 2:
        raise FileFormatError(path, 1, f"agent count {n} is below 2")
    if head[1].strip() != "i,j":
        raise FileFormatError(path, 2, "expected 'i,j' header")
    if numbers and edges.shape[1] != 2:
        raise FileFormatError(path, numbers[0], "expected two fields 'i,j'")
    i, j = edges.reshape(-1, 2).T
    bad = (i < 0) | (i >= n) | (j < 0) | (j >= n) | (i == j)
    _reject(path, numbers, bad, f"edge out of range or a self-loop for n={n}")
    adj = np.zeros((n, n), dtype=np.int8)
    adj[i, j] = 1
    return Network(adj)


def write_covariates(covariates: PairCovariates, path) -> None:
    _write_rows(path, (row.tolist() for row in covariates.assignment))


def read_covariates(path, n_cells: int | None = None) -> PairCovariates:
    """Cell indices, each below ``n_cells`` (the support size) when it is given."""
    path = Path(path)
    table, numbers = _read_square(path)
    _reject(path, numbers, (table < 0).any(axis=1), "cell indices must be non-negative")
    if n_cells is not None:
        _reject(path, numbers, (table >= n_cells).any(axis=1),
                f"cell index outside the support of {n_cells} points")
    return PairCovariates(table)


def write_support(support: CovariateSupport, path) -> None:
    header = [f"x{k + 1}" for k in range(support.dimension)]
    write_table(path, header, support.points.tolist())


def read_support(path) -> CovariateSupport:
    path = Path(path)
    head, points, _ = _read_table(path, skip=1, dtype=float)
    if not head[0].startswith("x1"):
        raise FileFormatError(path, 1, "expected header row starting with x1")
    width = len(head[0].split(","))
    if points.size and points.shape[1] != width:
        raise FileFormatError(path, 1, f"header names {width} columns, points have {points.shape[1]}")
    try:
        return CovariateSupport(points)
    except ValueError as exc:
        raise FileFormatError(path, 2, str(exc)) from exc
