"""CSV readers and writers for networks, covariates and support definitions.

Network files come in two formats: a matrix CSV (n rows of n comma-separated
0/1 values, no header) and an edge list (first line ``n=<count>``, then a
``i,j`` header and one 0-based link per line).  Covariates are a matrix CSV
of 0-based support indices; the support definition is a CSV with one
``x1..xd`` header row and one point per line.  Parse failures name the
offending line.
"""

import csv
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
]


def write_network_matrix(network: Network, path) -> None:
    np.savetxt(path, network.adj, fmt="%d", delimiter=",")


def _read_rows(path):
    with open(path, newline="") as fh:
        return [line.rstrip("\n") for line in fh]


def read_network(path) -> Network:
    """Read either format; edge lists are recognized by their ``n=`` first line."""
    path = Path(path)
    rows = _read_rows(path)
    if not rows:
        raise FileFormatError(path, 1, "empty network file")
    if rows[0].startswith("n="):
        return _read_edge_list(path, rows)
    return _read_matrix(path, rows)


def _read_matrix(path, rows) -> Network:
    parsed = []
    for lineno, row in enumerate(rows, start=1):
        if not row.strip():
            continue
        fields = row.split(",")
        values = []
        for tok in fields:
            tok = tok.strip()
            if tok not in ("0", "1"):
                raise FileFormatError(path, lineno, f"expected 0/1 entries, got '{tok}'")
            values.append(int(tok))
        parsed.append(values)
    n = len(parsed)
    for lineno, values in enumerate(parsed, start=1):
        if len(values) != n:
            raise FileFormatError(path, lineno, f"expected {n} columns, got {len(values)}")
    try:
        return Network(np.array(parsed, dtype=np.int8))
    except ValueError as exc:
        raise FileFormatError(path, 1, str(exc)) from exc


def _read_edge_list(path, rows) -> Network:
    try:
        n = int(rows[0].partition("=")[2])
    except ValueError as exc:
        raise FileFormatError(path, 1, "cannot parse agent count") from exc
    if n < 2:
        raise FileFormatError(path, 1, f"agent count {n} is below 2")
    if len(rows) < 2 or rows[1].strip() != "i,j":
        raise FileFormatError(path, 2, "expected 'i,j' header")
    adj = np.zeros((n, n), dtype=np.int8)
    for lineno, row in enumerate(rows[2:], start=3):
        if not row.strip():
            continue
        fields = row.split(",")
        if len(fields) != 2:
            raise FileFormatError(path, lineno, "expected two fields 'i,j'")
        try:
            i, j = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise FileFormatError(path, lineno, f"cannot parse edge '{row}'") from exc
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise FileFormatError(path, lineno, f"edge ({i},{j}) out of range for n={n}")
        adj[i, j] = 1
    return Network(adj)


def write_covariates(covariates: PairCovariates, path) -> None:
    np.savetxt(path, covariates.assignment, fmt="%d", delimiter=",")


def read_covariates(path) -> PairCovariates:
    path = Path(path)
    rows = _read_rows(path)
    parsed = []
    for lineno, row in enumerate(rows, start=1):
        if not row.strip():
            continue
        try:
            parsed.append([int(tok) for tok in row.split(",")])
        except ValueError as exc:
            raise FileFormatError(path, lineno, f"cannot parse cell indices '{row}'") from exc
    n = len(parsed)
    for lineno, values in enumerate(parsed, start=1):
        if len(values) != n:
            raise FileFormatError(path, lineno, f"expected {n} columns, got {len(values)}")
    try:
        return PairCovariates(np.array(parsed, dtype=np.int64))
    except ValueError as exc:
        raise FileFormatError(path, 1, str(exc)) from exc


def write_support(support: CovariateSupport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{k + 1}" for k in range(support.dimension)])
        for point in support.points:
            writer.writerow([f"{v:.17g}" for v in point])


def read_support(path) -> CovariateSupport:
    path = Path(path)
    rows = _read_rows(path)
    if not rows or not rows[0].startswith("x1"):
        raise FileFormatError(path, 1, "expected header row starting with x1")
    points = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row.strip():
            continue
        try:
            points.append([float(tok) for tok in row.split(",")])
        except ValueError as exc:
            raise FileFormatError(path, lineno, f"cannot parse point '{row}'") from exc
    try:
        return CovariateSupport(np.array(points))
    except ValueError as exc:
        raise FileFormatError(path, 2, str(exc)) from exc
