"""The package's CSV format: every table it reads or writes goes through here.

Network files come in two formats: a matrix CSV (n rows of n comma-separated
0/1 values, no header) and an edge list (``n=<count>``, then an ``i,j``
header and one 0-based link per line).  Covariates are a matrix CSV of
0-based support indices; the support definition is a CSV with one ``x1..xd``
header row and one point per line.  Networks and covariates need n >= 2
agents.

The dialect: fields are separated by commas and lines end in ``\\n``.
Writers put floats as ``.17g`` (so they read back exactly) and booleans as
0/1, and write each field as ``csv.writer`` does with ``\\n`` line ends: a
field that contains a comma, a quote or a ``\\n`` is quoted, with its quotes
doubled, a ``\\r`` alone is not, and a row of one empty field is ``""``.
Readers read each file once, as UTF-8 with or without a leading byte-order
mark, and accept ``\\r\\n`` line ends, blank lines anywhere and spaces around
fields, header rows included; a header row must name exactly ``i,j`` or
``x1..xd``.  A matrix of one-digit values is written as bytes in the writers'
own layout (n lines of n comma-separated digits, each ending in ``\\n``), and
a file in that layout, with a byte-order mark or without, is read as bytes;
every other file goes through the general parser, and both feed the same
checks.  Every parse, decoding or domain error raises ``FileFormatError``
naming the line.
Each command's ``summary.json`` is written by :func:`write_summary`, after its
CSV files; the CSV writer makes the directory it writes into.
"""

import codecs
import csv
import io
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
    "write_columns",
    "write_summary",
]


def _field(value):
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    return value


def _write_text(path, text: str) -> None:
    """The one file write: the whole text in one call, into a directory it
    makes when it is missing."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


class _Line:
    """A file whose ``write`` returns its text, so that ``csv.writer`` on it
    returns each row's line from ``writerow``."""

    @staticmethod
    def write(line):
        return line


def _column(values) -> list:
    """The text of one column's fields, each as ``csv.writer`` writes it.

    A bool or float array has :func:`_field` called once per distinct value,
    told apart by bits so -0.0 is not 0.0; those fields need no quoting.  Any
    other column has :func:`_field` called per value, and each distinct
    result, told apart by type and value (``10**17`` is not ``1e17``), goes
    through ``csv.writer`` once, as the first of two fields.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "bf":
        keys, where = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
        return np.array([str(_field(v)) for v in keys.view(values.dtype)], dtype=object)[where].tolist()
    row = csv.writer(_Line(), lineterminator="\n").writerow
    keys = [(type(field), field) for field in map(_field, values)]
    # each line without the empty field's ",\n"
    text = {key: row([key[1], ""])[:-2] for key in dict.fromkeys(keys)}
    return [text[key] for key in keys]


def _line(fields) -> str:
    """One row's line; like ``csv.writer``, a row of one empty field is ``""``."""
    if len(fields) == 1 and fields[0] == "":
        return '""\n'
    return ",".join(fields) + "\n"


def write_columns(path, header, columns) -> None:
    """Write a header row and then one line per row of equal-length
    ``columns``, in the dialect above; columns of different lengths raise
    ``ValueError``."""
    rows = [_column(header), *zip(*map(_column, columns), strict=True)]
    _write_text(path, "".join(map(_line, rows)))


def write_table(path, header, rows) -> None:
    """Write a header row and then one line per row, in the dialect above."""
    write_columns(path, header, list(zip(*rows, strict=True)))


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


def _read_file(path) -> bytes:
    """The one read of a data file: its bytes, without a leading UTF-8 byte-order mark."""
    return Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)


def _read_text(path, raw) -> str:
    """A file's bytes as UTF-8 text with universal newlines; a byte that does
    not decode is an error at its line."""
    raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        message = f"byte 0x{raw[exc.start]:02x} is not UTF-8 text"
        raise FileFormatError(path, raw.count(b"\n", 0, exc.start) + 1, message) from exc


def _read_table(path, raw, skip=0, dtype=np.int64):
    """The non-blank lines after the first ``skip`` of them as one array.

    Returns those first ``skip`` lines as (line number, text) pairs (padded
    with "" on the line after the last one when the file has fewer), the
    array, and the 1-based line number of each of its rows.
    """
    lines = _read_text(path, raw).split("\n")
    numbers = [k + 1 for k, line in enumerate(lines) if line.strip()]
    head = [(k, lines[k - 1]) for k in numbers[:skip]]
    head += [(head[-1][0] + 1 if head else 1, "")] * (skip - len(head))
    numbers = numbers[skip:]
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


def _header(path, number, row, names) -> None:
    """The one header-row rule: its comma-separated fields, spaces stripped, are ``names``."""
    if [field.strip() for field in row.split(",")] != names:
        raise FileFormatError(path, number, f"expected header row {','.join(names)!r}")


def _read_digits(raw):
    """The matrix of a file in the layout ``_write_matrix`` gives one-digit
    values, as uint8 digits, or None for any other file.

    That layout is n >= 2 lines, each of n bytes ``0``-``9`` joined by ``,``
    and ending in ``\\n``: 2n² bytes, checked and viewed as one byte array.
    """
    raw = np.frombuffer(raw, dtype=np.uint8)
    n = math.isqrt(raw.size // 2)
    if n < 2 or raw.size != 2 * n * n:
        return None
    lines = raw.reshape(n, 2 * n)
    digits = lines[:, 0::2] - np.uint8(ord("0"))  # a byte below "0" wraps past 9
    ends = lines[:, 1::2]
    if (digits > 9).any() or (ends[:, :-1] != ord(",")).any() or (ends[:, -1] != ord("\n")).any():
        return None
    return digits


def _read_square(path, raw):
    """A matrix CSV of integers for n >= 2 agents, with its row line numbers."""
    table = _read_digits(raw)
    if table is not None:
        return table, range(1, len(table) + 1)
    _, table, numbers = _read_table(path, raw)
    n = table.shape[0]
    if n < 2:
        raise FileFormatError(path, numbers[0] if numbers else 1, f"agent count {n} is below 2")
    if table.shape[1] != n:
        raise FileFormatError(path, numbers[0], f"expected {n} columns, got {table.shape[1]}")
    return table, numbers


def _write_matrix(table, path) -> None:
    """A matrix of integers, n lines of n comma-separated values; with every
    value one digit, laid out as the bytes :func:`_read_digits` reads."""
    if not (table.size and table.min() >= 0 and table.max() <= 9):
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(row.tolist() for row in table)
        _write_text(path, text.getvalue())
        return
    lines = np.empty((table.shape[0], 2 * table.shape[1]), dtype=np.uint8)
    lines[:, 0::2] = table
    lines[:, 0::2] += ord("0")
    lines[:, 1::2] = ord(",")
    lines[:, -1] = ord("\n")
    _write_text(path, lines.tobytes().decode("ascii"))


def write_network_matrix(network: Network, path) -> None:
    _write_matrix(network.adj, path)


def read_network(path) -> Network:
    """Read either format; an edge list's first non-blank line is ``n=<count>``."""
    raw = _read_file(path)
    if raw.lstrip().startswith(b"n="):
        return _read_edge_list(path, raw)
    table, numbers = _read_square(path, raw)
    del raw  # not held beside the network's own copy
    _reject(path, numbers, ~((table == 0) | (table == 1)).all(axis=1), "expected 0/1 entries")
    _reject(path, numbers, np.diagonal(table) != 0, "diagonal must be zero")
    return Network(table)


def _read_edge_list(path, raw) -> Network:
    ((count_line, count), header), edges, numbers = _read_table(path, raw, skip=2)
    try:
        n = int(count.partition("=")[2])
    except ValueError as exc:
        raise FileFormatError(path, count_line, "cannot parse agent count") from exc
    if n < 2:
        raise FileFormatError(path, count_line, f"agent count {n} is below 2")
    _header(path, *header, ["i", "j"])
    if numbers and edges.shape[1] != 2:
        raise FileFormatError(path, numbers[0], "expected two fields 'i,j'")
    i, j = edges.reshape(-1, 2).T
    bad = (i < 0) | (i >= n) | (j < 0) | (j >= n) | (i == j)
    _reject(path, numbers, bad, f"edge out of range or a self-loop for n={n}")
    adj = np.zeros((n, n), dtype=np.int8)
    adj[i, j] = 1
    return Network(adj)


def write_covariates(covariates: PairCovariates, path) -> None:
    _write_matrix(covariates.assignment, path)


def read_covariates(path, n_cells: int | None = None) -> PairCovariates:
    """Cell indices, each below ``n_cells`` (the support size) when it is given."""
    table, numbers = _read_square(path, _read_file(path))
    _reject(path, numbers, (table < 0).any(axis=1), "cell indices must be non-negative")
    if n_cells is not None:
        _reject(path, numbers, (table >= n_cells).any(axis=1),
                f"cell index outside the support of {n_cells} points")
    return PairCovariates(table)


def write_support(support: CovariateSupport, path) -> None:
    header = [f"x{k + 1}" for k in range(support.dimension)]
    write_table(path, header, support.points.tolist())


def read_support(path) -> CovariateSupport:
    [(line, header)], points, numbers = _read_table(path, _read_file(path), skip=1, dtype=float)
    width = header.count(",") + 1
    _header(path, line, header, [f"x{k + 1}" for k in range(width)])
    if points.size and points.shape[1] != width:
        raise FileFormatError(path, line, f"header names {width} columns, points have {points.shape[1]}")
    _reject(path, numbers, ~np.isfinite(points).all(axis=1), "support points must be finite")
    unordered = [tuple(a) >= tuple(b) for a, b in zip(points[:-1], points[1:])]
    _reject(path, numbers[1:], unordered, "support points must be distinct and lexicographically increasing")
    try:
        return CovariateSupport(points)
    except ValueError as exc:  # no points: the first belongs after the header
        raise FileFormatError(path, line + 1, str(exc)) from exc
