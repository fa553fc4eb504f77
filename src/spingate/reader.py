"""Reading report and histogram files, as the report module writes them.

A file is '# key=value' metadata lines, then (in a report) a header naming
the columns, then comma-separated rows, read as float64 columns by one row
path. The rows go to numpy's C text parser in one call. Its float converter
is CPython's PyOS_string_to_double, the routine float() uses, so where it
accepts the rows its values are float()'s. Where it refuses them (a cell it
does not take, "1_000" or non-ASCII digits among them, a whitespace-only
line, a ragged row, no rows) or a row check fails, one per-line pass reads
them, one float() per cell, and returns its own values or names the first
offending line. metadata_number reads a metadata number. Every ParseError
reads '<path>: line <n>: <what>', without the line where none is known.

Only the commands that read a file load this module; spingate.report
resolves read_report and read_histogram to it.
"""

from __future__ import annotations

import array
import itertools
import warnings

import numpy as np

from . import histogram
from .errors import ParseError
from .report import HISTOGRAM_KEYS, ColumnarReport


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(str(exc), path=path) from exc


def _split_metadata(path: str, lines: list[str]):
    """Leading '# key=value' lines -> (metadata, first body line index, the
    1-based line of each key)."""
    meta: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    body_start = len(lines)
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            body_start = i
            break
        entry = line.lstrip("#").strip()
        if "=" not in entry:
            raise ParseError(f"metadata line lacks '=': {line!r}", line=i + 1, path=path)
        key, value = entry.split("=", 1)
        meta[key.strip()] = value.strip()
        key_lines[key.strip()] = i + 1
    return meta, body_start, key_lines


def metadata_number(path: str, metadata: dict, key: str, default=None, whole=False) -> float:
    """The float() of metadata[key], read from the file at path, or default
    where it has no such key; whole asks for a whole number. ParseError names
    the key's line, or the line after the metadata for a missing key."""
    value = metadata.get(key)
    if value is None and default is not None:
        return default
    try:
        number = float(value)
        if not whole or number.is_integer():
            return number
    except (TypeError, ValueError):
        pass
    _, start, key_lines = _split_metadata(path, _read_lines(path))  # the lines, on error only
    if value is None:
        raise ParseError(f"missing metadata key {key}", line=start + 1, path=path)
    kind = "a whole number" if whole else "a number"
    raise ParseError(f"metadata {key}={value!r} is not {kind}", line=key_lines[key], path=path)


def _table(path: str, lines: list[str], start: int, columns: tuple, checks=None) -> np.ndarray:
    """The rows from lines[start] on as a (k, n) float64 array of the k
    columns. checks is (flags, messages): flags(table) is a (len(messages),
    n) bool array, True where a row fails a check, and messages[c] formats
    with the failing row's text (row), cell texts (cells) and values.

    The C parser reads the rows where it takes them all (skipping empty
    lines) and no check fails. Otherwise the per-line pass reads the
    non-blank lines, stripped, one float() per cell up to the first ragged
    row or cell float() refuses, and ParseError names the first offending
    line: a row before that one that fails a check (its first), else that.
    """
    k = len(columns)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning, as of no rows, is a refusal
        try:
            table = np.loadtxt(lines[start:], delimiter=",", comments=None, ndmin=2).T
        except (ValueError, Warning):
            table = None
    if table is not None and len(table) == k and not (checks and checks[0](table).any()):
        return table
    stripped = list(map(str.strip, lines[start:]))
    numbers = np.flatnonzero(np.fromiter(map(bool, stripped), bool, len(stripped))) + start + 1
    rows = list(filter(None, stripped))
    good = next((i for i, row in enumerate(rows) if row.count(",") != k - 1), len(rows))
    values = array.array("d")
    error = None
    try:  # extend keeps the values before a bad cell; the cells are never all held
        values.extend(map(float, itertools.chain.from_iterable(r.split(",") for r in rows[:good])))
    except ValueError as exc:
        error = exc
    n, j = divmod(len(values), k)
    table = np.frombuffer(values, count=n * k).reshape(n, k).T
    if checks and (failed := checks[0](table)).any():
        i = int(np.argmax(failed.any(axis=0)))
        message = checks[1][int(np.argmax(failed[:, i]))]
        message = message.format(row=rows[i], cells=rows[i].split(","), values=table[:, i])
        raise ParseError(message, line=int(numbers[i]), path=path)
    if error is not None:
        message = f"column {columns[j]}: {rows[n].split(',')[j].strip()!r} is not a number"
        raise ParseError(message, line=int(numbers[n]), path=path) from error
    if n < len(rows):
        message = f"ragged row: {rows[n].count(',') + 1} cells against {k} columns"
        raise ParseError(message, line=int(numbers[n]), path=path)
    return table


def read_report(path: str, columns: tuple[str, ...]) -> ColumnarReport:
    """A report file whose header names columns, in order, as float64
    columns. ParseError names the first ragged row or non-numeric cell."""
    lines = _read_lines(path)
    meta, start, _ = _split_metadata(path, lines)
    if start >= len(lines) or not lines[start].strip():
        raise ParseError("missing column header line", line=start + 1, path=path)
    if [c.strip() for c in lines[start].split(",")] != list(columns):
        raise ParseError(f"expected columns {','.join(columns)}", line=start + 1, path=path)
    table = _table(path, lines, start + 1, columns)
    return ColumnarReport(metadata=meta, data=dict(zip(columns, table)))


def read_histogram(path: str) -> histogram.TcspcHistogram:
    """A histogram file, header-less 'bin_start_ns,counts' rows under its
    metadata, as a TcspcHistogram, with int64 counts if every count is
    integral and below 2**63, else float64. ParseError names the first
    offending line: a ragged row, a non-numeric or non-finite cell, a bin
    start out of order or off the grid, or negative counts.
    """
    lines = _read_lines(path)
    meta, start, _ = _split_metadata(path, lines)
    numbers = (metadata_number(path, meta, key) for key in HISTOGRAM_KEYS[:3])
    bin_width, rep_rate, channel_time = numbers
    if "channel" not in meta:
        raise ParseError("missing metadata key channel", line=start + 1, path=path)

    def flags(table: np.ndarray) -> np.ndarray:
        starts, counts = table
        expected = np.arange(starts.size) * bin_width
        return np.array([
            ~(np.isfinite(starts) & np.isfinite(counts)),
            starts <= np.r_[np.nan, starts[:-1]],  # the first bin has no predecessor
            np.abs(starts - expected) > 1e-9 * np.maximum(np.abs(expected), bin_width),
            counts < 0,
        ])

    messages = (
        "non-finite cell in {row!r}",
        "non-monotone bin start {values[0]}",
        f"bin start {{values[0]}} does not sit on the {bin_width} ns grid",
        "negative counts {cells[1]}",
    )
    counts = _table(path, lines, start, ("bin_start_ns", "counts"), (flags, messages))[1]
    if not counts.size:
        raise ParseError("no data rows", line=len(lines) + 1, path=path)
    del lines
    if np.all((counts == np.floor(counts)) & (counts < 2.0**63)):
        counts = counts.astype(np.int64)
    try:
        return histogram.TcspcHistogram(
            bin_width=bin_width, counts=counts, channel=meta["channel"],
            channel_time=channel_time, rep_rate=rep_rate,
        )
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from exc
