"""Reading report and histogram files, as the report module writes them.

Reading takes float64 columns only, under the header the caller expects.
The data rows go to numpy's C text parser in one call. Its float converter
is CPython's PyOS_string_to_double, the routine float() uses, so where it
accepts the rows its values are float()'s. Where it refuses them (a cell it
does not take, "1_000" or non-ASCII digits among them, a whitespace-only
line, a ragged row, no rows) or a histogram check fails, one per-line pass
reads them, one float() per cell, and returns its own values or names the
first offending line.

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
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read().splitlines()


def _split_metadata(lines: list[str]):
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
            raise ParseError(f"metadata line lacks '=': {line!r}", line=i + 1)
        key, value = entry.split("=", 1)
        meta[key.strip()] = value.strip()
        key_lines[key.strip()] = i + 1
    return meta, body_start, key_lines


def _loaded_columns(lines: list[str], k: int) -> np.ndarray | None:
    """The comma-separated rows of lines as a (k, n) float64 array, parsed by
    numpy's C text parser in one call, or None where it refuses them: a cell
    it cannot convert, a row of other than k cells, a whitespace-only line,
    no rows (a warning counts as a refusal). It skips empty lines."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except (ValueError, Warning):
            return None
    return table.T if table.shape[1] == k else None


def _per_line(lines: list[str], start: int, k: int):
    """The per-line pass: the non-blank lines from index start on, stripped,
    their 1-based numbers, the float() of each cell before the first row
    that is not k cells or holds a cell float() refuses, as float64, and
    that ValueError or None. Row values.size // k, if any, is the bad row."""
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
    return rows, numbers, np.frombuffer(values, count=len(values)), error


def read_report(path: str, columns: tuple[str, ...]) -> ColumnarReport:
    """A report file whose header names columns, in order, as float64
    columns. ParseError names the first ragged row or non-numeric cell."""
    lines = _read_lines(path)
    meta, start, _ = _split_metadata(lines)
    if start >= len(lines) or not lines[start].strip():
        raise ParseError("missing column header line", line=start + 1)
    if [c.strip() for c in lines[start].split(",")] != list(columns):
        raise ParseError(f"{path}: expected columns {','.join(columns)}")
    k = len(columns)
    table = _loaded_columns(lines[start + 1 :], k)
    if table is None:
        rows, numbers, values, error = _per_line(lines, start + 1, k)
        n, j = divmod(values.size, k)
        if error is not None:
            cell = rows[n].split(",")[j].strip()
            message = f"column {columns[j]}: {cell!r} in data row {n + 1} is not a number"
            raise ParseError(f"{path}: {message}") from error
        if n < len(rows):
            cells = rows[n].count(",") + 1
            raise ParseError(f"ragged row: {cells} cells against {k} columns", line=int(numbers[n]))
        table = values.reshape(n, k).T
    return ColumnarReport(metadata=meta, data=dict(zip(columns, table)))


def _histogram_failures(starts: np.ndarray, counts: np.ndarray, bin_width: float) -> np.ndarray:
    """Per-row flags, one row per check: a non-finite cell, a bin start out
    of order, a bin start off the grid, negative counts."""
    expected = np.arange(starts.size) * bin_width
    return np.array(
        [
            ~(np.isfinite(starts) & np.isfinite(counts)),
            starts <= np.r_[np.nan, starts[:-1]],  # the first bin has no predecessor
            np.abs(starts - expected) > 1e-9 * np.maximum(np.abs(expected), bin_width),
            counts < 0,
        ]
    )


def _per_line_histogram(lines: list[str], start: int, bin_width: float):
    """(bin starts, counts) by the per-line pass; ParseError names the first
    offending line, since the checks run on the rows before the bad one."""
    rows, numbers, values, error = _per_line(lines, start, 2)
    if not rows:
        raise ParseError("no data rows", line=len(lines) + 1)
    n = values.size // 2
    starts, counts = values[: 2 * n].reshape(n, 2).T
    failed = _histogram_failures(starts, counts, bin_width)
    if failed.any():
        i = int(np.argmax(failed.any(axis=0)))
        message = (
            f"non-finite cell in {rows[i]!r}",
            f"non-monotone bin start {starts[i]}",
            f"bin start {starts[i]} does not sit on the {bin_width} ns grid",
            f"negative counts {rows[i].split(',')[1]}",
        )[int(np.argmax(failed[:, i]))]
        raise ParseError(message, line=int(numbers[i]))
    if error is not None:
        raise ParseError(f"non-numeric cell: {error}", line=int(numbers[n])) from error
    if n < len(rows):
        raise ParseError(f"expected 'bin_start_ns,counts', got {rows[n]!r}", line=int(numbers[n]))
    return starts, counts


def read_histogram(path: str) -> histogram.TcspcHistogram:
    """A histogram file as a TcspcHistogram, with int64 counts if every count
    is integral, else float64.

    The data rows go to numpy's C text parser as two float64 columns in one
    call, and the checks run once over them. Only where the C parser refuses
    the rows (a non-numeric cell, a row that is not a pair, a whitespace-only
    line, no rows) or a check fails does the per-line pass run, and
    ParseError names the first offending line: a row that is not a
    'bin_start_ns,counts' pair, a non-numeric or non-finite cell, a bin start
    out of order or off the grid, or negative counts. Where both parse a
    cell, they give the same value (see the module docstring).
    """
    lines = _read_lines(path)
    meta, start, key_lines = _split_metadata(lines)
    for key in HISTOGRAM_KEYS:
        if key not in meta:
            raise ParseError(f"missing metadata key '{key}'", line=start + 1)

    def number(key: str) -> float:
        try:
            return float(meta[key])
        except ValueError as exc:
            raise ParseError(f"non-numeric metadata {key}: {exc}", line=key_lines[key]) from exc

    bin_width, rep_rate, channel_time = map(number, HISTOGRAM_KEYS[:3])
    parsed = _loaded_columns(lines[start:], 2)
    if parsed is None or _histogram_failures(*parsed, bin_width).any():
        parsed = _per_line_histogram(lines, start, bin_width)
    del lines
    counts = parsed[1]
    if np.all(counts == np.floor(counts)):
        counts = counts.astype(np.int64)
    try:
        return histogram.TcspcHistogram(
            bin_width=bin_width,
            counts=counts,
            channel=meta["channel"],
            channel_time=channel_time,
            rep_rate=rep_rate,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
