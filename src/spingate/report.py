"""Columnar text files: metadata headers, CSV-style rows, atomic writes.

Format, shared by every file the toolkit emits:

    # key=value            (any number of metadata lines)
    col_a,col_b            (one header line naming the columns)
    1,0.5                  (data rows)

Each column has one type and is formatted as a whole: floats with "%.17g"
(17 significant digits, so write -> read -> write is byte-stable), ints in
decimal and strings as they are. On reading, a column is int64 if every cell
is an integer literal that fits, else float64 if every cell is a float, else
strings. Histogram files use the same cell formatting in a fixed two-column
layout (bin_start_ns,counts) with no column header line; their metadata keys
are bin_width_ns, rep_rate_hz, integration_s and channel.

All writes go through a temp file in the target directory followed by an
atomic rename.
"""

from __future__ import annotations

import array
import operator
import os
import re
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .histogram import TcspcHistogram

# "-0" is not an int: it is how "%.17g" writes -0.0, and str() of an int never
# gives it.
_INT_RE = re.compile(r"\+?\d+|-0*[1-9]\d*")

HISTOGRAM_KEYS = ("bin_width_ns", "rep_rate_hz", "integration_s", "channel")


@dataclass(frozen=True)
class ColumnarReport:
    """Named columns of equal length plus ordered key=value metadata.

    data maps each column name to a 1-D array of ints, floats or strings,
    stored read-only in the order given.
    """

    metadata: dict[str, str]
    data: dict[str, np.ndarray]

    def __post_init__(self):
        meta = {}
        for key, value in dict(self.metadata).items():
            key = str(key)
            value = str(value)
            if "=" in key or "\n" in key or "\n" in value:
                raise ValueError(f"invalid metadata entry {key!r}")
            meta[key] = value
        object.__setattr__(self, "metadata", meta)
        data = {str(name): np.array(values) for name, values in dict(self.data).items()}
        if not data or any("," in c or "\n" in c for c in data):
            raise ValueError("columns must be non-empty, comma-free names")
        for name, values in data.items():
            _check_column(name, values)
            values.setflags(write=False)
        lengths = sorted({values.size for values in data.values()})
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {lengths}")
        object.__setattr__(self, "data", data)

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self.data)

    @property
    def rows(self) -> tuple[tuple, ...]:
        """Read-only row view: one tuple of Python scalars per row."""
        return tuple(zip(*(values.tolist() for values in self.data.values())))


def _check_column(name: str, values: np.ndarray) -> None:
    kind = values.dtype.kind
    if values.ndim != 1:
        raise ValueError(f"column {name!r} must be 1-D")
    if kind == "b":
        raise ValueError("boolean cells are ambiguous; use 0/1")
    if kind == "U":
        unsafe = np.flatnonzero(sum(np.char.count(values, c) for c in ",\n#"))
        if unsafe.size:
            raise ValueError(
                f"string cell {values[unsafe[0]].item()!r} may not contain comma, "
                "newline or '#'"
            )
    elif kind not in "iuf":
        raise ValueError(f"column {name!r} holds {values.dtype}, not ints, floats or strings")


def _formatted(values: np.ndarray):
    """One column as text: decimal ints, strings as they are, else "%.17g"."""
    return map(str if values.dtype.kind in "iuU" else "%.17g".__mod__, values.tolist())


def atomic_write_text(path: str, text: str) -> None:
    """Write text via a same-directory temp file and atomic rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(path: str, report: ColumnarReport) -> None:
    lines = [f"# {k}={v}" for k, v in report.metadata.items()]
    lines.append(",".join(report.columns))
    lines.extend(map(",".join, zip(*map(_formatted, report.data.values()))))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read().splitlines()


def _split_metadata(lines: list[str]):
    """Leading '# key=value' lines -> (metadata, first body line index)."""
    meta: dict[str, str] = {}
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
    return meta, body_start


def _data_lines(lines: list[str], start: int):
    """Stripped non-blank lines from index start on -> (lines, 1-based line
    numbers, comma count per line)."""
    stripped = list(map(str.strip, lines[start:]))
    numbers = np.flatnonzero(np.fromiter(map(bool, stripped), bool, len(stripped)))
    rows = list(filter(None, stripped))
    commas = np.fromiter(map(operator.methodcaller("count", ","), rows), np.int64, len(rows))
    return rows, numbers + start + 1, commas


def _split_cells(rows: list[str]) -> list[str]:
    """Every cell of the rows, row after row."""
    return ",".join(rows).split(",") if rows else []


def _typed_column(cells: list[str]) -> np.ndarray:
    """int64 if every cell is an integer literal that fits, else float64, else str."""
    if all(map(_INT_RE.fullmatch, cells)):
        try:
            return np.array(list(map(int, cells)), dtype=np.int64)
        except OverflowError:
            pass
    try:
        return np.array(list(map(float, cells)), dtype=float)
    except ValueError:
        return np.array(cells, dtype=str)


def read_report(path: str) -> ColumnarReport:
    lines = _read_lines(path)
    meta, start = _split_metadata(lines)
    if start >= len(lines) or not lines[start].strip():
        raise ParseError("missing column header line", line=start + 1)
    columns = [c.strip() for c in lines[start].split(",")]
    if len(set(columns)) != len(columns):
        raise ParseError(f"duplicate column name in {lines[start]!r}", line=start + 1)
    rows, numbers, commas = _data_lines(lines, start + 1)
    widths = commas + 1
    ragged = np.flatnonzero(widths != len(columns))
    if ragged.size:
        i = ragged[0]
        raise ParseError(
            f"ragged row: {widths[i]} cells against {len(columns)} columns",
            line=int(numbers[i]),
        )
    cells = list(map(str.strip, _split_cells(rows)))
    k = len(columns)
    data = {name: _typed_column(cells[j::k]) for j, name in enumerate(columns)}
    return ColumnarReport(metadata=meta, data=data)


def write_histogram(path: str, hist: TcspcHistogram) -> None:
    lines = [
        f"# bin_width_ns={format(hist.bin_width, '.17g')}",
        f"# rep_rate_hz={format(hist.rep_rate, '.17g')}",
        f"# integration_s={format(hist.integration_time, '.17g')}",
        f"# channel={hist.channel}",
    ]
    lines.extend(map(",".join, zip(_formatted(hist.bin_starts), _formatted(hist.counts))))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_histogram(path: str) -> TcspcHistogram:
    lines = _read_lines(path)
    meta, start = _split_metadata(lines)
    for key in HISTOGRAM_KEYS:
        if key not in meta:
            raise ParseError(f"missing metadata key '{key}'", line=start + 1)
    try:
        bin_width = float(meta["bin_width_ns"])
        rep_rate = float(meta["rep_rate_hz"])
        integration = float(meta["integration_s"])
    except ValueError as exc:
        raise ParseError(f"non-numeric metadata: {exc}", line=1) from exc
    channel = meta["channel"]

    rows, numbers, commas = _data_lines(lines, start)
    if not rows:
        raise ParseError("no data rows", line=len(lines) + 1)
    # Each check runs on the lines before the first failure of the one above
    # it, so the error always names the first offending line.
    not_pairs = np.flatnonzero(commas != 1)
    cells = _split_cells(rows[: not_pairs[0]] if not_pairs.size else rows)
    values = array.array("d")
    try:
        values.extend(map(float, cells))  # keeps the values before a bad cell
        non_numeric = None
    except ValueError as exc:
        non_numeric = exc
    n = len(values) // 2
    starts, counts = np.frombuffer(values, count=2 * n).reshape(n, 2).T
    expected = np.arange(n) * bin_width
    failed = np.array(
        [
            starts <= np.r_[np.nan, starts[:-1]],  # the first bin has no predecessor
            np.abs(starts - expected) > 1e-9 * np.maximum(np.abs(expected), bin_width),
            counts < 0,
        ]
    )
    if failed.any():
        i = int(np.argmax(failed.any(axis=0)))
        message = (
            f"non-monotone bin start {starts[i]}",
            f"bin start {starts[i]} does not sit on the {bin_width} ns grid",
            f"negative counts {cells[2 * i + 1]}",
        )[int(np.argmax(failed[:, i]))]
        raise ParseError(message, line=int(numbers[i]))
    if non_numeric is not None:
        raise ParseError(f"non-numeric cell: {non_numeric}", line=int(numbers[n])) from non_numeric
    if n < len(rows):
        raise ParseError(f"expected 'bin_start_ns,counts', got {rows[n]!r}", line=int(numbers[n]))
    if np.all(counts == np.floor(counts)):
        counts = counts.astype(np.int64)
    try:
        return TcspcHistogram(
            bin_width=bin_width,
            counts=counts,
            channel=channel,
            integration_time=integration,
            rep_rate=rep_rate,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
