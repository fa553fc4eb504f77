"""Columnar text files: metadata headers, CSV-style rows, atomic writes.

Format, shared by every file the toolkit emits:

    # key=value            (any number of metadata lines)
    col_a,col_b            (one header line naming the columns)
    1,0.5                  (data rows)

Each column has one type and one format: floats with "%.17g"
(17 significant digits, so write -> read -> write is byte-stable), ints in
decimal and strings as they are. Metadata values are formatted as cells
are: floats with "%.17g", anything else with str() (format_value). On
reading, a column is int64 if every cell is an integer literal that fits,
else float64 if every cell is a float, else strings. Histogram files use the
same cell formatting in a fixed two-column layout (bin_start_ns,counts) with
no column header line; their metadata keys are bin_width_ns, rep_rate_hz,
integration_s and channel.

All writes go through a temp file in the target directory followed by an
atomic rename. Rows are written in blocks of WRITE_BLOCK_ROWS, so a file's
text is never whole in memory, and each block is formatted by numpy with no
Python run per cell. Each column becomes a uint8 matrix of NUL-padded cells,
one row per data row, ending in its separator (a comma, or a newline in the
last column); the matrices are laid side by side and one bytes.translate
pass deletes the NULs (no cell holds one). A float is written as "%.17g"
exactly: for finite |x| in [1e-4, 1e17), the range "%.17g" writes in fixed
notation, its decimal exponent k comes from a search of the smallest doubles
>= 10**j (literal constants), Dekker's error-free product of |x| and the
exact 10**(16-k) gives |x| * 10**(16-k) as hi + lo, and rounding that half
to even gives the 17 correctly rounded digits; the point goes after the
k + 1 integer digits, and trailing zeros and a bare point are cut. Ints
with |v| < 10**17 share its digit routine. Strings are the code points of a
str array (object labels are cast to one). The cells the kernels refuse
are formatted one by one, with format(x, ".17g") or str(), into the same
matrix: nan, +-inf, +-0, |x| < 1e-4 (subnormals too) and |x| >= 1e17,
which "%.17g" writes in e-notation or as words, ints with |v| >= 10**17,
and strings that are not ASCII.

Reading types the first READ_BLOCK_ROWS lines of a report cell by cell in
Python, which fixes each column's dtype. If every column is numeric, the
remaining rows go to numpy's C text parser in one call with those dtypes.
Its float converter is CPython's PyOS_string_to_double, the routine float()
itself uses, so where it accepts the rows its values are the per-cell
values. The per-cell path reads the whole body instead where the C parser
cannot give the same answer: it refuses a cell that float() or the integer
grammar takes ("1_000", non-ASCII digits such as "\u0663", a whitespace-only
line), a row is ragged, a column is strings, or a row where an int column
reads 0 holds a "-" (the C parser reads "-0" as the int 0; the format reads
it as the float -0.0). Histogram data rows go to the C parser as two float
columns, and the per-cell path runs only when it refuses them or a check
fails, so every ParseError names the first offending line either way.
"""

from __future__ import annotations

import array
import contextlib
import functools
import itertools
import operator
import os
import re
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .histogram import TcspcHistogram

# "-0" is not an int: it is how "%.17g" writes -0.0, and str() of an int never
# gives it.
_INT = r"(?:\+?\d+|-0*[1-9]\d*)"
# A column block's cells joined by commas, every one an integer literal: the
# literal grammar holds no comma, so one match checks the whole block.
_INT_BLOCK_RE = re.compile(rf"{_INT}(?:,{_INT})*")

HISTOGRAM_KEYS = ("bin_width_ns", "rep_rate_hz", "integration_s", "channel")

# The characters str.splitlines ends a line at, as the reader splits a file:
# no metadata entry, column name or string cell may hold one.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# A string cell also holds no comma, no '#' (a row starting with one would
# read as metadata) and no NUL (a str array drops a trailing one).
_UNSAFE_CELL = ",#\x00" + _LINE_BREAKS


def _holds_any(text: str, chars: str) -> bool:
    return any(c in text for c in chars)


def format_value(value) -> str:
    """A metadata value as text: floats with "%.17g", as float cells are
    written, anything else with str()."""
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


@dataclass(frozen=True)
class ColumnarReport:
    """Named columns of equal length plus ordered key=value metadata.

    metadata values are stored as text, through format_value. data maps each
    column name to a 1-D array of ints, floats or strings, in the order
    given. A string column is a str array or an object array of str, so a
    column of a few shared labels costs one pointer per row. No metadata
    entry, column name or string cell holds a line break (any str.splitlines
    ends a line at), and no string cell a comma, '#' or NUL. A column is a
    read-only view of the array it was given, not a copy: a later write to a
    writeable source array shows through.
    """

    metadata: dict[str, str]
    data: dict[str, np.ndarray]

    def __post_init__(self):
        meta = {}
        for key, value in dict(self.metadata).items():
            key = str(key)
            value = format_value(value)
            if "=" in key or _holds_any(key + value, _LINE_BREAKS):
                raise ValueError(f"invalid metadata entry {key!r}")
            meta[key] = value
        object.__setattr__(self, "metadata", meta)
        data = {str(name): np.asarray(values).view() for name, values in dict(self.data).items()}
        if not data or any(_holds_any(c, "," + _LINE_BREAKS) for c in data):
            raise ValueError("columns must be non-empty names free of commas and line breaks")
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
    if kind == "O":
        # a column of shared label strings: each distinct label is checked
        # once, in order of first occurrence
        try:
            labels = list(dict.fromkeys(values))
        except TypeError:  # an unhashable item, so not a string
            labels = None
        if labels is None or not all(isinstance(label, str) for label in labels):
            raise ValueError(f"column {name!r} holds objects that are not strings")
        unsafe = [label for label in labels if _holds_any(label, _UNSAFE_CELL)]
    elif kind == "U":
        # the cells' code points, width of them per cell; a str array keeps
        # no trailing NUL, so a NUL is a zero followed by a non-zero in a cell
        width = values.itemsize // 4
        codes = np.ascontiguousarray(values).view(np.uint32)
        unsafe_codes = [ord(c) for c in _UNSAFE_CELL]
        lookup = np.zeros(max(unsafe_codes) + 2, bool)
        lookup[unsafe_codes] = True
        lookup[0] = False  # the padding; a NUL inside a cell is found below
        bad = np.take(lookup, np.minimum(codes, lookup.size - 1))
        nul = (codes[:-1] == 0) & (codes[1:] != 0)
        nul[width - 1 :: width] = False  # a pair across two cells
        bad[:-1] |= nul
        unsafe = values[np.flatnonzero(bad)[:1] // width].tolist()
    elif kind == "b":
        raise ValueError("boolean cells are ambiguous; use 0/1")
    elif kind not in "iuf":
        raise ValueError(f"column {name!r} holds {values.dtype}, not ints, floats or strings")
    else:
        unsafe = []
    if unsafe:
        raise ValueError(
            f"string cell {unsafe[0]!r} may not contain comma, '#', NUL or a line break"
        )


# Data rows typed per block by the per-cell path, so a file's cells are never
# all held; the first block of a report fixes the dtypes the C parser reads
# the rest with.
READ_BLOCK_ROWS = 4096

# Rows formatted and written per block, so a file's text is never whole in
# memory.
WRITE_BLOCK_ROWS = 16384


@contextlib.contextmanager
def _atomic_file(path: str):
    """A binary handle on a same-directory temp file, renamed onto path when
    the block exits without error and removed otherwise."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write text as UTF-8 via a same-directory temp file and atomic rename."""
    with _atomic_file(path) as handle:
        handle.write(text.encode("utf-8"))


# The smallest double >= 10**j for j = -4 ... 20; for j >= 0 it is 10**j
# itself. Entries -4 ... 17 bound the decimal exponents "%.17g" writes in
# fixed notation; entries 0 ... 20 scale a float to 17 digits exactly.
_POW10 = (
    1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
    1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20,
)
_MINUS, _POINT, _COMMA, _NEWLINE = b"-.,\n"


def _digit_groups(d: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Integers in [0, 10**17) as their first of 17 digits and four 4-digit
    groups: the last 16 digits split into two uint32 halves of eight, and
    each half into two groups."""
    d = d.astype(np.uint64)
    first = d // np.uint64(10**16)
    rest = d - first * np.uint64(10**16)
    high = rest // np.uint64(10**8)
    groups = []
    for half in (high.astype(np.uint32), (rest - high * np.uint64(10**8)).astype(np.uint32)):
        group = half // np.uint32(10**4)
        groups += [group, half - group * np.uint32(10**4)]
    return first.astype(np.uint32), groups


@functools.cache
def _group_text() -> np.ndarray:
    """The digits of 0 ... 9999 as ASCII: row g is "0000" ... "9999" (row
    block 0), then with leading zeros as NUL, so "", "1" ... "9999" (row
    block 1); a (2 * 10**4, 4) read-only matrix."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    places = (1000, 100, 10, 1)
    text = np.stack([np.tile(np.repeat(digit, place), 1000 // place) for place in places], 1)
    blank = np.arange(10**4)[:, None] < places  # a leading zero
    table = np.concatenate([text, np.where(blank, 0, text).astype(np.uint8)])
    table.setflags(write=False)
    return table


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's error-free product: hi + lo == a * b exactly, hi = fl(a * b)."""
    halves = []
    for v in (a, b):
        c = 134217729.0 * v  # 2**27 + 1: splits a double into two 26-bit halves
        top = c - (c - v)
        halves += [top, v - top]
    ah, al, bh, bl = halves
    hi = a * b
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


@functools.cache
def _float_words() -> tuple[np.ndarray, np.ndarray]:
    """The 8-byte words of a float row: the lead "-0.000" with the first digit
    and its point slot, by that digit; and a 4-digit group with a point slot
    after each digit, by the group. Read-only."""
    lead = np.full((10, 8), _POINT, np.uint8)
    lead[:, :6] = np.frombuffer(b"-0.000", np.uint8)
    lead[:, 6] = np.arange(10) + ord("0")
    dotted = np.full((10**4, 8), _POINT, np.uint8)
    dotted[:, ::2] = _group_text()[: 10**4]
    words = lead.view(np.uint64).ravel(), dotted.view(np.uint64).ravel()
    for table in words:
        table.setflags(write=False)
    return words


@functools.cache
def _float_keep() -> np.ndarray:
    """Keep masks over a float row, one per (exponent k in -4 ... 16, last
    non-zero digit, sign), in that index order; read-only."""
    axes = np.arange(-4, 17), np.arange(17), np.arange(2), np.arange(40)
    k, last, negative, j = np.ix_(*axes)
    i = (j - 6) // 2  # the digit of column j >= 6, or the one a point slot follows
    on_digit = (j >= 6) & (j % 2 == 0)
    keep = np.zeros([a.size for a in axes], bool)
    keep |= (j == 0) & (negative == 1)  # the sign
    keep |= (j >= 1) & (j <= 2) & (k < 0)  # "0." below 1
    keep |= (j >= 3) & (j <= 5) & (j >= 7 + k)  # the zeros after "0."
    keep |= on_digit & (i <= np.maximum(k, last))  # the integer digits, then up to the last
    keep |= ~on_digit & (j >= 7) & (i == k) & (last > k)  # the point, unless bare
    keep |= j == 39  # the separator
    keep = keep.reshape(-1, j.size)
    keep.setflags(write=False)
    return keep


def _float_cells(x: np.ndarray, separator: int) -> np.ndarray:
    """Floats as "%.17g" cells, each followed by separator, in a NUL-padded
    uint8 (n, 40) matrix.

    The kernel takes finite |x| in [1e-4, 1e17), which "%.17g" writes in
    fixed notation; the rest take the per-cell path. The decimal exponent k
    comes from a search of the doubles >= 10**j. Dekker's product of |x| and
    the exact 10**(16-k) is hi + lo == |x| * 10**(16-k) exactly, and
    rounding it half to even gives the 17 significant digits d, as a
    correctly rounded conversion does. A row is "-0.000", then the 17 digits
    each followed by a point slot, the last slot the separator, written as
    five 8-byte words looked up by d's first digit and its four 4-digit
    groups. A mask looked up by (k, last non-zero digit, sign) then blanks
    every byte but the sign, the integer digits, the point and the digits up
    to the last non-zero one.
    """
    x = x.astype(np.float64, copy=False)  # float16 and float32 widen exactly, as "%.17g" does
    magnitude = np.abs(x)
    refused = ~((magnitude >= _POW10[0]) & (magnitude < _POW10[21]))  # nan fails both
    magnitude[refused] = 1.0
    k = np.searchsorted(_POW10[:22], magnitude, side="right") - 5
    hi, lo = _two_product(magnitude, np.take(_POW10, 20 - k))
    # hi is an even integer (it is at least 1e16 > 2**53), so rounding lo
    # half to even rounds hi + lo half to even; d never carries to 10**17,
    # since no double below 10**(k+1) lies within half a 17th digit of it
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    first, groups = _digit_groups(d)
    lead, dotted = _float_words()
    words = np.empty((x.size, 5), np.uint64)
    words[:, 0] = np.take(lead, first)
    for j, group in enumerate(groups, start=1):
        words[:, j] = np.take(dotted, group)
    cells = words.view(np.uint8)
    cells[:, 39] = separator
    last = 16 - np.argmax(cells[:, 38:5:-2] != ord("0"), axis=1)  # last non-zero digit
    cells *= np.take(_float_keep(), ((k + 4) * 17 + last) * 2 + np.signbit(x), axis=0)
    refused = np.flatnonzero(refused)
    _put_cells(cells, refused, [format(v, ".17g").encode() for v in x[refused].tolist()])
    return cells


def _int_cells(v: np.ndarray, separator: int) -> np.ndarray:
    """Ints in decimal, each followed by separator, in a NUL-padded uint8
    matrix: a sign slot, the digits of the block's longest cell, the
    separator. The kernel takes |v| < 10**17, written as 4-byte words looked
    up by the first digit and the 4-digit groups, with leading zeros as NUL;
    the rest take the per-cell path."""
    wide = v.astype(np.uint64 if v.dtype.kind == "u" else np.int64)
    refused = wide >= 10**17
    if v.dtype.kind == "i":  # the int64 minimum, which has no int64 magnitude, is refused
        refused |= wide <= -(10**17)
    magnitude = np.abs(np.where(refused, 0, wide)).astype(np.uint64)
    first, groups = _digit_groups(magnitude)
    # a row: three spare bytes and the first digit, four groups, the separator
    words = np.zeros((v.size, 6), np.uint32)
    packed = _group_text().view(np.uint32).ravel()  # from 10**4 on, leading zeros as NUL
    words[:, 0] = np.take(packed, first + 10**4)
    leading = first == 0
    for j, group in enumerate(groups, start=1):
        words[:, j] = np.take(packed, group + leading * 10**4)
        leading &= group == 0
    cells = words.view(np.uint8)
    cells[leading, 19] = ord("0")  # zero is "0"
    refused = np.flatnonzero(refused)
    # from the sign slot just before the longest cell's digits, or from the
    # row's start where a per-cell text needs the room
    start = 0 if refused.size else 19 - len(str(int(magnitude.max(initial=0))))
    cells = cells[:, start:21]
    cells[:, 0] = (wide < 0) * _MINUS
    cells[:, -1] = separator
    _put_cells(cells, refused, [str(i).encode() for i in v[refused].tolist()])
    return cells


def _string_cells(values: np.ndarray, separator: int) -> np.ndarray:
    """Strings as UTF-8 cells, each followed by separator, in a NUL-padded
    uint8 (n, w + 1) matrix, w the longest encoded cell. ASCII cells are the
    str array's code points; the rest take the per-cell path."""
    if values.dtype.kind == "O":
        # labels as a str array as wide as the longest distinct label, which
        # spares numpy a pass to find that width
        text = values.astype(f"U{max(map(len, set(values)))}")
    else:
        text = np.ascontiguousarray(values)
    codes = text.view(np.uint32).reshape(text.size, text.itemsize // 4)
    refused = np.flatnonzero((codes >= 128).any(axis=1) if codes.max() >= 128 else [])
    encoded = [cell.encode("utf-8") for cell in text[refused].tolist()]
    cells = np.zeros((text.size, 1 + max([codes.shape[1], *map(len, encoded)])), np.uint8)
    cells[:, : codes.shape[1]] = codes
    cells[:, -1] = separator
    _put_cells(cells, refused, encoded)
    return cells


def _put_cells(cells: np.ndarray, rows: np.ndarray, encoded: list[bytes]) -> None:
    """The per-cell path: each cell's UTF-8 text into its row of the cell
    matrix, NUL-padded from column 0 up to the separator."""
    if rows.size:
        width = cells.shape[1] - 1
        cells[rows, :width] = np.array(encoded, f"S{width}").view(np.uint8).reshape(-1, width)


_CELLS = {
    "f": _float_cells, "i": _int_cells, "u": _int_cells, "U": _string_cells, "O": _string_cells
}


def _block_bytes(columns: list[np.ndarray]) -> bytes:
    """One block of rows as UTF-8 bytes: the columns' NUL-padded cell
    matrices side by side, each row ending in a comma or, in the last column,
    a newline, with every NUL deleted in one pass. No cell holds a NUL: a
    string cell may not (ColumnarReport), and no number's text does."""
    separators = [_COMMA] * (len(columns) - 1) + [_NEWLINE]
    cells = [_CELLS[c.dtype.kind](c, sep) for c, sep in zip(columns, separators)]
    return np.concatenate(cells, axis=1).tobytes().translate(None, b"\0")


def _write_rows(path: str, header: list[str], columns) -> None:
    """Write the header lines, then the columns' rows in blocks of
    WRITE_BLOCK_ROWS, each formatted by _block_bytes: decimal ints, strings
    as they are, else "%.17g"."""
    with _atomic_file(path) as handle:
        handle.write("".join(line + "\n" for line in header).encode("utf-8"))
        for start in range(0, columns[0].size, WRITE_BLOCK_ROWS):
            handle.write(_block_bytes([c[start : start + WRITE_BLOCK_ROWS] for c in columns]))


def write_report(path: str, report: ColumnarReport) -> None:
    header = [f"# {k}={v}" for k, v in report.metadata.items()]
    header.append(",".join(report.columns))
    _write_rows(path, header, list(report.data.values()))


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


_split_cells = operator.methodcaller("split", ",")


def _data_lines(lines: list[str], start: int):
    """Stripped non-blank lines from index start on -> (lines, 1-based line
    numbers, comma count per line)."""
    stripped = list(map(str.strip, lines[start:]))
    numbers = np.flatnonzero(np.fromiter(map(bool, stripped), bool, len(stripped)))
    rows = list(filter(None, stripped))
    commas = np.fromiter(map(operator.methodcaller("count", ","), rows), np.int64, len(rows))
    return rows, numbers + start + 1, commas


def _ints(cells: list[str]) -> np.ndarray:
    """Integer literals as int64: ValueError if a cell is not one,
    OverflowError if one does not fit."""
    if not _INT_BLOCK_RE.fullmatch(",".join(cells)):
        raise ValueError("not an integer literal")
    return np.fromiter(map(int, cells), np.int64, len(cells))


def _typed_columns(rows: list[str], k: int) -> list[np.ndarray]:
    """The k comma-separated cells of each row as k columns: int64 if every
    cell is an integer literal that fits, else float64 if every cell is a
    float, else str.

    Rows are split and parsed READ_BLOCK_ROWS at a time, so the file's cells
    are never all held. Within a block, a column's cells are checked as
    integer literals by one regex match over the cells joined by commas, and
    its values are built by np.fromiter over int() or float(), with no
    interpreted code run per cell. A column starts as int64 and widens to
    float64 at its first other cell; its int64 blocks convert exactly, since
    int() and float() both round the same literal's integer to the nearest
    double. A column with a cell that is not a float is split from the rows
    again as strings.

    read_report runs this on a report's first READ_BLOCK_ROWS lines, whose
    dtypes the C parser then reads the rest with, and on the whole body only
    where the C parser cannot give this function's answer (_numeric_tail).
    """
    kinds = ["i"] * k
    blocks = [[] for _ in range(k)]
    for start in range(0, len(rows), READ_BLOCK_ROWS):
        cells = list(map(str.strip, ",".join(rows[start : start + READ_BLOCK_ROWS]).split(",")))
        for j in range(k):
            if kinds[j] == "U":
                continue
            column = cells[j::k]
            if kinds[j] == "i":
                try:
                    blocks[j].append(_ints(column))
                    continue
                except (ValueError, OverflowError):
                    kinds[j] = "f"
                    blocks[j] = [b.astype(float) for b in blocks[j]]
            if kinds[j] == "f":
                try:
                    blocks[j].append(np.fromiter(map(float, column), float, len(column)))
                except ValueError:
                    kinds[j] = "U"
    columns = []
    for j in range(k):
        if kinds[j] == "U":
            cells = map(str.strip, map(operator.itemgetter(j), map(_split_cells, rows)))
            columns.append(np.array(list(cells), dtype=str))
        else:
            columns.append(np.concatenate([np.empty(0, np.int64), *blocks[j]]))
    return columns


def _parsed_columns(rows: list[str], dtypes) -> list[np.ndarray] | None:
    """The comma-separated cells of rows as columns of dtypes, parsed by
    numpy's C text parser in one call, or None where it refuses them: a cell
    it cannot convert, a row of another width, a whitespace-only line, or no
    row at all (a warning counts as a refusal). Empty lines are skipped, as
    the per-cell path skips them."""
    dtype = np.dtype([("", dt) for dt in dtypes])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
    return [table[name] for name in dtype.names]


def _numeric_tail(lines: list[str], start: int, head: list[np.ndarray]) -> list[np.ndarray] | None:
    """The non-empty lines from index start on, read by the C parser with the
    dtypes of the typed head columns, or None where the per-cell path must
    read them: a column of strings, a line the C parser refuses, or a row
    where an int column reads 0 and that holds a '-' (the C parser reads "-0"
    as the int 0, where the format reads it as the float -0.0)."""
    if any(column.dtype.kind == "U" for column in head):
        return None
    rows = list(filter(None, itertools.islice(lines, start, None)))
    tail = _parsed_columns(rows, [column.dtype for column in head])
    if tail is None:
        return None
    zero = np.zeros(len(rows), bool)
    for column, values in zip(head, tail):
        if column.dtype.kind == "i":
            zero |= values == 0
    if any("-" in rows[i] for i in np.flatnonzero(zero)):
        return None
    return tail


def _per_cell_columns(lines: list[str], start: int, columns: list[str]) -> list[np.ndarray]:
    """The data rows of lines from index start on as typed columns, cell by
    cell; ParseError at the first ragged row."""
    rows, numbers, commas = _data_lines(lines, start)
    widths = commas + 1
    ragged = np.flatnonzero(widths != len(columns))
    if ragged.size:
        i = ragged[0]
        raise ParseError(
            f"ragged row: {widths[i]} cells against {len(columns)} columns",
            line=int(numbers[i]),
        )
    return _typed_columns(rows, len(columns))


def read_report(path: str) -> ColumnarReport:
    """A report file: its first READ_BLOCK_ROWS data lines typed cell by
    cell, the rest by the C parser where it gives the per-cell result (see
    the module docstring). ParseError names the first ragged row's line."""
    lines = _read_lines(path)
    meta, start, _ = _split_metadata(lines)
    if start >= len(lines) or not lines[start].strip():
        raise ParseError("missing column header line", line=start + 1)
    columns = [c.strip() for c in lines[start].split(",")]
    if len(set(columns)) != len(columns):
        raise ParseError(f"duplicate column name in {lines[start]!r}", line=start + 1)
    head_end = start + 1 + READ_BLOCK_ROWS
    typed = _per_cell_columns(lines[:head_end], start + 1, columns)
    if len(lines) > head_end:
        tail = _numeric_tail(lines, head_end, typed)
        if tail is None:
            typed = _per_cell_columns(lines, start + 1, columns)
        else:
            typed = [np.concatenate(parts) for parts in zip(typed, tail)]
    return ColumnarReport(metadata=meta, data=dict(zip(columns, typed)))


def write_histogram(path: str, hist: TcspcHistogram) -> None:
    values = (hist.bin_width, hist.rep_rate, hist.integration_time, hist.channel)
    header = [f"# {k}={format_value(v)}" for k, v in zip(HISTOGRAM_KEYS, values)]
    _write_rows(path, header, [hist.bin_starts, hist.counts])


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


def _per_cell_histogram(lines: list[str], start: int, bin_width: float):
    """The data lines from index start on, parsed cell by cell, as (bin
    starts, counts) float64; ParseError names the first offending line."""
    rows, numbers, commas = _data_lines(lines, start)
    if not rows:
        raise ParseError("no data rows", line=len(lines) + 1)
    # Each check runs on the lines before the first failure of the one above
    # it, so the error always names the first offending line.
    not_pairs = np.flatnonzero(commas != 1)
    pairs = rows[: not_pairs[0]] if not_pairs.size else rows
    # cells are split and parsed READ_BLOCK_ROWS rows at a time, never all
    # held; extend keeps the values before a bad cell
    values = array.array("d")
    non_numeric = None
    for first in range(0, len(pairs), READ_BLOCK_ROWS):
        try:
            values.extend(map(float, ",".join(pairs[first : first + READ_BLOCK_ROWS]).split(",")))
        except ValueError as exc:
            non_numeric = exc
            break
    n = len(values) // 2
    starts, counts = np.frombuffer(values, count=2 * n).reshape(n, 2).T
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
    if non_numeric is not None:
        raise ParseError(f"non-numeric cell: {non_numeric}", line=int(numbers[n])) from non_numeric
    if n < len(rows):
        raise ParseError(f"expected 'bin_start_ns,counts', got {rows[n]!r}", line=int(numbers[n]))
    return starts, counts


def read_histogram(path: str) -> TcspcHistogram:
    """A histogram file as a TcspcHistogram, with int64 counts if every count
    is integral, else float64.

    The data rows go to numpy's C text parser as two float64 columns in one
    call, and the checks run once over them. Only where the C parser refuses
    the rows (a non-numeric cell, a row that is not a pair, a whitespace-only
    line, no rows) or a check fails does the per-cell path run: the rows are
    split and parsed READ_BLOCK_ROWS at a time, one float() per cell, and
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

    bin_width, rep_rate, integration = map(number, HISTOGRAM_KEYS[:3])
    channel = meta["channel"]

    parsed = _parsed_columns(lines[start:], (float, float))
    if parsed is None or _histogram_failures(*parsed, bin_width).any():
        parsed = _per_cell_histogram(lines, start, bin_width)
    del lines
    counts = parsed[1]
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
