"""Columnar text files: metadata headers, CSV-style rows, atomic writes.

Format, shared by every file the toolkit emits:

    # key=value            (any number of metadata lines)
    col_a,col_b            (one header line naming the columns)
    1,0.5                  (data rows)

Each column has one type and one format: floats with "%.17g"
(17 significant digits, so write -> read -> write is byte-stable), ints in
decimal and strings as they are. Metadata values are formatted as cells
are: floats with "%.17g", anything else with str() (format_value). Histogram
files use the same cell formatting in a fixed two-column layout
(bin_start_ns,counts) with no column header line; their metadata keys are
bin_width_ns, rep_rate_hz, integration_s and channel.

All writes go through a temp file in the target directory followed by an
atomic rename, and the file ends with the mode open(path, "w") gives a new
one. Rows are written in blocks of WRITE_BLOCK_ROWS, so a file's text is
never whole in memory, and each block is formatted by numpy with no Python
run per cell. Each column becomes a uint8 matrix of NUL-padded cells,
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
str array. A labelled column's names are formatted once into a small cell
matrix, and each block takes its rows by code. The cells the kernels refuse
are formatted one by one, with format(x, ".17g") or str(), into the same
matrix: nan, +-inf, +-0, |x| < 1e-4 (subnormals too) and |x| >= 1e17,
which "%.17g" writes in e-notation or as words, ints with |v| >= 10**17,
and strings that are not ASCII.

Reading is in spingate.reader, which only the commands that read a file
load; read_report and read_histogram resolve to it from here too.
"""

from __future__ import annotations

import contextlib
import functools
import os
import tempfile

import numpy as np

from . import histogram, reader
from .record import Record

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


class ColumnarReport(Record):
    """Named columns of equal length plus ordered key=value metadata.

    metadata values are stored as text, through format_value. data maps each
    column name to a 1-D array of ints, floats or strings (a str array), in
    the order given. labels maps a column of a few shared strings to its
    names: that column holds integer codes in [0, len(names)), and its cell
    in a row is names[code], so the column costs a byte or so per row and
    its names are checked and formatted once. No metadata entry, column name
    or string cell (a label name too) holds a line break (any str.splitlines
    ends a line at) or starts or ends with whitespace (any str.strip
    removes), and no string cell holds a comma, '#' or NUL, so splitting
    lines and stripping entries, names and cells with those gives them back.
    No column name is empty, nor a string cell of a one-column report (a
    blank line). A column is a read-only view of the array it was given, not
    a copy: a later write to a writeable source array shows through.
    """

    metadata: dict[str, str]
    data: dict[str, np.ndarray]
    labels: dict[str, tuple[str, ...]] = {}

    def __post_init__(self):
        meta = {}
        for key, value in dict(self.metadata).items():
            key = str(key)
            value = format_value(value)
            if "=" in key or _holds_any(key + value, _LINE_BREAKS):
                raise ValueError(f"invalid metadata entry {key!r}")
            if key != key.strip() or value != value.strip():
                raise ValueError(
                    f"metadata entry {key!r}={value!r} may not start or end with whitespace"
                )
            meta[key] = value
        object.__setattr__(self, "metadata", meta)
        data = {str(name): np.asarray(values).view() for name, values in dict(self.data).items()}
        if not data or any(not c or _holds_any(c, "," + _LINE_BREAKS) for c in data):
            raise ValueError("columns must be non-empty names free of commas and line breaks")
        for name in data:
            if name != name.strip():
                raise ValueError(f"column name {name!r} may not start or end with whitespace")
        labels = {str(name): tuple(names) for name, names in dict(self.labels).items()}
        strays = [name for name in labels if name not in data]
        if strays:
            raise ValueError(f"labels name {strays[0]!r}, which is not a column")
        for name, values in data.items():
            if values.ndim != 1:
                raise ValueError(f"column {name!r} must be 1-D")
            if name in labels:
                _check_codes(name, values, labels[name], alone=len(data) == 1)
            else:
                _check_column(name, values, alone=len(data) == 1)
            values.setflags(write=False)
        lengths = sorted({values.size for values in data.values()})
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {lengths}")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "labels", labels)

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self.data)

    @property
    def rows(self) -> tuple[tuple, ...]:
        """Read-only row view: one tuple of Python scalars per row, a
        labelled column's cells as their names."""
        labels = self.labels
        columns = (
            np.array(labels[name], str)[values] if name in labels else values
            for name, values in self.data.items()
        )
        return tuple(zip(*(values.tolist() for values in columns)))


def _check_column(name: str, values: np.ndarray, alone: bool) -> None:
    kind = values.dtype.kind
    if kind == "b":
        raise ValueError("boolean cells are ambiguous; use 0/1")
    if kind not in "iufU":
        raise ValueError(f"column {name!r} holds {values.dtype}, not ints, floats or strings")
    if kind == "U":
        # each distinct cell is checked once, in order of first occurrence,
        # as metadata entries and column names are. The cells are listed one
        # write block at a time, so no list of the whole column is ever held.
        cells = {}
        for start in range(0, values.size, WRITE_BLOCK_ROWS):
            cells.update(dict.fromkeys(values[start : start + WRITE_BLOCK_ROWS].tolist()))
        _check_cells(name, cells, alone)


def _check_codes(name: str, values: np.ndarray, names: tuple, alone: bool) -> None:
    """A labelled column: integer codes in [0, len(names)), its names
    checked once as string cells."""
    if values.dtype.kind not in "iu":
        raise ValueError(f"labelled column {name!r} holds {values.dtype}, not integer codes")
    if not all(isinstance(cell, str) for cell in names):
        raise ValueError(f"labels of column {name!r} are not all strings")
    _check_cells(name, names, alone)
    if values.size and not (values.min() >= 0 and values.max() < len(names)):
        bad = values[(values < 0) | (values >= len(names))][0]
        raise ValueError(f"labelled column {name!r} holds code {bad}, outside [0, {len(names)})")


def _check_cells(name: str, cells, alone: bool) -> None:
    """Check the distinct string cells of column name, in order: the first
    unsafe cell is named ahead of the first padded one."""
    unsafe = [cell for cell in cells if _holds_any(cell, _UNSAFE_CELL)]
    if unsafe:
        raise ValueError(
            f"string cell {unsafe[0]!r} may not contain comma, '#', NUL or a line break"
        )
    padded = [cell for cell in cells if cell != cell.strip()]
    if padded:
        raise ValueError(f"string cell {padded[0]!r} may not start or end with whitespace")
    if alone and "" in cells:
        raise ValueError(f"column {name!r} is alone, so an empty string cell is a blank line")


# Rows formatted and written per block, so a file's text is never whole in
# memory.
WRITE_BLOCK_ROWS = 16384


@contextlib.contextmanager
def _atomic_file(path: str):
    """A binary handle on a same-directory temp file, renamed onto path when
    the block exits without error and removed otherwise. The file gets the
    mode open(path, "w") gives a new file, 0o666 less the umask, in place
    of mkstemp's 0o600."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        umask = os.umask(0)  # read by setting it, then set back at once
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
def _last_places() -> np.ndarray:
    """By group j (0 ... 3) of a float's 17 digits and its value g, the place
    (1 ... 16) of g's last non-zero digit after the first digit, or 0 where g
    is 0: 4 * j + 4 less g's trailing zeros. A read-only (4, 10**4) uint8
    table."""
    g = np.arange(10**4)
    trailing = sum(g % 10**i == 0 for i in (1, 2, 3))
    places = np.where(g > 0, np.arange(4, 20, 4)[:, None] - trailing, 0).astype(np.uint8)
    places.setflags(write=False)
    return places


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
    groups. The place of d's last non-zero digit is the largest of those the
    groups look up in _last_places. A mask looked up by (k, that place,
    sign) then blanks every byte but the sign, the integer digits, the point
    and the digits up to the last non-zero one.
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
    last = np.zeros(x.size, np.uint8)  # the place of the last non-zero digit
    for j, (group, places) in enumerate(zip(groups, _last_places()), start=1):
        words[:, j] = np.take(dotted, group)
        np.maximum(last, np.take(places, group), out=last)
    cells = words.view(np.uint8)
    cells[:, 39] = separator
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
    text = np.ascontiguousarray(values)
    codes = text.view(np.uint32).reshape(text.size, text.itemsize // 4)
    refused = np.flatnonzero((codes >= 128).any(axis=1) if codes.max(initial=0) >= 128 else [])
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


_CELLS = {"f": _float_cells, "i": _int_cells, "u": _int_cells, "U": _string_cells}


def _cell_formatters(columns: list[np.ndarray], labels: list) -> list:
    """Per column, the function that turns a block of it into its cell
    matrix, each cell ending in a comma or, in the last column, a newline.
    labels[j] is the names column j's integer codes stand for, or None: a
    labelled column's names are formatted once, and a block's cells are
    their rows taken by code."""
    separators = [_COMMA] * (len(columns) - 1) + [_NEWLINE]
    return [
        functools.partial(_CELLS[c.dtype.kind], separator=sep)
        if names is None
        else functools.partial(np.take, _string_cells(np.array(names, str), sep), axis=0)
        for c, names, sep in zip(columns, labels, separators)
    ]


def _write_rows(path: str, header: list[str], columns, labels) -> None:
    """Write the header lines, then the columns' rows in blocks of
    WRITE_BLOCK_ROWS: decimal ints, strings as they are (a labelled column's
    as its names), else "%.17g". A block is the columns' NUL-padded cell
    matrices side by side, as UTF-8 bytes with every NUL deleted in one
    pass. No cell holds a NUL: a string cell may not (ColumnarReport), and
    no number's text does."""
    formatters = _cell_formatters(columns, labels)
    with _atomic_file(path) as handle:
        handle.write("".join(line + "\n" for line in header).encode("utf-8"))
        for start in range(0, columns[0].size, WRITE_BLOCK_ROWS):
            cells = [
                format_cells(c[start : start + WRITE_BLOCK_ROWS])
                for c, format_cells in zip(columns, formatters)
            ]
            handle.write(np.concatenate(cells, axis=1).tobytes().translate(None, b"\0"))


def write_report(path: str, report: ColumnarReport) -> None:
    header = [f"# {k}={v}" for k, v in report.metadata.items()]
    header.append(",".join(report.columns))
    labels = [report.labels.get(name) for name in report.columns]
    _write_rows(path, header, list(report.data.values()), labels)


def write_histogram(path: str, hist: histogram.TcspcHistogram) -> None:
    values = (hist.bin_width, hist.rep_rate, hist.channel_time, hist.channel)
    header = [f"# {k}={format_value(v)}" for k, v in zip(HISTOGRAM_KEYS, values)]
    _write_rows(path, header, [hist.bin_starts, hist.counts], [None, None])


def __getattr__(name):
    # the readers live in their own module, loaded on first use
    if name in ("read_report", "read_histogram"):
        return getattr(reader, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
