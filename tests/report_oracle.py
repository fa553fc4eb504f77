"""Test-side reading of report files with int or string columns.

spingate's reader takes only the float64 columns a command expects. Tests
that check command outputs with int or string columns (hw-sim's channel,
snr-map's ix,iy, gate-apply's counts) or the writer's int and string round
trips read the files here instead, typing each column by oracle_column.
percent_text is the writer's oracle: the bytes of a file formatted cell by
cell with Python's "%" operator.
"""

import itertools
import re

import numpy as np

from spingate.report import ColumnarReport

# An integer literal; "-0" is not one: it is how "%.17g" writes -0.0.
_ORACLE_INT_RE = re.compile(r"\+?\d+|-0*[1-9]\d*")


def oracle_column(cells: list[str]) -> np.ndarray:
    """Cells as one column: int64 if every stripped cell is an integer
    literal that fits, else float64 if float() takes every cell, else str."""
    cells = [c.strip() for c in cells]
    if all(_ORACLE_INT_RE.fullmatch(c) and -(2**63) <= int(c) < 2**63 for c in cells):
        return np.array([int(c) for c in cells], dtype=np.int64)
    try:
        return np.array([float(c) for c in cells], dtype=float)
    except ValueError:
        return np.array(cells, dtype=str)


def read_table(path) -> ColumnarReport:
    """A report file: its '# key=value' lines, its header line, and each
    column of its non-blank data rows typed by oracle_column."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    entries = (line.lstrip("#").split("=", 1) for line in lines[:start])
    meta = {key.strip(): value.strip() for key, value in entries}
    names = [name.strip() for name in lines[start].split(",")]
    rows = [line.strip().split(",") for line in lines[start + 1 :] if line.strip()]
    columns = zip(*rows) if rows else [[]] * len(names)
    return ColumnarReport(
        metadata=meta, data={name: oracle_column(list(c)) for name, c in zip(names, columns)}
    )


# The rows as one "%" operation per block formatted them before the numpy
# block formatter, kept here as its oracle: decimal ints, strings as they
# are, else "%.17g".
def percent_text(header: list[str], columns: list[np.ndarray]) -> bytes:
    row = ",".join("%s" if c.dtype.kind in "iuU" else "%.17g" for c in columns) + "\n"
    cells = tuple(itertools.chain.from_iterable(zip(*(c.tolist() for c in columns))))
    text = "".join(line + "\n" for line in header) + (row * columns[0].size) % cells
    return text.encode("utf-8")
