"""File formats: columnar reports, histogram files, INI run configs."""

import glob
import itertools
import math
import os
import re
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spingate.config import load_config, parse_config
from spingate.errors import ConfigError, ParseError
from spingate.histogram import TcspcHistogram
from spingate import report as report_module
from spingate.report import (
    HISTOGRAM_KEYS,
    ColumnarReport,
    atomic_write_text,
    format_value,
    read_histogram,
    read_report,
    write_histogram,
    write_report,
)

# The characters str.splitlines ends a line at; the reader splits files with it.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

BULK_INI = textwrap.dedent(
    """\
    [model]
    spin0 = 1.0, 12.0, ms0
    spin1 = 1.0, 8.0, ms1
    background = 20.8, 1.7, substrate
    c_sat = 0.15

    [train]
    rep_rate = 20e6

    [sweep]
    integration_time = 10
    mw_duty = 0.5
    tau_c_step = 0.1
    linewidth = 1e7

    [io]
    seed = 7
    out = sweep.csv
    """
)


class TestReportRoundTrip:
    def make_report(self):
        return ColumnarReport(
            metadata={"tool": "spingate", "seed": "7", "rate_hz": "20000000"},
            data={
                "tau_c_ns": [0.25, 0.1, 1],
                "snr": [12.5, 13.25, 0.1 + 0.2],
                "label": ["a", "b", "c"],
                "count": [3, -1, 0],
            },
        )

    def test_round_trip_equality(self, tmp_path):
        path = str(tmp_path / "r.csv")
        report = self.make_report()
        write_report(path, report)
        back = read_report(path)
        assert back.metadata == report.metadata
        assert back.columns == report.columns
        assert back.rows == report.rows
        # Each column is typed as a whole: the 0.25/0.1/1 column is float.
        assert back.data["tau_c_ns"].dtype == np.float64
        assert back.data["snr"].dtype == np.float64
        assert back.data["label"].dtype.kind == "U"
        assert back.data["count"].dtype == np.int64

    def test_write_read_write_is_byte_stable(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        write_report(a, self.make_report())
        write_report(b, read_report(a))
        assert open(a, "rb").read() == open(b, "rb").read()

    @pytest.mark.parametrize(
        "value",
        [
            math.pi,
            0.1 + 0.2,
            1e-300,
            1.7976931348623157e308,
            2.5e-17,
            -0.0,
            math.nan,
            math.inf,
            -math.inf,
            5e-324,
            np.iinfo(np.int64).max,
            np.iinfo(np.int64).min,
        ],
    )
    def test_seventeen_digit_float_fidelity(self, tmp_path, value):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        column = np.array([value])
        write_report(a, ColumnarReport(metadata={}, data={"x": column}))
        back = read_report(a).data["x"]
        assert back.dtype == column.dtype
        assert back.tobytes() == column.tobytes()
        write_report(b, read_report(a))
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_header_only_report(self, tmp_path):
        path = str(tmp_path / "h.csv")
        write_report(path, ColumnarReport(metadata={"n": "0"}, data={"a": [], "b": []}))
        back = read_report(path)
        assert back.rows == ()
        assert back.columns == ("a", "b")

    def test_ragged_file_row_names_line(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        path_obj = tmp_path / "bad.csv"
        path_obj.write_text("# k=v\na,b\n1,2\n3\n")
        with pytest.raises(ParseError, match="line 4"):
            read_report(path)

    def test_duplicate_column_name(self, tmp_path):
        (tmp_path / "d.csv").write_text("a,b,a\n1,2,3\n")
        with pytest.raises(ParseError, match="line 1: duplicate column"):
            read_report(str(tmp_path / "d.csv"))

    def test_missing_header_line(self, tmp_path):
        (tmp_path / "empty.csv").write_text("# k=v\n")
        with pytest.raises(ParseError, match="column header"):
            read_report(str(tmp_path / "empty.csv"))

    def test_metadata_without_equals(self, tmp_path):
        (tmp_path / "m.csv").write_text("# justakey\na\n1\n")
        with pytest.raises(ParseError, match="lacks '='"):
            read_report(str(tmp_path / "m.csv"))

    def test_report_validation(self):
        with pytest.raises(ValueError, match="ragged"):
            ColumnarReport(metadata={}, data={"a": [1], "b": []})
        with pytest.raises(ValueError, match="metadata"):
            ColumnarReport(metadata={"a=b": "c"}, data={"a": []})
        with pytest.raises(ValueError, match="columns"):
            ColumnarReport(metadata={}, data={})
        with pytest.raises(ValueError, match="1-D"):
            ColumnarReport(metadata={}, data={"a": [[1, 2]]})
        with pytest.raises(ValueError, match="not ints, floats or strings"):
            ColumnarReport(metadata={}, data={"a": [1 + 2j]})

    def test_metadata_values_formatted_as_cells(self, tmp_path):
        # floats as "%.17g", like float cells; anything else with str()
        path = str(tmp_path / "m.csv")
        meta = {
            "f": 0.1,
            "g": np.float64(1 / 3),
            "inf": math.inf,
            "i": 12,
            "big": np.int64(2**62),
            "s": "none",
        }
        write_report(path, ColumnarReport(metadata=meta, data={"a": [1]}))
        assert open(path).read().splitlines()[:6] == [
            "# f=0.10000000000000001",
            "# g=0.33333333333333331",
            "# inf=inf",
            "# i=12",
            "# big=4611686018427387904",
            "# s=none",
        ]

    def test_columns_are_read_only_views(self):
        source = np.arange(5.0)
        column = ColumnarReport(metadata={}, data={"x": source}).data["x"]
        assert np.shares_memory(column, source)
        assert not column.flags.writeable
        assert source.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1.0

    def test_cell_restrictions(self, tmp_path):
        path = str(tmp_path / "x.csv")
        with pytest.raises(ValueError, match="boolean"):
            write_report(path, ColumnarReport(metadata={}, data={"a": [True]}))
        with pytest.raises(ValueError, match="comma"):
            write_report(path, ColumnarReport(metadata={}, data={"a": ["x,y"]}))

    @pytest.mark.parametrize("char", LINE_BREAKS)
    def test_line_breaks_rejected(self, char):
        # the reader splits files with str.splitlines, which ends a line at
        # each of these, so none may be written inside an entry or a cell
        assert f"a{char}b".splitlines() == ["a", "b"]
        with pytest.raises(ValueError, match="metadata"):
            ColumnarReport(metadata={f"k{char}": "v"}, data={"a": [1]})
        with pytest.raises(ValueError, match="metadata"):
            ColumnarReport(metadata={"k": f"v{char}w"}, data={"a": [1]})
        with pytest.raises(ValueError, match="line breaks"):
            ColumnarReport(metadata={}, data={f"a{char}b": [1]})
        for column in (np.array(["ok", f"a{char}b"]), np.array(["ok", f"a{char}b"], object)):
            with pytest.raises(ValueError, match="may not contain"):
                ColumnarReport(metadata={}, data={"a": column})

    @pytest.mark.parametrize("cell", ["a\x00b", "\x00a", "a\x00"])
    def test_nul_in_string_cell_rejected(self, cell):
        # a str array drops a trailing NUL, so such a cell would not be
        # written as given
        with pytest.raises(ValueError, match="may not contain"):
            ColumnarReport(metadata={}, data={"a": np.array(["ok", cell], object)})
        if not cell.endswith("\x00"):
            with pytest.raises(ValueError, match="may not contain"):
                ColumnarReport(metadata={}, data={"a": np.array(["ok", cell])})

    def test_label_objects_written_as_strings(self, tmp_path):
        labels = np.array(["mw_off", "mw_on"], dtype=object)[[0, 1, 1, 0]]
        for name, column in (("o.csv", labels), ("u.csv", labels.astype(str))):
            report = ColumnarReport(metadata={}, data={"t": np.arange(4.0), "channel": column})
            write_report(str(tmp_path / name), report)
        assert (tmp_path / "o.csv").read_bytes() == (tmp_path / "u.csv").read_bytes()
        assert read_report(str(tmp_path / "o.csv")).data["channel"].tolist() == labels.tolist()

    @pytest.mark.parametrize(
        "cells, match",
        [
            (["a", 1], "not strings"),
            (["a", None], "not strings"),
            ([["a"], "b"], "not strings"),
            (["ok", "x#y", "ok"], r"'x#y' may not contain"),
        ],
    )
    def test_label_objects_checked(self, cells, match):
        column = np.empty(len(cells), dtype=object)
        column[:] = cells
        with pytest.raises(ValueError, match=match):
            ColumnarReport(metadata={}, data={"a": column})

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "t.txt")
        atomic_write_text(path, "one\n")
        atomic_write_text(path, "two\n")
        assert open(path).read() == "two\n"
        assert glob.glob(str(tmp_path / ".tmp-*")) == []

    def test_failed_write_cleans_up(self, tmp_path, monkeypatch):
        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_text(str(tmp_path / "x.txt"), "data")
        assert list(tmp_path.iterdir()) == []


class TestBlocks:
    """Files written or read in blocks of rows equal those done in one block."""

    # each column interleaves cells the block formatter's kernels take with
    # cells they refuse to the per-cell path
    INTS = [-2, 2**63 - 1, 0, -(2**63), 7, 10**17, -(10**17) + 1, 10**17 - 1, -9, 2**62]
    UINTS = [3, 2**64 - 1, 0, 10**17, 99, 10**17 - 1, 1, 2**63, 42, 5]
    STRINGS = [
        "row0", "\u00e9", "row2", "\u65e5\u672c", "", "a b", "\u00fcber", "z", "\U0001f600", "x"
    ]
    LABELS = ["mw_off", "\u00fc", "mw_on", "mw_off", "\u00fc", "mw_on", "", "mw_on", "mw_off", ""]
    FLOATS = [-0.0, 1.5, math.nan, -0.1, math.inf, 123.25, 5e-324, 1e300, 2.5e-05, -math.inf]

    def report(self, n):
        return ColumnarReport(
            metadata={"n": str(n)},
            data={
                "i": np.array(self.INTS[:n], np.int64),
                "u": np.array(self.UINTS[:n], np.uint64),
                "s": np.array(self.STRINGS[:n], str),
                "l": np.array(self.LABELS[:n], object),
                "x": np.array(self.FLOATS[:n], np.float64),
            },
        )

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 10])
    def test_write_blocks_same_bytes(self, tmp_path, monkeypatch, n):
        bins = max(n, 1)  # a histogram has at least one bin
        hist = TcspcHistogram(
            bin_width=50.0 / bins, counts=np.arange(bins) * 0.1, channel="mw_on",
            integration_time=1.0, rep_rate=20e6,
        )

        def written(rows):
            monkeypatch.setattr(report_module, "WRITE_BLOCK_ROWS", rows)
            write_report(str(tmp_path / "r.csv"), self.report(n))
            write_histogram(str(tmp_path / "h.csv"), hist)
            return (tmp_path / "r.csv").read_bytes(), (tmp_path / "h.csv").read_bytes()

        one = written(1000)
        assert written(1) == one
        assert written(3) == one
        lines = one[0].decode().splitlines()
        assert len(lines) == 2 + n
        if n == 4:
            assert lines[2:] == [
                "-2,3,row0,mw_off,-0",
                "9223372036854775807,18446744073709551615,\u00e9,\u00fc,1.5",
                "0,0,row2,mw_on,nan",
                "-9223372036854775808,100000000000000000,\u65e5\u672c,mw_off,-0.10000000000000001",
            ]

    def test_read_blocks_widen_each_column(self, tmp_path, monkeypatch):
        # per column: int then float, float then string, int then an int
        # past int64, and int throughout; each change falls in a later block
        path = tmp_path / "w.csv"
        path.write_text(
            "a,b,c,d\n1,0.5,1,7\n2,1.5,2,8\n3,2.5,3,9\n4.25,x,99999999999999999999,10\n"
        )
        monkeypatch.setattr(report_module, "READ_BLOCK_ROWS", 2)
        blocked = read_report(str(path))
        monkeypatch.setattr(report_module, "READ_BLOCK_ROWS", 1000)
        whole = read_report(str(path))
        assert [v.dtype.kind for v in whole.data.values()] == ["f", "U", "f", "i"]
        for name in whole.columns:
            assert blocked.data[name].dtype == whole.data[name].dtype
            assert blocked.data[name].tobytes() == whole.data[name].tobytes()


# The rows as one "%" operation per block formatted them before the numpy
# block formatter, kept here as its oracle: decimal ints, strings as they
# are, else "%.17g".
def percent_text(header: list[str], columns: list[np.ndarray]) -> bytes:
    row = ",".join("%s" if c.dtype.kind in "iuUO" else "%.17g" for c in columns) + "\n"
    cells = tuple(itertools.chain.from_iterable(zip(*(c.tolist() for c in columns))))
    text = "".join(line + "\n" for line in header) + (row * columns[0].size) % cells
    return text.encode("utf-8")


def _powers_of_ten_and_neighbours():
    for j in range(-5, 18):
        power = float(f"1e{j}")
        yield from (math.nextafter(power, -math.inf), power, math.nextafter(power, math.inf))


# Doubles where "%.17g" is easy to get wrong: 10**j and its neighbours (the
# fixed-notation range is [1e-4, 1e17)); ties at the 18th significant digit,
# which round half to even, in [1e14, 1e16); 2**53 and around it; the
# subnormals, the largest double and 99999999999999999.0, written "1e+17".
EDGE_FLOATS = [
    *_powers_of_ten_and_neighbours(),
    *(float(n) + f for n in (10**14 + 3, 10**15, 10**15 + 1, 2**51 - 8)
      for f in (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)),
    2.0**53 - 1, 2.0**53, float(2**53 + 1), 2.0**53 + 2,
    0.1, 9.2, 0.5, 1.0, 1e-4, math.nextafter(1e-4, 0.0), 99999999999999999.0,
    5e-324, 2.5e-310, sys.float_info.min, sys.float_info.max,
    0.0, -0.0, math.nan, math.inf, -math.inf,
]
# Every character a string cell may hold: no surrogate (not UTF-8), comma,
# '#', NUL or line break.
CELL_TEXT = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters=",#\x00" + LINE_BREAKS),
    max_size=5,
)


@st.composite
def writer_column(draw, n):
    """n cells of one of the column types a report holds."""
    kind = draw(st.sampled_from(["f8", "f4", "f2", "i8", "u8", "labels", "U"]))
    values = {
        "f8": st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)),
        "f4": st.floats(width=32),
        "f2": st.floats(width=16),
        "i8": st.one_of(st.integers(-(2**63), 2**63 - 1), st.integers(-(10**17), 10**17)),
        "u8": st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([10**17 - 1, 10**17])),
        "U": CELL_TEXT,
    }
    if kind == "labels":
        labels = np.array(draw(st.lists(CELL_TEXT, min_size=1, max_size=3)), dtype=object)
        return labels[draw(st.lists(st.integers(0, labels.size - 1), min_size=n, max_size=n))]
    cells = draw(st.lists(values[kind], min_size=n, max_size=n))
    return np.array(cells, dtype=str if kind == "U" else kind)


class TestCellFormatter:
    """The block formatter writes the bytes the "%" formatter wrote."""

    @given(data=st.data(), n=st.integers(0, 12), k=st.integers(1, 4))
    @settings(max_examples=400, deadline=None)
    def test_report_bytes_as_percent_formatter(self, tmp_path_factory, data, n, k):
        columns = [data.draw(writer_column(n)) for _ in range(k)]
        report = ColumnarReport(
            metadata={"k": k, "x": data.draw(st.floats())},
            data={f"c{j}": column for j, column in enumerate(columns)},
        )
        path = tmp_path_factory.mktemp("fmt") / "r.csv"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(report_module, "WRITE_BLOCK_ROWS", data.draw(st.sampled_from([1, 5, 64])))
            write_report(str(path), report)
        header = [f"# {key}={value}" for key, value in report.metadata.items()]
        assert path.read_bytes() == percent_text([*header, ",".join(report.columns)], columns)

    @given(data=st.data(), n=st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_histogram_bytes_as_percent_formatter(self, tmp_path_factory, data, n):
        counts = data.draw(
            st.one_of(
                st.lists(st.one_of(st.floats(min_value=0.0), st.just(-0.0)), min_size=n,
                         max_size=n).map(np.array),
                st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n).map(np.array),
            )
        )
        rep_rate = data.draw(st.floats(1e3, 1e9))
        hist = TcspcHistogram(
            bin_width=1e9 / rep_rate / n, counts=counts,
            channel=data.draw(st.sampled_from(["mw_off", "mw_on"])),
            integration_time=data.draw(st.floats(0.0, 1e6)), rep_rate=rep_rate,
        )
        path = tmp_path_factory.mktemp("fmt") / "h.csv"
        write_histogram(str(path), hist)
        values = (hist.bin_width, hist.rep_rate, hist.integration_time, hist.channel)
        header = [f"# {k}={format_value(v)}" for k, v in zip(HISTOGRAM_KEYS, values)]
        assert path.read_bytes() == percent_text(header, [hist.bin_starts, hist.counts])

    def test_edge_floats_as_percent_formatter(self, tmp_path):
        column = np.array(EDGE_FLOATS + [-v for v in EDGE_FLOATS])
        path = tmp_path / "e.csv"
        write_report(str(path), ColumnarReport(metadata={}, data={"x": column}))
        assert path.read_bytes() == percent_text(["x"], [column])
        assert "99999999999999999.0" not in path.read_text()
        assert "\n1e+17\n" in path.read_text()

    def test_extreme_ints_as_percent_formatter(self, tmp_path):
        signed = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -(10**17), 10**17,
                           -(10**17) + 1, 10**17 - 1, 0, -1])
        unsigned = np.array([np.iinfo(np.uint64).max, 10**17, 10**17 - 1, 0, 1, 2**63, 2**64 - 2,
                             9], dtype=np.uint64)
        path = tmp_path / "i.csv"
        write_report(str(path), ColumnarReport(metadata={}, data={"i": signed, "u": unsigned}))
        assert path.read_bytes() == percent_text(["i,u"], [signed, unsigned])

    def test_no_double_rounds_up_to_the_next_power_of_ten(self):
        # the formatter takes a float's decimal exponent from the thresholds
        # alone, with no carry: the largest double below each threshold,
        # scaled to 17 digits, rounds to less than 10**17
        for j, threshold in zip(range(-3, 18), report_module._POW10[1:22]):
            below = Fraction(math.nextafter(threshold, 0.0))
            assert round(below * Fraction(10) ** (17 - j)) < 10**17

    def test_thresholds_are_the_smallest_doubles_at_or_above_powers_of_ten(self):
        thresholds = report_module._POW10
        assert len(thresholds) == 25  # 10**-4 ... 10**20
        for j, threshold in zip(range(-4, 21), thresholds):
            power = Fraction(10) ** j
            assert Fraction(threshold) >= power
            assert Fraction(math.nextafter(threshold, 0.0)) < power


# The per-cell typing rules, kept here as the oracle for the block-wise
# reader: int64 if every stripped cell is an integer literal that fits, else
# float64 if float() takes every cell, else str.
_ORACLE_INT_RE = re.compile(r"\+?\d+|-0*[1-9]\d*")


def oracle_column(cells: list[str]) -> np.ndarray:
    cells = [c.strip() for c in cells]
    if all(_ORACLE_INT_RE.fullmatch(c) and -(2**63) <= int(c) < 2**63 for c in cells):
        return np.array([int(c) for c in cells], dtype=np.int64)
    try:
        return np.array([float(c) for c in cells], dtype=float)
    except ValueError:
        return np.array(cells, dtype=str)


INT_CELL = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(
        ["+7", "007", "\u0663", " 5 ", "9223372036854775807", "9223372036854775808",
         "-9223372036854775808", "-9223372036854775809"]
    ),
)
OTHER_CELL = st.one_of(
    st.floats().map(repr),
    st.sampled_from(
        ["-0", "1_000", "nan", "-nan", "inf", "-Infinity", "1e3", ".5", "x", "word", "", "+-1"]
    ),
    st.text(alphabet="0123456789+-._eEinfaxy \u0663", max_size=6),
)


@st.composite
def typed_column(draw, n):
    """n integer literals with up to two of them replaced by other cells, so
    that columns often stay int64 or widen in a late block."""
    cells = draw(st.lists(INT_CELL, min_size=n, max_size=n))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        cells[i] = draw(OTHER_CELL)
    return cells


class TestTypingOracle:
    @given(data=st.data(), k=st.integers(2, 4), n=st.integers(1, 10))
    @settings(max_examples=300, deadline=None)
    def test_read_report_types_as_per_cell_oracle(self, tmp_path_factory, data, k, n):
        # two or more columns, so no row is blank; blocks of three rows, so a
        # column can widen in any block
        columns = data.draw(st.lists(typed_column(n), min_size=k, max_size=k))
        path = tmp_path_factory.mktemp("oracle") / "cells.csv"
        header = ",".join(f"c{j}" for j in range(k))
        path.write_text("\n".join([header, *map(",".join, zip(*columns))]) + "\n", "utf-8")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(report_module, "READ_BLOCK_ROWS", 3)
            got = read_report(str(path))
        for cells, column in zip(columns, got.data.values()):
            want = oracle_column(cells)
            assert column.dtype.kind == want.dtype.kind
            if want.dtype.kind == "U":
                assert column.tolist() == want.tolist()
            else:
                assert column.tobytes() == want.tobytes()


class TestCParserBoundary:
    """Cells past the first READ_BLOCK_ROWS rows at the default block size,
    where read_report hands the rest of the file to numpy's C text parser
    with the dtypes the first block fixed."""

    N = 5000
    AT = 4500  # a data row past the first block

    def write(self, path, ints, floats, extra=()):
        lines = ["# k=v", "i,x", *map(",".join, zip(ints, floats))]
        for at, line in extra:
            lines.insert(at, line)
        path.write_text("\n".join(lines) + "\n", "utf-8")

    def columns(self):
        return [str(k) for k in range(self.N)], [repr(k / 3) for k in range(self.N)]

    @pytest.mark.parametrize("cell", ["-0", "1_000", "\u0663", "1.5"])
    def test_int_column_cell_read_as_per_cell_oracle(self, tmp_path, cell):
        # "-0" reads as the int 0 in the C parser but as the float -0.0 by the
        # cell grammar; the C parser refuses the other three
        assert report_module.READ_BLOCK_ROWS < self.AT
        ints, floats = self.columns()
        ints[self.AT] = cell
        path = tmp_path / "c.csv"
        self.write(path, ints, floats)
        got = read_report(str(path))
        for cells, column in zip((ints, floats), got.data.values()):
            want = oracle_column(cells)
            assert column.dtype == want.dtype
            assert column.tobytes() == want.tobytes()

    @pytest.mark.parametrize("blank", ["", "   "])
    def test_blank_line_skipped(self, tmp_path, blank):
        ints, floats = self.columns()
        path = tmp_path / "b.csv"
        self.write(path, ints, floats, [(2 + self.AT, blank)])
        got = read_report(str(path))
        assert got.data["i"].tobytes() == oracle_column(ints).tobytes()
        assert got.data["x"].tobytes() == oracle_column(floats).tobytes()

    @pytest.mark.parametrize("blank", [None, "", "   "])
    def test_ragged_row_names_its_line(self, tmp_path, blank):
        # the ragged row is file line AT + 3, one more after a blank line
        # above it
        ints, floats = self.columns()
        extra = [(2 + self.AT, "7")]
        if blank is not None:
            extra.append((2 + self.AT - 100, blank))
        path = tmp_path / "r.csv"
        self.write(path, ints, floats, extra)
        line = self.AT + 3 + (blank is not None)
        with pytest.raises(ParseError, match=rf"^line {line}: ragged row: 1 cells against 2"):
            read_report(str(path))


class TestHistogramFiles:
    def make_hist(self, counts):
        return TcspcHistogram(
            bin_width=0.1,
            counts=np.asarray(counts),
            channel="mw_off",
            integration_time=1.0,
            rep_rate=20e6,
        )

    def test_integer_round_trip(self, tmp_path):
        path = str(tmp_path / "h.csv")
        hist = self.make_hist(np.arange(500, dtype=np.int64))
        write_histogram(path, hist)
        back = read_histogram(path)
        assert np.issubdtype(back.counts.dtype, np.integer)
        assert np.array_equal(back.counts, hist.counts)
        assert back.bin_width == hist.bin_width
        assert back.rep_rate == hist.rep_rate
        assert back.integration_time == hist.integration_time
        assert back.channel == "mw_off"

    def test_float_round_trip(self, tmp_path):
        path = str(tmp_path / "h.csv")
        counts = np.linspace(0.0, 4.125, 500)
        hist = self.make_hist(counts)
        write_histogram(path, hist)
        back = read_histogram(path)
        assert not np.issubdtype(back.counts.dtype, np.integer)
        assert np.array_equal(back.counts, hist.counts)

    def test_negative_count_names_line(self, tmp_path):
        text = (
            "# bin_width_ns=1\n# rep_rate_hz=2e7\n# integration_s=1\n# channel=mw_off\n"
            "0,5\n1,-1\n"
        )
        (tmp_path / "neg.csv").write_text(text)
        with pytest.raises(ParseError, match=r"line 6.*negative counts -1"):
            read_histogram(str(tmp_path / "neg.csv"))

    @pytest.mark.parametrize("bad_row", ["1,nan", "1,inf", "nan,5"])
    def test_non_finite_cell_names_line(self, tmp_path, bad_row):
        text = (
            "# bin_width_ns=1\n# rep_rate_hz=2e7\n# integration_s=1\n# channel=mw_off\n"
            f"0,5\n{bad_row}\n2,x\n"
        )
        (tmp_path / "nf.csv").write_text(text)
        with pytest.raises(ParseError, match=rf"line 6: non-finite cell in '{bad_row}'"):
            read_histogram(str(tmp_path / "nf.csv"))

    def test_nan_count_rejected_by_histogram(self):
        with pytest.raises(ValueError, match="non-negative"):
            TcspcHistogram(
                bin_width=1.0,
                counts=np.r_[np.zeros(49), np.nan],
                channel="mw_off",
                integration_time=1.0,
                rep_rate=20e6,
            )

    def test_first_of_two_bad_lines_named(self, tmp_path):
        text = (
            "# bin_width_ns=1\n# rep_rate_hz=2e7\n# integration_s=1\n# channel=mw_off\n"
            "0,5\n1,-1\n2,x\n"
        )
        (tmp_path / "two.csv").write_text(text)
        with pytest.raises(ParseError, match=r"line 6: negative counts -1"):
            read_histogram(str(tmp_path / "two.csv"))

    @pytest.mark.parametrize(
        "bad_row, match",
        [
            ("3,x", r"line 9: non-numeric cell: could not convert string to float: 'x'"),
            ("3,-2", r"line 9: negative counts -2"),
            ("3", r"line 9: expected 'bin_start_ns,counts', got '3'"),
        ],
    )
    def test_bad_row_in_a_later_block_names_its_line(self, tmp_path, monkeypatch, bad_row, match):
        text = (
            "# bin_width_ns=1\n# rep_rate_hz=2e7\n# integration_s=1\n# channel=mw_off\n"
            f"0,5\n1,6\n\n2,7\n{bad_row}\n4,8\n5,x\n"
        )
        (tmp_path / "lb.csv").write_text(text)
        monkeypatch.setattr(report_module, "READ_BLOCK_ROWS", 2)
        with pytest.raises(ParseError, match=match):
            read_histogram(str(tmp_path / "lb.csv"))

    @pytest.mark.parametrize("cell, count", [("1_000", 1000), ("\u0663", 3), (" 7 ", 7)])
    def test_file_the_c_parser_refuses_read_per_cell(self, tmp_path, cell, count):
        # the C parser refuses the file (a whitespace-only line, and the first
        # two cells), and the per-cell path reads each cell with float()
        text = (
            "# bin_width_ns=12.5\n# rep_rate_hz=2e7\n# integration_s=1\n# channel=mw_off\n"
            f"0,5\n12.5,6\n  \n25,7\n37.5,{cell}\n"
        )
        (tmp_path / "cp.csv").write_text(text, "utf-8")
        back = read_histogram(str(tmp_path / "cp.csv"))
        assert back.counts.dtype == np.int64
        assert back.counts.tolist() == [5, 6, 7, count]

    def test_missing_metadata_key(self, tmp_path):
        (tmp_path / "m.csv").write_text("# bin_width_ns=1\n0,5\n")
        with pytest.raises(ParseError, match="rep_rate_hz"):
            read_histogram(str(tmp_path / "m.csv"))

    def test_non_numeric_metadata_names_its_line(self, tmp_path):
        text = "# bin_width_ns=1\n# rep_rate_hz=2e7\n# integration_s=abc\n# channel=mw_off\n0,5\n"
        (tmp_path / "nn.csv").write_text(text)
        with pytest.raises(ParseError, match="line 3: non-numeric metadata integration_s"):
            read_histogram(str(tmp_path / "nn.csv"))

    def test_non_monotone_bins(self, tmp_path):
        text = (
            "# bin_width_ns=1\n# rep_rate_hz=2e7\n# integration_s=1\n# channel=mw_off\n"
            "0,5\n0,6\n"
        )
        (tmp_path / "nm.csv").write_text(text)
        with pytest.raises(ParseError, match="non-monotone"):
            read_histogram(str(tmp_path / "nm.csv"))

    def test_off_grid_bin_start(self, tmp_path):
        text = (
            "# bin_width_ns=1\n# rep_rate_hz=2e7\n# integration_s=1\n# channel=mw_off\n"
            "0,5\n1.5,6\n"
        )
        (tmp_path / "og.csv").write_text(text)
        with pytest.raises(ParseError, match="grid"):
            read_histogram(str(tmp_path / "og.csv"))

    def test_no_data_rows(self, tmp_path):
        text = "# bin_width_ns=1\n# rep_rate_hz=2e7\n# integration_s=1\n# channel=mw_off\n"
        (tmp_path / "nd.csv").write_text(text)
        with pytest.raises(ParseError, match="no data rows"):
            read_histogram(str(tmp_path / "nd.csv"))

    def test_bad_channel_wrapped(self, tmp_path):
        text = "# bin_width_ns=1\n# rep_rate_hz=2e7\n# integration_s=1\n# channel=odd\n0,5\n"
        (tmp_path / "bc.csv").write_text(text)
        with pytest.raises(ParseError, match="channel"):
            read_histogram(str(tmp_path / "bc.csv"))


class TestConfig:
    def test_valid_bulk_config(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(BULK_INI)
        cfg = load_config(str(path))
        assert [c.lifetime for c in cfg.model.spin0] == [12.0]
        assert [c.lifetime for c in cfg.model.spin1] == [8.0]
        assert cfg.model.background[0].amplitude == 20.8
        assert cfg.model.background[0].label == "substrate"
        assert cfg.train.rep_rate == 20e6
        assert cfg.sweep.integration_time == 10.0
        assert cfg.sweep.linewidth == 1e7
        assert cfg.c_sat == 0.15
        assert cfg.seed == 7
        assert cfg.out == "sweep.csv"

    def test_multi_component_lines(self):
        cfg = parse_config(
            "[model]\nspin0 = 0.7, 12\nspin0 = 0.3, 3.5\nspin1 = 1, 8\n"
            "[train]\nrep_rate = 2e7\n"
        )
        assert len(cfg.model.spin0) == 2
        assert cfg.model.spin0[1].lifetime == 3.5

    def test_background_ratio_derivation(self):
        cfg = parse_config(
            "[model]\nspin0 = 1, 12\nspin1 = 1, 8\nbackground_ratio = 3\n"
            "background_ratio_mode = integrated\nbackground_lifetime = 1.7\n"
            "[train]\nrep_rate = 2e7\n"
        )
        bg = cfg.model.background[0]
        assert bg.lifetime == 1.7
        assert bg.amplitude == pytest.approx(20.848, abs=0.01)

    def test_unknown_key_carries_line(self):
        text = "[model]\nspin0 = 1, 12\nspin1 = 1, 8\nwavelength = 532\n[train]\nrep_rate = 2e7\n"
        with pytest.raises(ConfigError, match="line 4") as err:
            parse_config(text)
        assert err.value.line == 4
        assert "wavelength" in str(err.value)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"unknown section \[laser\]"):
            parse_config("[laser]\npower = 1\n")

    def test_duplicate_scalar_key(self):
        text = "[model]\nspin0 = 1, 12\nspin1 = 1, 8\nc_sat = 0.1\nc_sat = 0.2\n[train]\nrep_rate = 2e7\n"
        with pytest.raises(ConfigError, match="duplicate key 'c_sat'"):
            parse_config(text)

    def test_background_sources_are_exclusive(self):
        text = (
            "[model]\nspin0 = 1, 12\nspin1 = 1, 8\nbackground = 20, 1.7\n"
            "background_ratio = 3\nbackground_lifetime = 1.7\n[train]\nrep_rate = 2e7\n"
        )
        with pytest.raises(ConfigError, match="not both"):
            parse_config(text)

    def test_ratio_requires_lifetime(self):
        text = "[model]\nspin0 = 1, 12\nspin1 = 1, 8\nbackground_ratio = 3\n[train]\nrep_rate = 2e7\n"
        with pytest.raises(ConfigError, match="background_lifetime"):
            parse_config(text)

    def test_grid_keys_are_exclusive(self):
        text = (
            "[model]\nspin0 = 1, 12\nspin1 = 1, 8\n[train]\nrep_rate = 2e7\n"
            "[sweep]\nrate_grid = 1e7, 2e7\nperiod_grid = 50:70:10\n"
        )
        with pytest.raises(ConfigError, match="rate_grid or period_grid"):
            parse_config(text)

    def test_period_grid_maps_to_rates(self):
        text = (
            "[model]\nspin0 = 1, 12\nspin1 = 1, 8\n[train]\nrep_rate = 2e7\n"
            "[sweep]\nperiod_grid = 50:70:10\n"
        )
        cfg = parse_config(text)
        assert cfg.sweep.rate_grid == pytest.approx((1e9 / 50, 1e9 / 60, 1e9 / 70))

    def test_negative_seed_rejected(self):
        text = "[model]\nspin0 = 1, 12\nspin1 = 1, 8\n[train]\nrep_rate = 2e7\n[io]\nseed = -3\n"
        with pytest.raises(ConfigError, match="non-negative"):
            parse_config(text)

    def test_orphan_companion_key_rejected(self):
        text = (
            "[model]\nspin0 = 1, 12\nspin1 = 1, 8\n"
            "background_ratio_mode = integrated\n[train]\nrep_rate = 2e7\n"
        )
        with pytest.raises(ConfigError, match="companion"):
            parse_config(text)

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("rep_rate = 2e7\n")

    def test_missing_rep_rate(self):
        with pytest.raises(ConfigError, match="rep_rate"):
            parse_config("[model]\nspin0 = 1, 12\nspin1 = 1, 8\n")

    def test_malformed_section_header(self):
        with pytest.raises(ConfigError, match="malformed section"):
            parse_config("[model\nspin0 = 1, 12\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(tmp_path / "nope.ini"))

    def test_bad_power_mode(self):
        text = (
            "[model]\nspin0 = 1, 12\nspin1 = 1, 8\n[train]\nrep_rate = 2e7\n"
            "power_mode = afterburner\n"
        )
        with pytest.raises(ConfigError, match="power_mode"):
            parse_config(text)

    def test_component_invariants_enforced(self):
        with pytest.raises(ConfigError, match="lifetime"):
            parse_config("[model]\nspin0 = 1, -5\nspin1 = 1, 8\n[train]\nrep_rate = 2e7\n")
