"""File formats: columnar reports, histogram files, INI run configs."""

import glob
import math
import os
import re
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spingate.cli import main
from spingate.config import SweepConfig, load_config, parse_config
from spingate.decay import FluorescenceModel
from spingate.errors import ConfigError, GateError, ParseError, SpingateError
from spingate.histogram import TcspcHistogram
from spingate import report as report_module
from spingate.report import (
    HISTOGRAM_KEYS,
    ColumnarReport,
    format_value,
    read_histogram,
    read_report,
    write_histogram,
    write_report,
)

from report_oracle import oracle_column, percent_text, read_table

# The characters str.splitlines ends a line at; the reader splits files with it.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def exactly(path, line: int | None, message: str) -> str:
    """A pattern matching only the ParseError text '<path>: line <line>:
    <message>', without the line part where line is None."""
    where = "" if line is None else f"line {line}: "
    return f"^{re.escape(f'{path}: {where}{message}')}$"


def labelled(cells) -> tuple[np.ndarray, tuple[str, ...]]:
    """cells as a labelled column: uint8 codes into its distinct cells, in
    order of first occurrence."""
    names = tuple(dict.fromkeys(cells))
    return np.array([names.index(cell) for cell in cells], np.uint8), names


def labelled_report(cells, **others) -> ColumnarReport:
    """A report whose column "a" is cells as a labelled column, beside others."""
    codes, names = labelled(cells)
    return ColumnarReport(metadata={}, data={"a": codes, **others}, labels={"a": names})

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
        back = read_table(path)
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
        write_report(b, read_table(a))
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
        back = (read_report(a, ("x",)) if column.dtype.kind == "f" else read_table(a)).data["x"]
        assert back.dtype == column.dtype
        assert back.tobytes() == column.tobytes()
        write_report(b, ColumnarReport(metadata={}, data={"x": back}))
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_header_only_report(self, tmp_path):
        path = str(tmp_path / "h.csv")
        write_report(path, ColumnarReport(metadata={"n": "0"}, data={"a": [], "b": []}))
        back = read_report(path, ("a", "b"))
        assert back.rows == ()
        assert back.columns == ("a", "b")

    def test_ragged_file_row_names_line(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        path_obj = tmp_path / "bad.csv"
        path_obj.write_text("# k=v\na,b\n1,2\n3\n")
        message = "ragged row: 1 cells against 2 columns"
        with pytest.raises(ParseError, match=exactly(path, 4, message)):
            read_report(path, ("a", "b"))

    def test_duplicate_column_name(self, tmp_path):
        # a header that repeats a name is not the header the caller expects
        path = str(tmp_path / "d.csv")
        (tmp_path / "d.csv").write_text("a,b,a\n1,2,3\n")
        with pytest.raises(ParseError, match=exactly(path, 1, "expected columns a,b,c")):
            read_report(path, ("a", "b", "c"))

    @pytest.mark.parametrize("header", ["a", "a,b,c", "b,a", "a,B"])
    def test_other_header_rejected(self, tmp_path, header):
        path = str(tmp_path / "o.csv")
        (tmp_path / "o.csv").write_text(f"{header}\n")
        with pytest.raises(ParseError, match=exactly(path, 1, "expected columns a,b")):
            read_report(path, ("a", "b"))

    def test_header_names_stripped(self, tmp_path):
        (tmp_path / "s.csv").write_text("# k= v \n a , b \n1,2\n")
        back = read_report(str(tmp_path / "s.csv"), ("a", "b"))
        assert back.metadata == {"k": "v"}
        assert back.rows == ((1.0, 2.0),)

    def test_missing_header_line(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        (tmp_path / "empty.csv").write_text("# k=v\n")
        with pytest.raises(ParseError, match=exactly(path, 2, "missing column header line")):
            read_report(path, ("a",))

    def test_metadata_without_equals(self, tmp_path):
        path = str(tmp_path / "m.csv")
        (tmp_path / "m.csv").write_text("# justakey\na\n1\n")
        message = "metadata line lacks '=': '# justakey'"
        with pytest.raises(ParseError, match=exactly(path, 1, message)):
            read_report(path, ("a",))

    def test_report_validation(self):
        with pytest.raises(ValueError, match="ragged"):
            ColumnarReport(metadata={}, data={"a": [1], "b": []})
        with pytest.raises(ValueError, match="metadata"):
            ColumnarReport(metadata={"a=b": "c"}, data={"a": []})
        with pytest.raises(ValueError, match="columns"):
            ColumnarReport(metadata={}, data={})
        with pytest.raises(ValueError, match="non-empty names"):
            ColumnarReport(metadata={}, data={"": [1]})
        with pytest.raises(ValueError, match="non-empty names"):
            ColumnarReport(metadata={}, data={"a": [1], "": [2]})
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
        with pytest.raises(ValueError, match="may not contain"):
            ColumnarReport(metadata={}, data={"a": np.array(["ok", f"a{char}b"])})
        with pytest.raises(ValueError, match="may not contain"):
            labelled_report(["ok", f"a{char}b"])

    @pytest.mark.parametrize("space", [" ", "\t", "\x1f", "\xa0", "\u2009", "\u3000"])
    def test_outer_whitespace_rejected(self, space):
        # the reader strips metadata keys and values, column names and cells,
        # so none may start or end with whitespace
        assert f"{space}x{space}".strip() == "x"
        for meta in ({f"{space}k": "v"}, {f"k{space}": "v"}, {"k": f"{space}v"}, {"k": f"v{space}"}):
            with pytest.raises(ValueError, match="metadata entry .* whitespace"):
                ColumnarReport(metadata=meta, data={"a": [1]})
        for name in (f"{space}a", f"a{space}", space):
            with pytest.raises(ValueError, match="column name .* whitespace"):
                ColumnarReport(metadata={}, data={name: [1]})
        for cell in (f"{space}x", f"x{space}", space, f"{space}x{space}"):
            # beside "okay" a str array pads the cell; before a cell as wide,
            # it does not
            full = np.array([cell, "y" * len(cell)])
            for column in (np.array(["okay", cell]), full):
                with pytest.raises(ValueError, match=r"string cell .* whitespace"):
                    ColumnarReport(metadata={}, data={"a": column})
            with pytest.raises(ValueError, match=r"string cell .* whitespace"):
                labelled_report([cell])

    def test_inner_whitespace_round_trips(self, tmp_path):
        path = str(tmp_path / "w.csv")
        cells = ["a b", "", "x\u3000y", "c\td"]
        codes, names = labelled(cells)
        report = ColumnarReport(
            metadata={"k k": "v v", "e": ""},
            data={"a b": np.array(cells), "labels": codes},
            labels={"labels": names},
        )
        write_report(path, report)
        back = read_table(path)
        assert back.metadata == {"k k": "v v", "e": ""}
        assert back.columns == ("a b", "labels")
        assert [column.tolist() for column in back.data.values()] == [cells, cells]

    @pytest.mark.parametrize("cell", ["a\x00b", "\x00a", "a\x00"])
    def test_nul_in_string_cell_rejected(self, cell):
        # a str array drops a trailing NUL, so such a cell would not be
        # written as given
        with pytest.raises(ValueError, match="may not contain"):
            labelled_report(["ok", cell])
        if not cell.endswith("\x00"):
            with pytest.raises(ValueError, match="may not contain"):
                ColumnarReport(metadata={}, data={"a": np.array(["ok", cell])})

    def test_label_objects_written_as_strings(self, tmp_path):
        # a labelled column is written as the str array of its names
        names = ("mw_off", "mw_on")
        codes = np.array([0, 1, 1, 0], np.uint8)
        for name, column, labels in (
            ("l.csv", codes, {"channel": names}), ("u.csv", np.array(names)[codes], {})
        ):
            report = ColumnarReport(
                metadata={}, data={"t": np.arange(4.0), "channel": column}, labels=labels
            )
            write_report(str(tmp_path / name), report)
        assert (tmp_path / "l.csv").read_bytes() == (tmp_path / "u.csv").read_bytes()
        cells = ["mw_off", "mw_on", "mw_on", "mw_off"]
        assert read_table(tmp_path / "l.csv").data["channel"].tolist() == cells
        assert [row[1] for row in report.rows] == cells

    @pytest.mark.parametrize("cells", [["x", "", "y"], [""], ["", "a"]])
    def test_empty_cell_of_a_one_column_report_rejected(self, cells):
        # the cell would be written as a blank line, which a reader skips
        with pytest.raises(ValueError, match="'a' is alone, so an empty string cell"):
            ColumnarReport(metadata={}, data={"a": np.array(cells)})
        with pytest.raises(ValueError, match="'a' is alone, so an empty string cell"):
            labelled_report(cells)
        # beside another column the row is not blank
        ColumnarReport(metadata={}, data={"a": np.array(cells), "b": np.zeros(len(cells))})
        labelled_report(cells, b=np.zeros(len(cells)))

    @pytest.mark.parametrize(
        "codes, labels, message",
        [
            pytest.param(
                [0.0, 1.0], {"a": ("x", "y")},
                "labelled column 'a' holds float64, not integer codes", id="non-integer codes",
            ),
            pytest.param(
                [0, -1, 2], {"a": ("x", "y")},
                "labelled column 'a' holds code -1, outside [0, 2)", id="negative code",
            ),
            pytest.param(
                [0, 1], {"a": ("x", 1)}, "labels of column 'a' are not all strings",
                id="name not a string",
            ),
            pytest.param(
                [0, 1], {"a": ("ok", "x#y")},
                "string cell 'x#y' may not contain comma, '#', NUL or a line break",
                id="unsafe name",
            ),
            pytest.param(
                [0, 1], {"a": ("x", "y"), "b": ("z",)}, "labels name 'b', which is not a column",
                id="label without column",
            ),
        ],
    )
    def test_labels_checked(self, codes, labels, message):
        data = {"a": np.array(codes), "t": np.zeros(len(codes))}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ColumnarReport(metadata={}, data=data, labels=labels)

    @pytest.mark.parametrize(
        "last, match",
        [
            ("x#y", "'x#y' may not contain"),
            (" x", "' x' may not start or end"),
            ("", "is alone"),
            (2, "labelled column 'a' holds code 2, outside [0, 2)"),
        ],
    )
    def test_cells_checked_past_the_first_write_block(self, monkeypatch, last, match):
        # the distinct cells are gathered block by block; an unsafe cell
        # is named ahead of an earlier padded one. A labelled column's codes
        # are checked over the whole column, not block by block.
        monkeypatch.setattr(report_module, "WRITE_BLOCK_ROWS", 2)
        if isinstance(last, int):
            codes = np.array([0, 1, 0, 1, last], np.uint8)
            with pytest.raises(ValueError, match=re.escape(match)):
                ColumnarReport(metadata={}, data={"a": codes}, labels={"a": ("a", "b")})
            return
        cells = ["a", "b", "a", "b", last]
        if last == "x#y":
            cells.insert(1, " p")
        with pytest.raises(ValueError, match=re.escape(match)):
            ColumnarReport(metadata={}, data={"a": np.array(cells)})

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_report(path, ColumnarReport(metadata={}, data={"a": [1]}))
        write_report(path, ColumnarReport(metadata={}, data={"a": [2]}))
        assert open(path).read() == "a\n2\n"
        assert glob.glob(str(tmp_path / ".tmp-*~")) == []

    def test_failed_write_cleans_up(self, tmp_path, monkeypatch):
        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            write_report(str(tmp_path / "x.csv"), ColumnarReport(metadata={}, data={"a": [1]}))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("char", LINE_BREAKS)
    def test_reader_ends_a_line_at_each_line_break(self, tmp_path, char):
        # the readers split files as str.splitlines does, not only at "\n"
        path = tmp_path / "r.csv"
        path.write_text(f"a,b\n1{char},2\n", "utf-8")
        ragged = "ragged row: 1 cells against 2 columns"
        with pytest.raises(ParseError, match=exactly(path, 2, ragged)):
            read_report(str(path), ("a", "b"))
        path.write_text(f"a,b\n1,2{char}3,4\n", "utf-8")
        assert read_report(str(path), ("a", "b")).rows == ((1.0, 2.0), (3.0, 4.0))
        meta = "# bin_width_ns=25\n# rep_rate_hz=2e7\n# integration_s=1\n# channel=mw_off\n"
        path.write_text(f"{meta}0{char},5\n", "utf-8")
        with pytest.raises(ParseError, match=exactly(path, 5, ragged)):
            read_histogram(str(path))
        path.write_text(f"{meta}0,5{char}25,6\n", "utf-8")
        assert read_histogram(str(path)).counts.tolist() == [5, 6]


class TestBlocks:
    """Files written in blocks of rows equal those written in one block."""

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
        names = tuple(dict.fromkeys(self.LABELS))  # all four, whatever n
        return ColumnarReport(
            metadata={"n": str(n)},
            data={
                "i": np.array(self.INTS[:n], np.int64),
                "u": np.array(self.UINTS[:n], np.uint64),
                "s": np.array(self.STRINGS[:n], str),
                "l": np.array([names.index(cell) for cell in self.LABELS[:n]], np.uint8),
                "x": np.array(self.FLOATS[:n], np.float64),
            },
            labels={"l": names},
        )

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 10])
    def test_write_blocks_same_bytes(self, tmp_path, monkeypatch, n):
        bins = max(n, 1)  # a histogram has at least one bin
        hist = TcspcHistogram(
            bin_width=50.0 / bins, counts=np.arange(bins) * 0.1, channel="mw_on",
            channel_time=1.0, rep_rate=20e6,
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
# Every text a string cell may hold: no surrogate (not UTF-8), comma, '#',
# NUL or line break, and no whitespace at either end.
CELL_TEXT = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters=",#\x00" + LINE_BREAKS),
    max_size=5,
).map(str.strip)


@st.composite
def writer_column(draw, n):
    """n cells of one of the column types a report holds, and the names of
    a labelled column's codes (None for any other column)."""
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
        names = tuple(draw(st.lists(CELL_TEXT, min_size=1, max_size=3)))
        codes = draw(st.lists(st.integers(0, len(names) - 1), min_size=n, max_size=n))
        return np.array(codes, draw(st.sampled_from(["u1", "i8", "u8"]))), names
    cells = draw(st.lists(values[kind], min_size=n, max_size=n))
    return np.array(cells, dtype=str if kind == "U" else kind), None


class TestCellFormatter:
    """The block formatter writes the bytes the "%" formatter wrote."""

    @given(data=st.data(), n=st.integers(0, 12), k=st.integers(1, 4))
    @settings(max_examples=400, deadline=None)
    def test_report_bytes_as_percent_formatter(self, tmp_path_factory, data, n, k):
        drawn = [data.draw(writer_column(n)) for _ in range(k)]
        # the cells a labelled column stands for
        columns = [c if names is None else np.array(names, str)[c] for c, names in drawn]
        # a one-column report holds no empty string cell (or name), which
        # would be a blank line
        assume(k > 1 or "" not in (drawn[0][1] or columns[0].tolist()))
        report = ColumnarReport(
            metadata={"k": k, "x": data.draw(st.floats())},
            data={f"c{j}": column for j, (column, _) in enumerate(drawn)},
            labels={f"c{j}": names for j, (_, names) in enumerate(drawn) if names is not None},
        )
        path = tmp_path_factory.mktemp("fmt") / "r.csv"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(report_module, "WRITE_BLOCK_ROWS", data.draw(st.sampled_from([1, 5, 64])))
            write_report(str(path), report)
        header = [f"# {key}={value}" for key, value in report.metadata.items()]
        assert path.read_bytes() == percent_text([*header, ",".join(report.columns)], columns)

    @given(
        names=st.lists(
            st.one_of(st.just(""), st.sampled_from(["mw_off", "\u00fc", "\u65e5\u672c"]), CELL_TEXT),
            min_size=1, max_size=4,
        ),
        data=st.data(),
        rows=st.sampled_from([1, 2, 3, 7]),
    )
    @settings(max_examples=200, deadline=None)
    def test_labelled_column_as_percent_formatter(self, tmp_path_factory, names, data, rows):
        # codes over several write blocks, the last one partial: each block
        # takes its cells from the names formatted once
        n = data.draw(st.integers(0, 4 * rows + 1))
        codes = np.array(
            data.draw(st.lists(st.integers(0, len(names) - 1), min_size=n, max_size=n)), np.uint8
        )
        stamps = np.arange(n) * 0.1
        report = ColumnarReport(
            metadata={"rows": rows}, data={"t": stamps, "channel": codes},
            labels={"channel": names},
        )
        path = tmp_path_factory.mktemp("lab") / "r.csv"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(report_module, "WRITE_BLOCK_ROWS", rows)
            write_report(str(path), report)
        cells = np.array(names, str)[codes]
        assert path.read_bytes() == percent_text([f"# rows={rows}", "t,channel"], [stamps, cells])
        assert [row[1] for row in report.rows] == cells.tolist()

    @given(data=st.data(), n=st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_histogram_bytes_as_percent_formatter(self, tmp_path_factory, data, n):
        counts = data.draw(
            st.one_of(
                # finite: a histogram holds no infinite count
                st.lists(st.one_of(st.floats(min_value=0.0, allow_infinity=False), st.just(-0.0)),
                         min_size=n, max_size=n).map(np.array),
                st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n).map(np.array),
            )
        )
        rep_rate = data.draw(st.floats(1e3, 1e9))
        hist = TcspcHistogram(
            bin_width=1e9 / rep_rate / n, counts=counts,
            channel=data.draw(st.sampled_from(["mw_off", "mw_on"])),
            channel_time=data.draw(st.floats(0.0, 1e6)), rep_rate=rep_rate,
        )
        path = tmp_path_factory.mktemp("fmt") / "h.csv"
        write_histogram(str(path), hist)
        values = (hist.bin_width, hist.rep_rate, hist.channel_time, hist.channel)
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


# Cells for the reader's float oracle: numbers float() takes, some of which
# the C parser refuses, and cells that are not numbers.
FLOAT_CELL = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.floats().map(repr),
    st.sampled_from(["-0", "1_000", "\u0663", " 7 ", "+.5", "1e3", "nan", "-inf", "Infinity"]),
)
OTHER_CELL = st.one_of(
    st.sampled_from(["x", "", "+-1", "1__0", "0x10", "1,5"]),
    st.text(alphabet="0123456789+-._eEinfaxy \u0663", max_size=6),
)


# Counts for the histogram reader's oracle: non-negative numbers float()
# takes, some of which the C parser refuses, some too large for int64.
COUNT_CELL = st.one_of(
    st.integers(0, 2**70).map(str),
    st.floats(min_value=0.0, allow_infinity=False).map(repr),
    st.sampled_from(["-0", "1_000", "\u0663", " 7 ", "+.5", "1e3", "1e300"]),
)


def float_oracle(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


class TestFloatOracle:
    @given(data=st.data(), k=st.integers(1, 4), n=st.integers(0, 8))
    @settings(max_examples=300, deadline=None)
    def test_read_report_reads_as_float_oracle(self, tmp_path_factory, data, k, n):
        # every cell float() takes reads as float() reads it; otherwise the
        # error names the first ragged row or non-numeric cell, row by row
        rows = data.draw(st.lists(st.lists(FLOAT_CELL, min_size=k, max_size=k), min_size=n,
                                  max_size=n))
        for i in data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=2 if n else 0)):
            rows[i][data.draw(st.integers(0, k - 1))] = data.draw(OTHER_CELL)
        names = tuple(f"c{j}" for j in range(k))
        path = tmp_path_factory.mktemp("oracle") / "cells.csv"
        lines = [",".join(row) for row in rows]
        path.write_text("\n".join([",".join(names), *lines]) + "\n", "utf-8")
        bad = None
        for i, row in enumerate(line.strip().split(",") for line in lines):
            if row == [""]:  # a blank line, which the reader skips
                continue
            if len(row) != k:
                bad = f"ragged row: {len(row)} cells against {k} columns"
            else:
                j = next((j for j, cell in enumerate(row) if float_oracle(cell) is None), None)
                if j is not None:
                    bad = f"column c{j}: {row[j].strip()!r} is not a number"
            if bad:
                break
        if bad:
            with pytest.raises(ParseError, match=exactly(path, i + 2, bad)):
                read_report(str(path), names)
            return
        got = read_report(str(path), names)
        kept = [line.strip().split(",") for line in lines if line.strip()]
        for j, column in enumerate(got.data.values()):
            want = np.array([float(row[j]) for row in kept], dtype=float)
            assert column.dtype == np.float64
            assert column.tobytes() == want.tobytes()

    # a histogram row's faults, each drawn into one row at a time
    HISTOGRAM_FAULTS = ("non-numeric", "ragged", "negative", "off-grid")

    @given(data=st.data(), n=st.integers(1, 8), width=st.sampled_from([0.1, 0.25, 1.0, 12.5]))
    @settings(max_examples=300, deadline=None)
    def test_read_histogram_reads_as_float_oracle(self, tmp_path_factory, data, n, width):
        # every count float() takes reads as float() reads it; otherwise the
        # error names the path and the first offending file line, whatever
        # its fault, with the message for that fault
        counts = data.draw(st.lists(COUNT_CELL, min_size=n, max_size=n))
        rows = [[repr(d * width), count] for d, count in enumerate(counts)]
        for i in data.draw(st.lists(st.integers(0, n - 1), max_size=2)):
            fault = data.draw(st.sampled_from(self.HISTOGRAM_FAULTS))
            if fault == "non-numeric":
                # not blank, which would leave a one-cell row blank, and skipped
                refused = OTHER_CELL.filter(lambda c: c.strip() and float_oracle(c) is None)
                cell = data.draw(refused)
                rows[i][data.draw(st.integers(0, len(rows[i]) - 1))] = cell
            elif fault == "ragged":
                rows[i] = rows[i][:1] if data.draw(st.booleans()) else rows[i] + ["1"]
            elif fault == "negative":
                rows[i][-1] = data.draw(st.sampled_from(["-1", "-0.5", "-7e3", "-1_0"]))
            else:
                rows[i][0] = repr((i + 0.5) * width)
        lines = [",".join(row) for row in rows]
        for at in data.draw(st.lists(st.integers(0, n), max_size=2)):
            lines.insert(at, data.draw(st.sampled_from(["", "  "])))
        meta = [f"# bin_width_ns={width!r}", f"# rep_rate_hz={1e9 / (n * width)!r}",
                "# integration_s=1", "# channel=mw_off"]
        path = tmp_path_factory.mktemp("oracle") / "hist.csv"
        path.write_text("\n".join(meta + lines) + "\n", "utf-8")
        bad, previous, kept = None, None, []
        for number, line in enumerate(lines, len(meta) + 1):
            if not line.strip():
                continue
            cells = line.strip().split(",")
            values = [float_oracle(cell) for cell in cells]
            expected = len(kept) * width
            if len(cells) != 2:
                bad = f"ragged row: {len(cells)} cells against 2 columns"
            elif None in values:
                j = values.index(None)
                name = ("bin_start_ns", "counts")[j]
                bad = f"column {name}: {cells[j].strip()!r} is not a number"
            elif previous is not None and values[0] <= previous:
                bad = f"non-monotone bin start {values[0]}"
            elif abs(values[0] - expected) > 1e-9 * max(abs(expected), width):
                bad = f"bin start {values[0]} does not sit on the {width} ns grid"
            elif values[1] < 0:
                bad = f"negative counts {cells[1]}"
            if bad:
                break
            previous = values[0]
            kept.append(values[1])
        if bad:
            with pytest.raises(ParseError, match=exactly(path, number, bad)):
                read_histogram(str(path))
            return
        got = read_histogram(str(path)).counts
        integral = all(c.is_integer() and c < 2.0**63 for c in kept)
        assert got.dtype == (np.int64 if integral else np.float64)
        assert np.array_equal(got, kept)


class TestCParserBoundary:
    """Cells deep in a file that numpy's C text parser reads in one call, or
    refuses to the per-line pass."""

    N = 5000
    AT = 4500  # a data row far into the file

    def write(self, path, ints, floats, extra=()):
        lines = ["# k=v", "i,x", *map(",".join, zip(ints, floats))]
        for at, line in extra:
            lines.insert(at, line)
        path.write_text("\n".join(lines) + "\n", "utf-8")

    def columns(self):
        return [str(k) for k in range(self.N)], [repr(k / 3) for k in range(self.N)]

    @pytest.mark.parametrize("cell", ["-0", "1_000", "\u0663", "1.5", " 7 "])
    def test_int_column_cell_read_as_per_cell_oracle(self, tmp_path, cell):
        # a column of integer literals reads as float64, each cell as float()
        # reads it: the C parser reads "-0" as -0.0 and refuses "1_000" and
        # "\u0663" to the per-line pass
        ints, floats = self.columns()
        ints[self.AT] = cell
        path = tmp_path / "c.csv"
        self.write(path, ints, floats)
        got = read_report(str(path), ("i", "x"))
        for cells, column in zip((ints, floats), got.data.values()):
            want = np.array([float(c) for c in cells])
            assert column.dtype == want.dtype
            assert column.tobytes() == want.tobytes()

    @pytest.mark.parametrize("blank", ["", "   "])
    def test_blank_line_skipped(self, tmp_path, blank):
        ints, floats = self.columns()
        path = tmp_path / "b.csv"
        self.write(path, ints, floats, [(2 + self.AT, blank)])
        got = read_report(str(path), ("i", "x"))
        assert got.data["i"].tobytes() == oracle_column(ints).astype(float).tobytes()
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
        message = "ragged row: 1 cells against 2 columns"
        with pytest.raises(ParseError, match=exactly(path, line, message)):
            read_report(str(path), ("i", "x"))


    HIST_META = "# bin_width_ns=25\n# rep_rate_hz=2e7\n# integration_s=1\n# channel=mw_off\n"

    @pytest.mark.parametrize("char", ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_other_line_breaks_split_as_str_splitlines(self, tmp_path, char):
        # numpy is given the path of an ASCII file with "\n" its only line
        # break; any other break, in a metadata line or a data row, splits
        # the file as str.splitlines does
        path = tmp_path / "r.csv"
        path.write_bytes(f"# k=v{char}a,b{char}1,2{char}3,4\n".encode())
        got = read_report(str(path), ("a", "b"))
        assert (got.metadata, got.rows) == ({"k": "v"}, ((1.0, 2.0), (3.0, 4.0)))
        path.write_bytes(f"# k=v{char}w=x\na,b\n1,2\n".encode())
        with pytest.raises(ParseError, match=exactly(path, 2, "expected columns a,b")):
            read_report(str(path), ("a", "b"))
        meta = self.HIST_META.replace("\n", char, 1)
        path.write_bytes(f"{meta}0,5{char}25,6\n".encode())
        assert read_histogram(str(path)).counts.tolist() == [5, 6]
        path.write_bytes(f"{meta}0,5{char}25,-6\n".encode())
        with pytest.raises(ParseError, match=exactly(path, 6, "negative counts -6")):
            read_histogram(str(path))

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_read_as_text(self, tmp_path, suffix):
        # numpy decompresses a file whose path it is given by such a name
        path = tmp_path / f"r.csv{suffix}"
        path.write_text("# k=v\na,b\n1,2\n")
        assert read_report(str(path), ("a", "b")).rows == ((1.0, 2.0),)

    def test_non_ascii_file_split_whole(self, tmp_path):
        # a non-ASCII metadata value, a non-ASCII digit, and a cell that
        # float() refuses for its non-ASCII letter
        path = tmp_path / "u.csv"
        path.write_text("# k=\u00e9\na,b\n1,2\n3,\u0664\n", "utf-8")
        got = read_report(str(path), ("a", "b"))
        assert (got.metadata, got.rows) == ({"k": "\u00e9"}, ((1.0, 2.0), (3.0, 4.0)))
        path.write_text("# k=v\na,b\n1,2\n3,4\u00e9\n", "utf-8")
        message = "column b: '4\u00e9' is not a number"
        with pytest.raises(ParseError, match=exactly(path, 4, message)):
            read_report(str(path), ("a", "b"))
        path.write_text(f"# note=\u00e9\n{self.HIST_META}0,5\n25,\u0666\n", "utf-8")
        assert read_histogram(str(path)).counts.tolist() == [5, 6]
        path.write_text(f"{self.HIST_META}0,5\n25,6\u00e9\n", "utf-8")
        message = "column counts: '6\u00e9' is not a number"
        with pytest.raises(ParseError, match=exactly(path, 6, message)):
            read_histogram(str(path))


class TestHistogramFiles:
    def make_hist(self, counts):
        return TcspcHistogram(
            bin_width=0.1,
            counts=np.asarray(counts),
            channel="mw_off",
            channel_time=1.0,
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
        assert back.channel_time == hist.channel_time
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
        negative = exactly(tmp_path / "neg.csv", 6, "negative counts -1")
        with pytest.raises(ParseError, match=negative):
            read_histogram(str(tmp_path / "neg.csv"))

    @pytest.mark.parametrize("bad_row", ["1,nan", "1,inf", "nan,5"])
    def test_non_finite_cell_names_line(self, tmp_path, bad_row):
        text = (
            "# bin_width_ns=1\n# rep_rate_hz=2e7\n# integration_s=1\n# channel=mw_off\n"
            f"0,5\n{bad_row}\n2,x\n"
        )
        (tmp_path / "nf.csv").write_text(text)
        message = f"non-finite cell in '{bad_row}'"
        with pytest.raises(ParseError, match=exactly(tmp_path / "nf.csv", 6, message)):
            read_histogram(str(tmp_path / "nf.csv"))

    def test_nan_count_rejected_by_histogram(self):
        with pytest.raises(ValueError, match="non-negative"):
            TcspcHistogram(
                bin_width=1.0,
                counts=np.r_[np.zeros(49), np.nan],
                channel="mw_off",
                channel_time=1.0,
                rep_rate=20e6,
            )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("channel_time", math.inf, "channel_time must be finite, got inf"),
            ("counts", np.r_[np.zeros(49), np.inf], "counts must be finite"),
        ],
    )
    def test_infinite_values_rejected_by_histogram(self, field, value, message):
        fields = dict(
            bin_width=1.0, counts=np.zeros(50), channel="mw_off", channel_time=1.0,
            rep_rate=20e6,
        )
        with pytest.raises(ValueError, match=message):
            TcspcHistogram(**{**fields, field: value})

    def test_infinite_integration_rejected_on_read(self, tmp_path):
        # the writer cannot write it, so the reader does not take it either
        text = "# bin_width_ns=25\n# rep_rate_hz=2e7\n# integration_s=inf\n# channel=mw_off\n"
        (tmp_path / "inf.csv").write_text(text + "0,5\n25,6\n")
        message = "channel_time must be finite, got inf"
        with pytest.raises(ParseError, match=exactly(tmp_path / "inf.csv", None, message)):
            read_histogram(str(tmp_path / "inf.csv"))

    def test_first_of_two_bad_lines_named(self, tmp_path):
        text = (
            "# bin_width_ns=1\n# rep_rate_hz=2e7\n# integration_s=1\n# channel=mw_off\n"
            "0,5\n1,-1\n2,x\n"
        )
        (tmp_path / "two.csv").write_text(text)
        negative = exactly(tmp_path / "two.csv", 6, "negative counts -1")
        with pytest.raises(ParseError, match=negative):
            read_histogram(str(tmp_path / "two.csv"))

    @pytest.mark.parametrize(
        "bad_row, match",
        [
            ("3,x", "line 9: column counts: 'x' is not a number"),
            ("3,-2", "line 9: negative counts -2"),
            ("3", "line 9: ragged row: 1 cells against 2 columns"),
        ],
    )
    def test_bad_row_in_a_later_block_names_its_line(self, tmp_path, bad_row, match):
        # the bad row follows good rows and a blank line, and a second bad
        # row follows it
        text = (
            "# bin_width_ns=1\n# rep_rate_hz=2e7\n# integration_s=1\n# channel=mw_off\n"
            f"0,5\n1,6\n\n2,7\n{bad_row}\n4,8\n5,x\n"
        )
        (tmp_path / "lb.csv").write_text(text)
        with pytest.raises(ParseError, match=exactly(tmp_path / "lb.csv", None, match)):
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
        message = "missing metadata key rep_rate_hz"
        with pytest.raises(ParseError, match=exactly(tmp_path / "m.csv", 2, message)):
            read_histogram(str(tmp_path / "m.csv"))

    def test_non_numeric_metadata_names_its_line(self, tmp_path):
        text = "# bin_width_ns=1\n# rep_rate_hz=2e7\n# integration_s=abc\n# channel=mw_off\n0,5\n"
        (tmp_path / "nn.csv").write_text(text)
        message = "metadata integration_s='abc' is not a number"
        with pytest.raises(ParseError, match=exactly(tmp_path / "nn.csv", 3, message)):
            read_histogram(str(tmp_path / "nn.csv"))

    def test_non_monotone_bins(self, tmp_path):
        text = (
            "# bin_width_ns=1\n# rep_rate_hz=2e7\n# integration_s=1\n# channel=mw_off\n"
            "0,5\n0,6\n"
        )
        (tmp_path / "nm.csv").write_text(text)
        message = "non-monotone bin start 0.0"
        with pytest.raises(ParseError, match=exactly(tmp_path / "nm.csv", 6, message)):
            read_histogram(str(tmp_path / "nm.csv"))

    def test_off_grid_bin_start(self, tmp_path):
        text = (
            "# bin_width_ns=1\n# rep_rate_hz=2e7\n# integration_s=1\n# channel=mw_off\n"
            "0,5\n1.5,6\n"
        )
        (tmp_path / "og.csv").write_text(text)
        message = "bin start 1.5 does not sit on the 1.0 ns grid"
        with pytest.raises(ParseError, match=exactly(tmp_path / "og.csv", 6, message)):
            read_histogram(str(tmp_path / "og.csv"))

    def test_no_data_rows(self, tmp_path):
        text = "# bin_width_ns=1\n# rep_rate_hz=2e7\n# integration_s=1\n# channel=mw_off\n"
        (tmp_path / "nd.csv").write_text(text)
        with pytest.raises(ParseError, match=exactly(tmp_path / "nd.csv", 5, "no data rows")):
            read_histogram(str(tmp_path / "nd.csv"))

    def test_bad_channel_wrapped(self, tmp_path):
        text = "# bin_width_ns=1\n# rep_rate_hz=2e7\n# integration_s=1\n# channel=odd\n0,5\n"
        (tmp_path / "bc.csv").write_text(text)
        message = "unknown channel 'odd', expected one of ('mw_off', 'mw_on')"
        with pytest.raises(ParseError, match=exactly(tmp_path / "bc.csv", None, message)):
            read_histogram(str(tmp_path / "bc.csv"))

    def test_missing_channel_names_the_first_row(self, tmp_path):
        text = "# bin_width_ns=1\n# rep_rate_hz=2e7\n# integration_s=1\n0,5\n"
        (tmp_path / "mc.csv").write_text(text)
        message = "missing metadata key channel"
        with pytest.raises(ParseError, match=exactly(tmp_path / "mc.csv", 4, message)):
            read_histogram(str(tmp_path / "mc.csv"))

    def test_huge_integral_count_stays_a_float(self, tmp_path):
        # 1e300 is integral, but no int64 holds it; the cast once gave a
        # negative count and "counts must be non-negative"
        text = "# bin_width_ns=25\n# rep_rate_hz=2e7\n# integration_s=1\n# channel=mw_off\n"
        (tmp_path / "big.csv").write_text(text + "0,5\n25,1e300\n")
        back = read_histogram(str(tmp_path / "big.csv"))
        assert back.counts.dtype == np.float64
        assert back.counts.tolist() == [5.0, 1e300]

    @pytest.mark.parametrize("read", [read_histogram, lambda path: read_report(path, ("a",))])
    def test_undecodable_file_named(self, tmp_path, read):
        path = tmp_path / "bin.csv"
        path.write_bytes(b"# k=v\n\xff\n")
        message = "'utf-8' codec can't decode byte 0xff in position 6: invalid start byte"
        with pytest.raises(ParseError, match=exactly(path, None, message)):
            read(str(path))


@pytest.mark.parametrize("cls, other", [(ConfigError, ParseError), (ParseError, ConfigError)])
def test_rejected_input_names_its_line(cls, other):
    assert issubclass(cls, SpingateError) and issubclass(cls, ValueError)
    assert not issubclass(cls, other)
    err = cls("bad value", line=4)
    assert (str(err), err.line) == ("line 4: bad value", 4)
    err = cls("bad value")
    assert (str(err), err.line) == ("bad value", None)


class TestGatedTotal:
    HIST = TcspcHistogram(
        bin_width=1.0, counts=np.arange(50.0), channel="mw_off", channel_time=1.0, rep_rate=20e6
    )

    def test_aligned_windows(self):
        assert self.HIST.gated_total(0.0) == 1225.0
        assert self.HIST.gated_total(40.0) == 445.0
        assert self.HIST.gated_total(0.0, 40.0) == 780.0
        assert self.HIST.gated_total(20.0, 30.0) == 245.0

    @pytest.mark.parametrize(
        "t_start, t_end",
        # a negative edge would count from the end of the period, as a Python
        # index does, and an inverted window would count nothing
        [(-10.0, np.inf), (0.0, -10.0), (30.0, 20.0), (20.0, 20.0), (np.nan, 30.0)],
    )
    def test_window_outside_the_period_or_inverted_rejected(self, t_start, t_end):
        with pytest.raises(GateError, match=r"gate window requires 0 <= t_start < t_end"):
            self.HIST.gated_total(t_start, t_end)


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
        assert cfg.sweep.c_sat == 0.15

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

    def test_io_section_rejected_with_its_line(self, tmp_path, capsys):
        # the seed and the output path come only from --seed and --out
        text = "[model]\nspin0 = 1, 12\nspin1 = 1, 8\n[train]\nrep_rate = 2e7\n[io]\nseed = 7\n"
        line = "line 6: unknown section [io], expected one of ['model', 'sweep', 'train']"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert (str(err.value), err.value.line) == (line, 6)
        path, out = tmp_path / "io.ini", tmp_path / "o.csv"
        path.write_text(text)
        assert main(["gate-sweep", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not out.exists()

    @pytest.mark.parametrize("duty", ["0.6", "1.0"])
    def test_duty_above_half_rejected_with_its_line(self, duty, tmp_path, capsys):
        # the two channels alternate, so neither can count for more than half
        # of the acquisition; 0.6 once gave each channel 0.6 of it
        text = (
            "[model]\nspin0 = 1, 12\nspin1 = 1, 8\n[train]\nrep_rate = 2e7\n"
            f"[sweep]\nintegration_time = 10\nmw_duty = {duty}\n"
        )
        line = (
            f"line 8: [sweep] invalid: mw_duty must be in (0, 0.5], got {duty}: the MW-off and "
            "MW-on channels alternate, so each counts at most half of integration_time"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert (str(err.value), err.value.line) == (line, 8)
        path, out = tmp_path / "duty.ini", tmp_path / "o.csv"
        path.write_text(text)
        assert main(["gate-sweep", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not out.exists()

    def test_record_invariant_names_the_line_that_set_it(self):
        # tau_c_step sets SweepConfig.tau_c_resolution, c_sat in [model] sets
        # SweepConfig.c_sat; a rejected value points at its own key's line
        # and section (c_sat's once read "[sweep] invalid", with no line)
        head = "[model]\nspin0 = 1, 12\nspin1 = 1, 8\n"
        for text, message in (
            (head + "c_sat = 1.5\n[train]\nrep_rate = 2e7\n",
             "line 4: [model] invalid: c_sat must be in [0, 1)"),
            (head + "[train]\nrep_rate = 2e7\n[sweep]\ntau_c_step = 0\n",
             "line 7: [sweep] invalid: tau_c_resolution must be > 0"),
            (head + "dark_rate = -1\n[train]\nrep_rate = 2e7\n",
             "line 4: [model] invalid: dark_rate must be >= 0"),
        ):
            with pytest.raises(ConfigError) as err:
                parse_config(text)
            assert str(err.value) == message

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

    def test_background_ratio_reads_rep_rate(self):
        # the ratio's background amplitude needs the period before [train]
        # is built, with the same messages
        model = (
            "[model]\nspin0 = 1, 12\nspin1 = 1, 8\n"
            "background_ratio = 3\nbackground_lifetime = 1.7\n"
        )
        with pytest.raises(ConfigError, match=r"missing required key 'rep_rate' in \[train\]"):
            parse_config(model)
        with pytest.raises(ConfigError, match="line 7: bad value for 'rep_rate'") as err:
            parse_config(model + "[train]\nrep_rate = fast\n")
        assert err.value.line == 7

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

    def test_absent_keys_take_the_record_defaults(self):
        cfg = parse_config("[model]\nspin0 = 1, 12\nspin1 = 1, 8\n[train]\nrep_rate = 2e7\n")
        assert cfg.sweep == SweepConfig()
        assert cfg.model == FluorescenceModel(spin0=cfg.model.spin0, spin1=cfg.model.spin1)

    @pytest.mark.parametrize(
        "line, where, cell",
        [
            ("[sweep]\nintegration_time = inf", "bad value for 'integration_time'", "inf"),
            ("[sweep]\ntau_c_step = inf", "bad value for 'tau_c_step'", "inf"),
            ("[sweep]\nlinewidth = -inf", "bad value for 'linewidth'", "-inf"),
            ("[sweep]\nrate_grid = nan, 2e7", "bad value for 'rate_grid'", "nan"),
            ("[sweep]\nperiod_grid = 20:inf:4", "bad value for 'period_grid'", "inf"),
            ("[model]\nbackground = inf, 1.7", "bad component numbers", "inf"),
            ("[model]\nbackground = 1, nan", "bad component numbers", "nan"),
        ],
    )
    def test_non_finite_number_rejected_with_its_line(self, line, where, cell):
        text = "[model]\nspin0 = 1, 12\nspin1 = 1, 8\n[train]\nrep_rate = 2e7\n" + line + "\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == f"line 7: {where}: not a finite number: '{cell}'"

    @pytest.mark.parametrize("grid", ["1e7,,2e7", "1e7, 2e7,", ", 1e7", ","])
    def test_empty_rate_grid_entry_rejected_with_its_line(self, grid):
        # empty entries were once skipped, so a typo dropped a rate silently
        text = "[model]\nspin0 = 1, 12\nspin1 = 1, 8\n[train]\nrep_rate = 2e7\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text + f"[sweep]\nrate_grid = {grid}\n")
        assert str(err.value) == f"line 7: bad value for 'rate_grid': empty entry in '{grid}'"

    def test_first_fault_in_the_file_is_named(self):
        # [model] values were once read before [train]'s
        text = "[train]\nrep_rate = fast\n[model]\nspin0 = 1, 12\nspin1 = 1, 8\ndark_rate = x\n"
        with pytest.raises(ConfigError, match="^line 2: bad value for 'rep_rate'"):
            parse_config(text)

    def test_readme_config_parses(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "README.md"), encoding="utf-8") as handle:
            text = handle.read()
        block = re.search(r"^```ini\n(.*?)^```$", text, re.S | re.M).group(1)
        cfg = parse_config(block)
        assert [c.label for c in cfg.model.spin0 + cfg.model.spin1] == ["ms0", "ms1"]
        assert cfg.model.background[0].amplitude == 20.8
        assert cfg.sweep.tau_c_resolution == 0.1
