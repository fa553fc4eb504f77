"""File formats: columnar reports, histogram files, INI run configs."""

import glob
import math
import os
import re
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spingate.config import load_config, parse_config
from spingate.errors import ConfigError, ParseError
from spingate.histogram import TcspcHistogram
from spingate import report as report_module
from spingate.report import (
    ColumnarReport,
    atomic_write_text,
    read_histogram,
    read_report,
    write_histogram,
    write_report,
)

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

    FLOATS = [-0.0, math.nan, math.inf, 5e-324]

    def report(self, n):
        return ColumnarReport(
            metadata={"n": str(n)},
            data={
                "i": np.arange(n) - 2,
                "s": [f"row{k}" for k in range(n)],
                "x": self.FLOATS[:n],
            },
        )

    @pytest.mark.parametrize("n", [0, 1, 3, 4])
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

        one, blocked = written(1000), written(3)
        assert one == blocked
        lines = one[0].decode().splitlines()
        assert len(lines) == 2 + n
        if n == 4:
            assert lines[2:] == [
                "-2,row0,-0", "-1,row1,nan", "0,row2,inf", "1,row3,4.9406564584124654e-324"
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

    def test_missing_metadata_key(self, tmp_path):
        (tmp_path / "m.csv").write_text("# bin_width_ns=1\n0,5\n")
        with pytest.raises(ParseError, match="rep_rate_hz"):
            read_histogram(str(tmp_path / "m.csv"))

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
