"""File formats: columnar reports, histogram files, INI run configs."""

import glob
import math
import os
import textwrap

import numpy as np
import pytest

from spingate.config import load_config, parse_config
from spingate.errors import ConfigError, ParseError
from spingate.histogram import TcspcHistogram
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

    def test_cell_restrictions(self, tmp_path):
        path = str(tmp_path / "x.csv")
        with pytest.raises(ValueError, match="boolean"):
            write_report(path, ColumnarReport(metadata={}, data={"a": [True]}))
        with pytest.raises(ValueError, match="comma"):
            write_report(path, ColumnarReport(metadata={}, data={"a": ["x,y"]}))

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

    def test_first_of_two_bad_lines_named(self, tmp_path):
        text = (
            "# bin_width_ns=1\n# rep_rate_hz=2e7\n# integration_s=1\n# channel=mw_off\n"
            "0,5\n1,-1\n2,x\n"
        )
        (tmp_path / "two.csv").write_text(text)
        with pytest.raises(ParseError, match=r"line 6: negative counts -1"):
            read_histogram(str(tmp_path / "two.csv"))

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
