"""End-to-end command-line runs through main(argv)."""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import spingate
from spingate import odmr
from spingate.cli import main
from spingate.decay import GateWindow, PulseTrain, gated_counts
from spingate.presets import bulk_model
from spingate.report import read_histogram, read_report

CONFIG = textwrap.dedent(
    """\
    [model]
    spin0 = 1.0, 12.0
    spin1 = 1.0, 8.0
    background_ratio = 3
    background_ratio_mode = integrated
    background_lifetime = 1.7
    c_sat = 0.15

    [train]
    rep_rate = 20e6

    [sweep]
    integration_time = 0.2
    mw_duty = 0.5
    tau_c_step = 0.1
    linewidth = 1e7
    """
)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.ini"
    path.write_text(CONFIG)
    return str(path)


def run_cli(*argv) -> int:
    return main(list(argv))


def write_scan(path, nx=5, ny=4):
    rng = np.random.default_rng(2)
    header = ["# nx=%d" % nx, "# ny=%d" % ny, "# pitch_um=0.5", "# dwell_s=0.01"]
    header.append("ix,iy,mw_off_gated,mw_on_gated,mw_off_ungated,mw_on_ungated")
    rows = []
    for iy in range(ny):
        for ix in range(nx):
            off = rng.poisson(400)
            on = rng.poisson(320)
            rows.append(f"{ix},{iy},{off},{on},{off * 3},{on * 3}")
    path.write_text("\n".join(header + rows) + "\n")


class TestSimulate:
    def test_expected_histogram(self, config_path, tmp_path):
        out = str(tmp_path / "hist.csv")
        code = run_cli("simulate", "--config", config_path, "--out", out)
        assert code == 0
        hist = read_histogram(out)
        assert hist.n_bins == 500
        assert hist.channel == "mw_off"
        assert not np.issubdtype(hist.counts.dtype, np.integer)
        assert hist.integration_time == pytest.approx(0.1)

    def test_sampled_histogram_is_integral(self, config_path, tmp_path):
        out = str(tmp_path / "hist.csv")
        code = run_cli(
            "simulate", "--config", config_path, "--out", out, "--sample", "--seed", "3"
        )
        assert code == 0
        hist = read_histogram(out)
        assert np.issubdtype(hist.counts.dtype, np.integer)

    def test_sample_without_seed_fails(self, config_path, tmp_path, capsys):
        code = run_cli("simulate", "--config", config_path, "--out", str(tmp_path / "h"), "--sample")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_mw_on_channel(self, config_path, tmp_path):
        off = str(tmp_path / "off.csv")
        on = str(tmp_path / "on.csv")
        assert run_cli("simulate", "--config", config_path, "--out", off) == 0
        assert run_cli("simulate", "--config", config_path, "--out", on, "--channel", "mw_on") == 0
        total_off = read_histogram(off).counts.sum()
        total_on = read_histogram(on).counts.sum()
        assert total_on < total_off


class TestSweeps:
    def test_gate_sweep_reports_optimum(self, config_path, tmp_path):
        out = str(tmp_path / "sweep.csv")
        assert run_cli("gate-sweep", "--config", config_path, "--out", out) == 0
        text = open(out).read()
        assert "# optimal_tau_c_ns=" in text
        table = read_report(out)
        assert float(table.metadata["optimal_tau_c_ns"]) == pytest.approx(9.2, abs=1e-9)
        assert table.columns == ("tau_c_ns", "contrast", "shot_noise", "snr", "ef", "eta")
        assert table.metadata["c_sat"] == "0.14999999999999999"

    def test_rep_sweep_with_period_grid(self, config_path, tmp_path):
        cfg = open(config_path).read() + "period_grid = 40:60:10\n"
        path = tmp_path / "rep.ini"
        path.write_text(cfg)
        out = str(tmp_path / "rep.csv")
        assert run_cli("rep-sweep", "--config", str(path), "--out", out) == 0
        table = read_report(out)
        assert table.columns[:5] == (
            "rate_hz",
            "period_ns",
            "tau_c_opt_ns",
            "snr_ungated",
            "snr_gated",
        )
        assert len(table.rows) == 3
        assert table.metadata["mode"] == "constant-pulse-energy"

    def test_rep_sweep_without_grid_fails(self, config_path, tmp_path, capsys):
        code = run_cli("rep-sweep", "--config", config_path, "--out", str(tmp_path / "r"))
        assert code == 2
        assert "rate_grid" in capsys.readouterr().err

    def test_joint_opt_metadata(self, config_path, tmp_path):
        cfg = open(config_path).read() + "period_grid = 45:55:5\n"
        path = tmp_path / "joint.ini"
        path.write_text(cfg)
        out = str(tmp_path / "joint.csv")
        assert run_cli("joint-opt", "--config", str(path), "--out", out) == 0
        meta = read_report(out).metadata
        assert "optimal_tau_c_ns" in meta
        assert "optimal_rate_hz" in meta
        period = float(meta["optimal_period_ns"])
        assert period == pytest.approx(1e9 / float(meta["optimal_rate_hz"]), rel=1e-12)


class TestMonteCarlo:
    def test_same_seed_same_bytes(self, config_path, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        argv = ["mc", "--config", config_path, "--tau-c", "9.0", "--trials", "50",
                "--seed", "11"]
        assert main(argv + ["--out", a]) == 0
        assert main(argv + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_different_seed_differs(self, config_path, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        argv = ["mc", "--config", config_path, "--tau-c", "9.0", "--trials", "50"]
        assert main(argv + ["--seed", "11", "--out", a]) == 0
        assert main(argv + ["--seed", "12", "--out", b]) == 0
        rows_a = read_report(a).rows
        rows_b = read_report(b).rows
        assert rows_a != rows_b

    def test_mean_tracks_analytic(self, config_path, tmp_path):
        out = str(tmp_path / "mc.csv")
        assert run_cli(
            "mc", "--config", config_path, "--tau-c", "9.0", "--trials", "100",
            "--seed", "4", "--out", out,
        ) == 0
        meta = read_report(out).metadata
        mean = float(meta["mean_snr"])
        analytic = float(meta["analytic_snr"])
        std = float(meta["std_snr"])
        assert abs(mean - analytic) < 5 * std / math.sqrt(100) + 0.05 * analytic

    def test_bounded_gate_analytic_tracks_mean(self, config_path, tmp_path):
        # analytic_snr is the SNR of the means the trials were drawn from,
        # so it follows --t-end as the samples do
        out = str(tmp_path / "mc.csv")
        assert run_cli(
            "mc", "--config", config_path, "--tau-c", "9", "--t-end", "20", "--trials", "2000",
            "--seed", "5", "--out", out,
        ) == 0
        meta = read_report(out).metadata
        mean = float(meta["mean_snr"])
        std = float(meta["std_snr"])
        analytic = float(meta["analytic_snr"])
        assert abs(mean - analytic) < 5 * std / math.sqrt(2000)
        gate = GateWindow(9.0, 20.0)
        n0, n1 = (2e7 * 0.1 * gated_counts(bulk_model(), s, gate).total for s in ("ms0", 0.15))
        assert analytic == pytest.approx((n0 - n1) / math.sqrt(n0 + n1), rel=1e-12)

    def test_onset_off_any_bin_grid(self, config_path, tmp_path):
        out = str(tmp_path / "mc.csv")
        assert run_cli(
            "mc", "--config", config_path, "--tau-c", "9.05", "--trials", "20",
            "--seed", "5", "--out", out,
        ) == 0
        assert read_report(out).metadata["tau_c_ns"] == "9.0500000000000007"

    def test_metadata_formats(self, config_path, tmp_path):
        # float metadata as "%.17g", ints in decimal
        out = tmp_path / "mc.csv"
        assert run_cli(
            "mc", "--config", config_path, "--tau-c", "0.1", "--trials", "7",
            "--seed", "11", "--out", str(out),
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[3:6] == ["# seed=11", "# trials=7", "# tau_c_ns=0.10000000000000001"]

    def test_requires_seed(self, config_path, tmp_path, capsys):
        code = run_cli("mc", "--config", config_path, "--tau-c", "9.2",
                       "--out", str(tmp_path / "m"))
        assert code == 2
        assert "seed" in capsys.readouterr().err


class TestOdmrChain:
    def test_synth_then_fit_recovers_mapped_depth(self, config_path, tmp_path):
        spect = str(tmp_path / "spect.csv")
        fit_out = str(tmp_path / "fit.csv")
        assert run_cli(
            "odmr-synth", "--config", config_path, "--out", spect,
            "--tau-c", "9.2", "--integration-per-point", "0.5",
        ) == 0
        meta = read_report(spect).metadata
        assert meta["gate_start_ns"] == "9.1999999999999993"
        assert run_cli("odmr-fit", "--input", spect, "--out", fit_out) == 0
        fit = read_report(fit_out)
        gate = GateWindow(9.2, 50.0)
        train = PulseTrain(20e6)
        n0 = gated_counts(bulk_model(), "ms0", gate).total
        n1 = gated_counts(bulk_model(), "ms1", gate).total
        want = 0.3 * (n0 - n1) / n0
        row = dict(zip(fit.columns, fit.rows[0]))
        assert row["depth1"] == pytest.approx(want, rel=1e-6)
        assert row["depth2"] == pytest.approx(want, rel=1e-6)
        assert row["center1_hz"] == pytest.approx(2.865e9, rel=1e-9)
        assert row["fwhm2_hz"] == pytest.approx(8e6, rel=1e-6)
        assert float(fit.metadata["residual_norm"]) < 1e-3 * row["baseline"]

    def test_ungated_synth_has_no_gate_metadata(self, config_path, tmp_path):
        spect = str(tmp_path / "u.csv")
        assert run_cli("odmr-synth", "--config", config_path, "--out", spect) == 0
        meta = read_report(spect).metadata
        assert meta["gate_start_ns"] == "none"
        assert meta["gate_end_ns"] == "none"

    def test_fit_degenerate_input_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "flat.csv"
        lines = ["freq_hz,counts"] + [f"{2.84e9 + i * 1e6},100" for i in range(30)]
        bad.write_text("\n".join(lines) + "\n")
        code = run_cli("odmr-fit", "--input", str(bad), "--out", str(tmp_path / "f"))
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_fit_non_convergence_prints_last_iterate(self, config_path, tmp_path, capsys,
                                                      monkeypatch):
        spect = str(tmp_path / "spect.csv")
        assert run_cli("odmr-synth", "--config", config_path, "--out", spect) == 0
        monkeypatch.setattr(odmr, "MAX_ITERATIONS", 1)
        code = run_cli("odmr-fit", "--input", spect, "--out", str(tmp_path / "f"))
        assert code == 3
        err = capsys.readouterr().err
        assert "no convergence within 1 iterations" in err
        assert "last iterate: baseline=" in err
        assert "center1=" in err
        assert "residual_norm: " in err
        assert not (tmp_path / "f").exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2850000000,nan", "non-finite count nan at point 10"),
            ("2850000000,inf", "non-finite count inf at point 10"),
            ("nan,100", "non-finite frequency nan at point 10"),
        ],
    )
    def test_fit_rejects_non_finite_spectrum(self, tmp_path, capsys, row, message):
        spect = tmp_path / "nf.csv"
        lines = ["freq_hz,counts"] + [f"{2.84e9 + i * 1e6:.17g},{100 + i % 3}" for i in range(30)]
        lines[11] = row
        spect.write_text("\n".join(lines) + "\n")
        code = run_cli("odmr-fit", "--input", str(spect), "--out", str(tmp_path / "f"))
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "f").exists()

    @pytest.mark.parametrize(
        "metadata, message",
        [
            ("# gate_start_ns=9", "missing metadata key gate_end_ns"),
            ("# integration_per_point_s=abc", "metadata integration_per_point_s='abc' is not a number"),
            ("# gate_start_ns=abc\n# gate_end_ns=50", "metadata gate_start_ns='abc' is not a number"),
            ("# gate_start_ns=9\n# gate_end_ns=abc", "metadata gate_end_ns='abc' is not a number"),
        ],
    )
    def test_fit_names_a_bad_metadata_key(self, tmp_path, capsys, metadata, message):
        spect = tmp_path / "meta.csv"
        lines = [f"{2.84e9 + i * 1e6:.17g},{100 + i % 3}" for i in range(30)]
        spect.write_text("\n".join([metadata, "freq_hz,counts", *lines]) + "\n")
        code = run_cli("odmr-fit", "--input", str(spect), "--out", str(tmp_path / "f"))
        assert code == 2
        assert capsys.readouterr().err == f"error: {spect}: {message}\n"

    # a cell in the first READ_BLOCK_ROWS data rows, and one in the rows
    # after them, which go to numpy's text parser
    @pytest.mark.parametrize("row", [10, 5000])
    def test_fit_names_a_non_numeric_cell(self, tmp_path, capsys, row):
        spect = tmp_path / "cell.csv"
        lines = [f"{2.84e9 + i * 1e4:.17g},{100 + i % 3}" for i in range(6000)]
        lines[row - 1] = lines[row - 1].split(",")[0] + ",x"
        spect.write_text("\n".join(["freq_hz,counts", *lines]) + "\n")
        code = run_cli("odmr-fit", "--input", str(spect), "--out", str(tmp_path / "f"))
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {spect}: column counts: 'x' in data row {row} is not a number\n"

    def test_fit_rejects_wrong_columns(self, tmp_path, capsys):
        bad = tmp_path / "wrong.csv"
        bad.write_text("a,b\n1,2\n")
        code = run_cli("odmr-fit", "--input", str(bad), "--out", str(tmp_path / "f"))
        assert code == 2
        assert "freq_hz" in capsys.readouterr().err


class TestGateApply:
    def test_offline_gate_preserves_counts(self, config_path, tmp_path):
        hist_path = str(tmp_path / "hist.csv")
        gated_path = str(tmp_path / "gated.csv")
        assert run_cli(
            "simulate", "--config", config_path, "--out", hist_path, "--sample", "--seed", "9"
        ) == 0
        assert run_cli(
            "gate-apply", "--input", hist_path, "--tau-c", "9.2", "--out", gated_path
        ) == 0
        full = read_histogram(hist_path)
        table = read_report(gated_path)
        kept = full.counts[92:]
        assert len(table.rows) == kept.size
        assert all(isinstance(row[1], int) for row in table.rows)
        assert sum(row[1] for row in table.rows) == kept.sum()
        assert float(table.metadata["gated_counts"]) == float(kept.sum())
        assert table.rows[0][0] == pytest.approx(9.2)

    def test_misaligned_gate_fails(self, config_path, tmp_path, capsys):
        hist_path = str(tmp_path / "hist.csv")
        assert run_cli("simulate", "--config", config_path, "--out", hist_path) == 0
        code = run_cli(
            "gate-apply", "--input", hist_path, "--tau-c", "9.25", "--out", str(tmp_path / "g")
        )
        assert code == 2
        assert "not aligned" in capsys.readouterr().err

    @pytest.mark.parametrize("gate", [("--tau-c", "-1"), ("--tau-c", "20", "--t-end", "10")])
    def test_invalid_gate_fails(self, config_path, tmp_path, capsys, gate):
        # a negative onset must not wrap to the last bins, nor an end before
        # the onset give an empty gate
        hist_path = str(tmp_path / "hist.csv")
        assert run_cli("simulate", "--config", config_path, "--out", hist_path) == 0
        out = tmp_path / "g.csv"
        assert run_cli("gate-apply", "--input", hist_path, *gate, "--out", str(out)) == 2
        assert "gate window requires" in capsys.readouterr().err
        assert not out.exists()


class TestHwSim:
    def test_hardware_equals_offline(self, config_path, tmp_path):
        out = str(tmp_path / "hw.csv")
        assert run_cli(
            "hw-sim", "--config", config_path, "--out", out, "--seed", "21",
            "--integration", "0.002", "--delay", "9.2",
        ) == 0
        meta = read_report(out).metadata
        assert meta["identical_to_offline"] == "1"
        assert int(meta["n_kept_hw"]) == int(meta["n_kept_offline"])
        assert 0 < int(meta["n_kept_hw"]) < int(meta["n_events"])

    def test_jittered_blocks_same_bytes(self, config_path, tmp_path):
        # 0.5 ms is 10,000 pulses: three stream blocks, each with its own
        # jitter draws
        outs = [str(tmp_path / f"hw{k}.csv") for k in range(2)]
        for out in outs:
            assert run_cli(
                "hw-sim", "--config", config_path, "--out", out, "--seed", "5",
                "--integration", "0.0005", "--delay", "9.2", "--jitter", "0.5",
            ) == 0
        assert open(outs[0], "rb").read() == open(outs[1], "rb").read()
        meta = read_report(outs[0]).metadata
        assert meta["identical_to_offline"] == "0"
        assert 0 < int(meta["n_kept_hw"]) < int(meta["n_events"])

    def test_negative_jitter_rejected(self, config_path, tmp_path, capsys):
        out = tmp_path / "hw.csv"
        assert run_cli(
            "hw-sim", "--config", config_path, "--out", str(out), "--seed", "5",
            "--delay", "9.2", "--jitter", "-10",
        ) == 2
        assert "--jitter must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    # A child's ru_maxrss starts from the peak of the process that spawned it,
    # so hw-sim is spawned from a fresh interpreter, not from the test runner.
    MEASURE = textwrap.dedent(
        """\
        import os, subprocess, sys
        proc = subprocess.Popen([sys.executable, "-c", sys.argv[1], *sys.argv[2:]])
        _, status, usage = os.wait4(proc.pid, 0)
        print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
        """
    )

    def peak_rss_mb(self, config: str, out: str, integration: str) -> float:
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(spingate.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [
                sys.executable, "-c", self.MEASURE,
                "import sys; from spingate.cli import main; sys.exit(main(sys.argv[1:]))",
                "hw-sim", "--config", config, "--out", out, "--seed", "3",
                "--integration", integration, "--delay", "40", "--length", "1",
            ],
            capture_output=True, text=True, env=env, timeout=300, check=True,
        )
        code, maxrss_kb = map(int, done.stdout.split())
        assert code == 0
        return maxrss_kb / 1024.0

    def test_memory_follows_kept_rows(self, config_path, tmp_path):
        # a 1 ns gate 40 ns after the pulse keeps under 0.1 % of the events, so
        # tripling the stream (5.7 M events at 6 ms) must leave the peak
        # nearly unchanged
        short = self.peak_rss_mb(config_path, str(tmp_path / "a.csv"), "0.002")
        long = self.peak_rss_mb(config_path, str(tmp_path / "b.csv"), "0.006")
        assert abs(long - short) < 0.15 * short


class TestSnrMapCommand:
    def test_map_output_shape_and_pitch(self, tmp_path):
        scan = tmp_path / "scan.csv"
        write_scan(scan)
        out = str(tmp_path / "map.csv")
        assert run_cli(
            "snr-map", "--input", str(scan), "--channel", "gated", "--factor", "2",
            "--out", out,
        ) == 0
        table = read_report(out)
        assert len(table.rows) == (5 * 2) * (4 * 2)
        assert table.metadata["pitch_um"] == "0.25"
        assert table.metadata["channel"] == "gated"
        assert table.metadata["method"] == "catmull-rom"
        assert table.metadata["zero_pixels"] == "0"

    def test_missing_pixel_rejected(self, tmp_path, capsys):
        scan = tmp_path / "scan.csv"
        text = (
            "# nx=2\n# ny=2\nix,iy,mw_off_gated,mw_on_gated,mw_off_ungated,mw_on_ungated\n"
            "0,0,1,1,1,1\n1,0,1,1,1,1\n0,1,1,1,1,1\n"
        )
        scan.write_text(text)
        code = run_cli("snr-map", "--input", str(scan), "--channel", "gated",
                       "--out", str(tmp_path / "m"))
        assert code == 2
        assert "missing pixels" in capsys.readouterr().err

    def test_wrong_columns_rejected(self, tmp_path, capsys):
        scan = tmp_path / "scan.csv"
        scan.write_text("# nx=1\n# ny=1\na,b\n1,2\n")
        code = run_cli("snr-map", "--input", str(scan), "--channel", "gated",
                       "--out", str(tmp_path / "m"))
        assert code == 2
        assert "expected columns" in capsys.readouterr().err


    @pytest.mark.parametrize("row", [10, 4100])
    def test_non_numeric_cell_named(self, tmp_path, capsys, row):
        scan = tmp_path / "scan.csv"
        write_scan(scan, nx=70, ny=60)
        lines = scan.read_text().splitlines()
        cells = lines[4 + row].split(",")
        cells[3] = "x"
        lines[4 + row] = ",".join(cells)
        scan.write_text("\n".join(lines) + "\n")
        code = run_cli("snr-map", "--input", str(scan), "--channel", "gated",
                       "--out", str(tmp_path / "m"))
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {scan}: column mw_on_gated: 'x' in data row {row} is not a number\n"


class TestReproducibility:
    """Two runs of a subcommand on the same inputs and seed write the same bytes."""

    ARGV = {
        "simulate": ("--config", "{config}", "--sample", "--seed", "3"),
        "gate-sweep": ("--config", "{config}"),
        "rep-sweep": ("--config", "{grid}"),
        "joint-opt": ("--config", "{grid}"),
        "mc": ("--config", "{config}", "--tau-c", "9.2", "--trials", "50", "--seed", "11"),
        "odmr-synth": ("--config", "{config}", "--tau-c", "9.2", "--seed", "4"),
        "odmr-fit": ("--input", "{spectrum}"),
        "gate-apply": ("--input", "{histogram}", "--tau-c", "9.2"),
        "hw-sim": (
            "--config", "{config}", "--seed", "21", "--integration", "0.0005",
            "--delay", "9.2", "--jitter", "0.5",
        ),
        "snr-map": ("--input", "{scan}", "--channel", "gated", "--factor", "2"),
    }

    @pytest.fixture(scope="class")
    def inputs(self, config_path, tmp_path_factory):
        d = tmp_path_factory.mktemp("inputs")
        (d / "grid.ini").write_text(CONFIG + "period_grid = 40:60:10\n")
        write_scan(d / "scan.csv")
        paths = {name: str(d / f"{name}.csv") for name in ("spectrum", "histogram")}
        assert run_cli(
            "odmr-synth", "--config", config_path, "--tau-c", "9.2", "--out", paths["spectrum"]
        ) == 0
        assert run_cli(
            "simulate", "--config", config_path, "--sample", "--seed", "9",
            "--out", paths["histogram"],
        ) == 0
        return dict(paths, config=config_path, grid=str(d / "grid.ini"), scan=str(d / "scan.csv"))

    @pytest.mark.parametrize("command", list(ARGV))
    def test_same_inputs_same_bytes(self, inputs, tmp_path, command):
        argv = [command] + [arg.format(**inputs) for arg in self.ARGV[command]]
        outs = [tmp_path / f"out{k}.csv" for k in range(2)]
        for out in outs:
            assert run_cli(*argv, "--out", str(out)) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


    # seed 1 gave other bytes at two threads with the fit's earlier
    # Levenberg-Marquardt loop, seed 5 with a cost summed by BLAS's dot
    @pytest.mark.parametrize("seed", ["1", "5"])
    def test_fit_bytes_do_not_depend_on_blas_threads(self, config_path, tmp_path, seed):
        spectrum = str(tmp_path / "spectrum.csv")
        assert run_cli(
            "odmr-synth", "--config", config_path, "--points", "100000", "--seed", seed,
            "--out", spectrum,
        ) == 0
        src = os.path.dirname(os.path.dirname(os.path.abspath(spingate.__file__)))
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            outs.append(tmp_path / f"fit{threads}.csv")
            subprocess.run(
                [sys.executable, "-m", "spingate.cli", "odmr-fit", "--input", spectrum,
                 "--out", str(outs[-1])],
                env=env, timeout=120, check=True,
            )
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestArgumentHandling:
    def test_unknown_subcommand(self, capsys):
        assert run_cli("frobnicate") == 2
        capsys.readouterr()

    def test_no_arguments(self, capsys):
        assert run_cli() == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert run_cli("gate-apply", "--tau-c", "1.0") == 2
        capsys.readouterr()

    def test_version_exits_zero(self, capsys):
        assert run_cli("--version") == 0
        assert "spingate" in capsys.readouterr().out

    def test_bad_config_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[model]\nwavelength = 532\n")
        code = run_cli("gate-sweep", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "wavelength" in err

    def test_config_required(self, tmp_path, capsys):
        code = run_cli("gate-sweep", "--out", str(tmp_path / "o"))
        assert code == 2
        assert "--config" in capsys.readouterr().err

    def test_out_required(self, config_path, capsys):
        code = run_cli("gate-sweep", "--config", config_path)
        assert code == 2
        assert "output path" in capsys.readouterr().err


class TestQuietCells:
    """nan, +-inf, +-0 and subnormal cells, which take the writer's per-cell
    path, print nothing to stderr: no numpy cast or log warning reaches a
    user."""

    HISTOGRAM = textwrap.dedent(
        """\
        # bin_width_ns=12.5
        # rep_rate_hz=20000000
        # integration_s=1
        # channel=mw_off
        0,0.5
        12.5,-0
        25,5e-324
        37.5,2.5e-310
        """
    )
    SCRIPT = textwrap.dedent(
        """\
        import sys
        import numpy as np
        from spingate import ColumnarReport, write_report
        cells = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1.5]
        data = {np.dtype(t).name: np.array(cells, t) for t in (np.float64, np.float32, np.float16)}
        write_report(sys.argv[1], ColumnarReport(metadata={}, data=data))
        """
    )

    def run(self, *argv: str) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(spingate.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        # -W default shows every warning once, whatever the interpreter's filters
        return subprocess.run(
            [sys.executable, "-W", "default", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_gate_apply_writes_zero_and_subnormal_counts_silently(self, tmp_path):
        hist, out = tmp_path / "hist.csv", tmp_path / "gated.csv"
        hist.write_text(self.HISTOGRAM)
        done = self.run(
            "-m", "spingate.cli", "gate-apply", "--input", str(hist), "--tau-c", "0",
            "--out", str(out),
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert out.read_text().splitlines()[-4:] == [
            "0,0.5", "12.5,-0", "25,4.9406564584124654e-324", "37.5,2.5000000000000171e-310"
        ]

    def test_non_finite_zero_and_subnormal_cells_write_silently(self, tmp_path):
        out = tmp_path / "cells.csv"
        done = self.run("-c", self.SCRIPT, str(out))
        assert (done.returncode, done.stderr) == (0, "")
        lines = out.read_text().splitlines()
        assert lines[0] == "float64,float32,float16"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "nan", "inf", "-inf", "0", "-0", "4.9406564584124654e-324",
            "-2.5000000000000171e-310", "1.5",
        ]


class TestImportCost:
    """No command loads scipy: IRF-free runs never import it, and the IRF
    kernel's special functions are numpy arithmetic."""

    SCRIPT = textwrap.dedent(
        """\
        import sys
        import spingate
        print("scipy.special" in sys.modules)
        from spingate.cli import main
        code = main(["gate-sweep", "--config", sys.argv[1], "--out", sys.argv[2]])
        print(code, "scipy.special" in sys.modules)
        """
    )
    # a None entry in sys.modules makes every import of scipy raise ImportError
    NO_SCIPY = textwrap.dedent(
        """\
        import os, sys
        sys.modules["scipy"] = None
        from spingate.cli import main
        config, out = sys.argv[1], sys.argv[2]
        codes = [
            main(["gate-sweep", "--config", config, "--out", os.path.join(out, "gate.csv")]),
            main(["simulate", "--config", config, "--sample", "--seed", "3",
                  "--out", os.path.join(out, "hist.csv")]),
            main(["mc", "--config", config, "--tau-c", "9.2", "--trials", "200", "--seed", "3",
                  "--out", os.path.join(out, "mc.csv")]),
            main(["hw-sim", "--config", config, "--delay", "9.2", "--jitter", "0.5",
                  "--integration", "0.0005", "--seed", "3", "--out", os.path.join(out, "hw.csv")]),
        ]
        print(*codes)
        """
    )

    def run_script(self, script: str, *args: str) -> list[str]:
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(spingate.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", script, *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
            check=True,
        )
        return done.stdout.splitlines()

    def test_sigma_zero_gate_sweep_leaves_scipy_unloaded(self, config_path, tmp_path):
        lines = self.run_script(self.SCRIPT, config_path, str(tmp_path / "sweep.csv"))
        assert lines == ["False", "0 False"]

    def test_irf_commands_run_without_scipy(self, tmp_path):
        path = tmp_path / "irf.ini"
        path.write_text(CONFIG.replace("c_sat = 0.15", "c_sat = 0.15\nirf_sigma = 0.3"))
        lines = self.run_script(self.NO_SCIPY, str(path), str(tmp_path))
        assert lines == ["0 0 0 0"]
        assert read_histogram(str(tmp_path / "hist.csv")).counts.sum() > 0
