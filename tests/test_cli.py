"""End-to-end command-line runs through main(argv)."""

import argparse
import ast
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spingate
from spingate import acquisition, cli, config, decay, mapping, odmr
from spingate.acquisition import BLOCK_PULSES
from spingate.cli import main
from spingate.decay import PulseTrain, channel_rates, gated_counts, steady_rate
from spingate.errors import ParseError
from spingate.gating import CHANNELS, GateWindow
from spingate.metrics import snr
from spingate.presets import bulk_model
from spingate.report import ColumnarReport, read_histogram, read_report, write_report

from report_oracle import read_table

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


# A 0.3 ns Gaussian IRF, so every model command takes the EMG kernel, over
# a background set by its amplitude ratio (the default mode)
IRF_CONFIG = textwrap.dedent(
    """\
    [model]
    spin0 = 1.0, 12.0
    spin1 = 1.0, 8.0
    background_ratio = 3
    background_lifetime = 1.7
    irf_sigma = 0.3
    c_sat = 0.15

    [train]
    rep_rate = 20e6

    [sweep]
    integration_time = 10.0
    mw_duty = 0.5
    tau_c_step = 2.0
    """
)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.ini"
    path.write_text(CONFIG)
    return str(path)


def run_cli(*argv) -> int:
    return main(list(argv))


def run_python(*argv: str, timeout: float = 120, preexec_fn=None,
               env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    """python -W default argv in a fresh interpreter, with env's variables
    added to this one's. The child imports the spingate this process
    imported: its directory goes first on PYTHONPATH, so that is src/ in a
    checkout and site-packages where the package is installed. -W default
    shows every warning once, whatever the interpreter's filters;
    preexec_fn runs in the child before it starts."""
    variables = dict(os.environ, **(env or {}))
    home = os.path.dirname(os.path.dirname(os.path.abspath(spingate.__file__)))
    variables["PYTHONPATH"] = os.pathsep.join(
        p for p in (home, variables.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-W", "default", *argv],
        capture_output=True, text=True, env=variables, timeout=timeout, preexec_fn=preexec_fn,
    )


def run_script(script: str, *args: str) -> list[str]:
    """The output lines of script run by run_python, which must exit 0."""
    done = run_python("-c", script, *args)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def set_key(text: str, key: str, value: str) -> str:
    """The config text with key's line set to key = value."""
    return re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)


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
        assert hist.channel_time == pytest.approx(0.1)

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


    def test_infinite_integration_writes_nothing(self, tmp_path, capsys):
        # a histogram of infinite counts, which gate-apply would refuse to read;
        # the channel time comes only from the config, which rejects inf
        path = tmp_path / "inf.ini"
        path.write_text(CONFIG.replace("integration_time = 0.2", "integration_time = inf"))
        out = tmp_path / "h.csv"
        code = run_cli("simulate", "--config", str(path), "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 13: bad value for 'integration_time': not a finite number: 'inf'\n"
        )
        assert not out.exists()


class TestChannelTime:
    """simulate, mc and hw-sim count each MW channel for
    SweepConfig.channel_time, integration_time * mw_duty, at any duty in
    (0, 0.5]: per-channel totals match steady_rate * channel_time within
    5 sqrt(N). simulate and hw-sim take duties from 1e-3, so that their
    channels count something; mc takes any duty, since a trial with no count
    in either channel reads SNR 0."""

    INTEGRATION = 2e-3  # s; hw-sim's stream, 2 * INTEGRATION * mw_duty, is at most 2 ms
    GATE = 9.2  # ns

    def run_config(self, duty: float):
        return config.parse_config(
            CONFIG.replace("mw_duty = 0.5", f"mw_duty = {duty!r}")
            .replace("integration_time = 0.2", f"integration_time = {self.INTEGRATION!r}")
        )

    def means(self, run, duty: float, onset: float) -> list[float]:
        """Each channel's expected counts: its spin mixture's rate times
        integration_time * mw_duty."""
        return [
            steady_rate(run.model, spin, onset, run.train) * (self.INTEGRATION * duty)
            for spin in ("ms0", run.sweep.c_sat)
        ]

    @given(duty=st.floats(1e-3, 0.5), seed=st.integers(0, 2**32 - 1))
    @example(duty=0.5, seed=1)
    @settings(max_examples=15, deadline=None)
    def test_simulate(self, duty, seed):
        run = self.run_config(duty)
        for channel, mean in zip(CHANNELS, self.means(run, duty, 0.0)):
            args = argparse.Namespace(channel=channel, bin_width=0.5, sample=True)
            hist = decay.cmd_simulate(args, run, seed)
            assert (hist.channel, hist.channel_time) == (channel, self.INTEGRATION * duty)
            assert abs(hist.counts.sum() - mean) <= 5.0 * math.sqrt(mean)

    @given(duty=st.floats(0.0, 0.5, exclude_min=True), seed=st.integers(0, 2**32 - 1))
    @example(duty=0.5, seed=1)
    @settings(max_examples=15, deadline=None)
    def test_mc(self, duty, seed):
        run = self.run_config(duty)
        trials = 200
        args = argparse.Namespace(tau_c=self.GATE, t_end=None, trials=trials)
        meta, columns = acquisition.cmd_mc(args, run, seed)
        means = self.means(run, duty, self.GATE)
        # the trials are the SNRs of (N0, N1) pairs drawn from these means
        counts = np.random.default_rng(seed).poisson(means, size=(trials, 2))
        assert np.array_equal(columns["snr"], snr(counts.T))
        assert meta["analytic_snr"] == snr(means)
        for total, mean in zip(counts.sum(axis=0), means):
            assert abs(total - trials * mean) <= 5.0 * math.sqrt(trials * mean)

    def test_mc_trials_with_no_count_read_zero(self, tmp_path):
        # at mw_duty 1e-9 nearly every trial draws no photon in either channel
        path = tmp_path / "run.ini"
        path.write_text(CONFIG.replace("mw_duty = 0.5", "mw_duty = 1e-9"))
        out = str(tmp_path / "mc.csv")
        assert run_cli("mc", "--config", str(path), "--tau-c", "9.2", "--seed", "1",
                       "--out", out) == 0
        column = read_table(out).data["snr"]
        assert column.size == 1000
        run = config.load_config(str(path))
        means = channel_rates(run.model, run.sweep.c_sat, self.GATE, run.train) * (0.2 * 1e-9)
        counts = np.random.default_rng(1).poisson(means, size=(1000, 2))
        empty = counts.sum(axis=1) == 0
        assert empty.sum() > 900
        assert np.all(column[empty] == 0.0)
        assert np.array_equal(column, snr(counts.T))

    @given(duty=st.floats(1e-3, 0.5), seed=st.integers(0, 2**32 - 1),
           periods=st.integers(1, 3))
    @example(duty=0.5, seed=1, periods=1)
    @settings(max_examples=10, deadline=None)
    def test_hw_sim(self, duty, seed, periods):
        # a whole number of toggle periods in the stream, so the 50 % toggle
        # gives each channel half of it
        run = self.run_config(duty)
        stream = 2 * self.INTEGRATION * duty
        args = argparse.Namespace(integration=self.INTEGRATION, toggle_rate=periods / stream,
                                  delay=self.GATE, length=None, jitter=0.0)
        meta, columns, labels = acquisition.cmd_hw_sim(args, run, seed)
        assert labels == {"channel": CHANNELS}
        kept = np.bincount(columns["channel"], minlength=len(CHANNELS))
        for n, mean in zip(kept, self.means(run, duty, self.GATE)):
            assert abs(n - mean) <= 5.0 * math.sqrt(mean)
        total = sum(self.means(run, duty, 0.0))
        assert abs(meta["n_events"] - total) <= 5.0 * math.sqrt(total)


class TestSweeps:
    def test_gate_sweep_reports_optimum(self, config_path, tmp_path):
        out = str(tmp_path / "sweep.csv")
        assert run_cli("gate-sweep", "--config", config_path, "--out", out) == 0
        text = open(out).read()
        assert "# optimal_tau_c_ns=" in text
        table = read_report(out, ("tau_c_ns", "contrast", "shot_noise", "snr", "ef", "eta"))
        assert float(table.metadata["optimal_tau_c_ns"]) == pytest.approx(9.2, abs=1e-9)
        assert table.metadata["c_sat"] == "0.14999999999999999"

    def test_rep_sweep_with_period_grid(self, config_path, tmp_path):
        cfg = open(config_path).read() + "period_grid = 40:60:10\n"
        path = tmp_path / "rep.ini"
        path.write_text(cfg)
        out = str(tmp_path / "rep.csv")
        assert run_cli("rep-sweep", "--config", str(path), "--out", out) == 0
        table = read_table(out)
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

    def test_gate_sweep_onset_with_no_reference_count_fails(self, tmp_path, capsys):
        # a 10 ps spin0 lifetime leaves N0 = 0 past the first onsets: the SNR
        # there would read 0, but the contrast is undefined, so the sweep
        # exits 2 and writes nothing
        path = tmp_path / "fast.ini"
        path.write_text(CONFIG.replace("spin0 = 1.0, 12.0", "spin0 = 1.0, 0.01")
                        .replace("spin1 = 1.0, 8.0", "spin1 = 1.0, 0.008")
                        .replace("background_ratio = 3", "background_ratio = 0"))
        out = tmp_path / "sweep.csv"
        assert run_cli("gate-sweep", "--config", str(path), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: undefined contrast: reference channel N0 has zero counts\n"
        )
        assert not out.exists()

    def test_infinite_integration_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "inf.ini"
        path.write_text(set_key(CONFIG, "integration_time", "inf"))
        out = tmp_path / "sweep.csv"
        assert run_cli("gate-sweep", "--config", str(path), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: line 13: bad value for 'integration_time': not a finite number: 'inf'\n"
        )
        assert not out.exists()

    def test_joint_opt_metadata(self, config_path, tmp_path):
        cfg = open(config_path).read() + "period_grid = 45:55:5\n"
        path = tmp_path / "joint.ini"
        path.write_text(cfg)
        out = str(tmp_path / "joint.csv")
        assert run_cli("joint-opt", "--config", str(path), "--out", out) == 0
        meta = read_table(out).metadata
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
        rows_a = read_table(a).rows
        rows_b = read_table(b).rows
        assert rows_a != rows_b

    def test_mean_tracks_analytic(self, config_path, tmp_path):
        out = str(tmp_path / "mc.csv")
        assert run_cli(
            "mc", "--config", config_path, "--tau-c", "9.0", "--trials", "100",
            "--seed", "4", "--out", out,
        ) == 0
        meta = read_table(out).metadata
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
        meta = read_table(out).metadata
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
        assert read_table(out).metadata["tau_c_ns"] == "9.0500000000000007"

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
        meta = read_report(spect, ("freq_hz", "counts")).metadata
        assert meta["gate_start_ns"] == "9.1999999999999993"
        assert run_cli("odmr-fit", "--input", spect, "--out", fit_out) == 0
        fit = read_table(fit_out)
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

    def test_low_contrast_fit_finds_both_dips(self, tmp_path):
        # 121 points at about 1 % contrast, where a start taken from the
        # spectrum's minima once sent a center out of the span
        path, spect, fit_out = tmp_path / "irf.ini", tmp_path / "low.csv", tmp_path / "fit.csv"
        path.write_text(IRF_CONFIG)
        assert run_cli(
            "odmr-synth", "--config", str(path), "--points", "121", "--depth1", "0.05",
            "--depth2", "0.05", "--integration-per-point", "1e-4", "--seed", "83",
            "--out", str(spect),
        ) == 0
        assert run_cli("odmr-fit", "--input", str(spect), "--out", str(fit_out)) == 0
        fit = read_table(str(fit_out))
        row = dict(zip(fit.columns, fit.rows[0]))
        # each fitted center lies within one 8 MHz linewidth of its dip
        assert abs(row["center1_hz"] - 2.865e9) < 8e6
        assert abs(row["center2_hz"] - 2.875e9) < 8e6

    @pytest.mark.parametrize(
        "value, message",
        [("-1", "must be > 0"), ("nan", "must be > 0"), ("inf", "must be finite, got inf")],
    )
    @pytest.mark.parametrize("seed", [[], ["--seed", "1"]], ids=["expected", "sampled"])
    def test_synth_checks_integration_first(self, config_path, tmp_path, capsys, value,
                                            message, seed):
        out = tmp_path / "s.csv"
        code = run_cli("odmr-synth", "--config", config_path, *seed,
                       "--integration-per-point", value, "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == f"error: integration_per_point {message}\n"
        assert not out.exists()

    def test_ungated_synth_has_no_gate_metadata(self, config_path, tmp_path):
        spect = str(tmp_path / "u.csv")
        assert run_cli("odmr-synth", "--config", config_path, "--out", spect) == 0
        meta = read_report(spect, ("freq_hz", "counts")).metadata
        assert meta["gate_start_ns"] == "none"
        assert meta["gate_end_ns"] == "none"

    def test_fit_input_path_with_outer_whitespace_exits_2(self, config_path, tmp_path, capsys):
        # the path goes into the fit's metadata, which the reader would strip
        spect = str(tmp_path / "spect.csv ")
        assert run_cli("odmr-synth", "--config", config_path, "--out", spect) == 0
        capsys.readouterr()
        code = run_cli("odmr-fit", "--input", spect, "--out", str(tmp_path / "f"))
        assert code == 2
        assert "may not start or end with whitespace" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()

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
        # the key's line, or the header's (after the metadata) for a missing key
        key = message.split()[-1] if message.startswith("missing") else message[9:].split("=")[0]
        entries = [entry.split("=")[0] for entry in metadata.split("\n")]
        line = entries.index(f"# {key}") + 1 if f"# {key}" in entries else len(entries) + 1
        assert capsys.readouterr().err == f"error: {spect}: line {line}: {message}\n"

    # a cell near the top of the file and one far down: numpy's text parser
    # refuses either, and the per-line pass names it
    @pytest.mark.parametrize("row", [10, 5000])
    def test_fit_names_a_non_numeric_cell(self, tmp_path, capsys, row):
        spect = tmp_path / "cell.csv"
        lines = [f"{2.84e9 + i * 1e4:.17g},{100 + i % 3}" for i in range(6000)]
        lines[row - 1] = lines[row - 1].split(",")[0] + ",x"
        spect.write_text("\n".join(["freq_hz,counts", *lines]) + "\n")
        code = run_cli("odmr-fit", "--input", str(spect), "--out", str(tmp_path / "f"))
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {spect}: line {row + 1}: column counts: 'x' is not a number\n"

    def test_fit_rejects_wrong_columns(self, tmp_path, capsys):
        bad = tmp_path / "wrong.csv"
        bad.write_text("a,b\n1,2\n")
        code = run_cli("odmr-fit", "--input", str(bad), "--out", str(tmp_path / "f"))
        assert code == 2
        assert "freq_hz" in capsys.readouterr().err

    def test_fit_rejects_an_extra_column(self, tmp_path, capsys):
        bad = tmp_path / "extra.csv"
        lines = [f"{2.84e9 + i * 1e6:.17g},{100 + i % 3},1" for i in range(30)]
        bad.write_text("\n".join(["freq_hz,counts,note", *lines]) + "\n")
        code = run_cli("odmr-fit", "--input", str(bad), "--out", str(tmp_path / "f"))
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: line 1: expected columns freq_hz,counts\n"
        assert not (tmp_path / "f").exists()


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
        table = read_table(gated_path)
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

    def test_non_numeric_count_named(self, config_path, tmp_path, capsys):
        # the C parser refuses the file, and the per-line pass names the cell
        hist = tmp_path / "hist.csv"
        assert run_cli("simulate", "--config", config_path, "--sample", "--seed", "1",
                       "--out", str(hist)) == 0
        lines = hist.read_text().splitlines()
        lines[99] = lines[99].split(",")[0] + ",x"
        hist.write_text("\n".join(lines) + "\n")
        out = tmp_path / "g.csv"
        assert run_cli("gate-apply", "--input", str(hist), "--tau-c", "9.2", "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: {hist}: line 100: column counts: 'x' is not a number\n"
        )
        assert not out.exists()


class TestHwSim:
    def test_hardware_equals_offline(self, config_path, tmp_path):
        out = str(tmp_path / "hw.csv")
        assert run_cli(
            "hw-sim", "--config", config_path, "--out", out, "--seed", "21",
            "--integration", "0.002", "--delay", "9.2",
        ) == 0
        meta = read_table(out).metadata
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
        meta = read_table(outs[0]).metadata
        assert meta["identical_to_offline"] == "0"
        assert 0 < int(meta["n_kept_hw"]) < int(meta["n_events"])

    def test_infinite_integration_writes_nothing(self, config_path, tmp_path, capsys):
        out = tmp_path / "hw.csv"
        code = run_cli("hw-sim", "--config", config_path, "--delay", "9.2", "--seed", "5",
                       "--integration", "inf", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == "error: integration_time must be finite, got inf\n"
        assert not out.exists()

    def test_zero_integration_rejected(self, config_path, tmp_path, capsys):
        # as integration_time = 0 in a config; it once wrote an empty file
        out = tmp_path / "hw.csv"
        code = run_cli("hw-sim", "--config", config_path, "--delay", "9.2", "--seed", "5",
                       "--integration", "0", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == "error: integration_time must be > 0\n"
        assert not out.exists()

    def test_duty_sets_the_stream(self, tmp_path):
        # each channel counts integration * mw_duty, so the duty sets the
        # stream's length; hw-sim once wrote the same bytes at 0.3 and 0.5
        outs = []
        for duty in ("0.3", "0.5"):
            path, out = tmp_path / f"duty{duty}.ini", tmp_path / f"hw{duty}.csv"
            path.write_text(CONFIG.replace("mw_duty = 0.5", f"mw_duty = {duty}"))
            assert run_cli("hw-sim", "--config", str(path), "--out", str(out), "--seed", "3",
                           "--integration", "1e-3", "--toggle-rate", "2000",
                           "--delay", "9.2") == 0
            outs.append(read_table(out))
        assert outs[0].metadata["n_events"] != outs[1].metadata["n_events"]
        # 0.6 ms and 1 ms of stream from one seed: the two whole blocks of
        # 4,096 pulses that both start with are the same draw
        short, long = (t.data["timestamp_ns"] for t in outs)
        assert short[-1] < 0.6e6 <= long[-1]
        head = 2 * BLOCK_PULSES * 50.0  # ns, at 20 MHz
        for name in ("timestamp_ns", "channel"):
            a, b = (t.data[name][t.data["timestamp_ns"] < head] for t in outs)
            assert a.size > 0 and np.array_equal(a, b)

    def test_stream_past_the_timestamp_limit_fails_at_once(self, config_path, tmp_path):
        # 1e300 s of stream is about 5e303 blocks; block_count refuses it
        # before the first block, so the run ends well inside the timeout
        out = tmp_path / "hw.csv"
        done = run_python("-m", "spingate.cli", "hw-sim", "--config", config_path,
                          "--integration", "1e300", "--delay", "9.2", "--seed", "1",
                          "--out", str(out), timeout=20)
        assert (done.returncode, done.stderr.splitlines()) == (2, [
            "error: stream_time 1e+300 s runs timestamps past 8.79609e+12 ns, "
            "where float64 no longer resolves 0.001 ns of phase"
        ])
        assert not out.exists()

    def test_channel_codes_written_as_a_str_column(self, config_path, tmp_path):
        # the channel column is written from its uint8 codes; the same
        # events with channel as a U6 str array give the same bytes. At 2 kHz
        # the MW drive toggles every 0.25 ms, so both channels occur.
        out = tmp_path / "hw.csv"
        assert run_cli(
            "hw-sim", "--config", config_path, "--out", str(out), "--seed", "21",
            "--integration", "0.001", "--delay", "9.2", "--jitter", "0.3", "--toggle-rate", "2000",
        ) == 0
        table = read_table(out)
        assert table.columns == ("timestamp_ns", "channel")
        channel = table.data["channel"]
        assert channel.dtype == np.dtype("<U6")
        assert set(channel.tolist()) == set(CHANNELS)
        assert channel.size == int(table.metadata["n_kept_hw"])
        again = tmp_path / "again.csv"
        write_report(str(again), ColumnarReport(metadata=table.metadata, data=table.data))
        assert again.read_bytes() == out.read_bytes()

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
        [line] = run_script(
            self.MEASURE,
            "import sys; from spingate.cli import main; sys.exit(main(sys.argv[1:]))",
            "hw-sim", "--config", config, "--out", out, "--seed", "3",
            "--integration", integration, "--delay", "40", "--length", "1",
        )
        code, maxrss_kb = map(int, line.split())
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
        table = read_table(out)
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

    @pytest.mark.parametrize(
        "cell, problem",
        [
            ("0.5", "pixel (0.5, 0) is not an integer index"),
            ("nan", "pixel (nan, 0) is not an integer index"),
            ("inf", "pixel (inf, 0) outside the 5x4 grid"),
            ("-inf", "pixel (-inf, 0) outside the 5x4 grid"),
            ("5", "pixel (5, 0) outside the 5x4 grid"),
        ],
    )
    def test_bad_pixel_index_rejected(self, tmp_path, capsys, cell, problem):
        # ix of the first row, which holds pixel (0, 0): 0.5 once truncated
        # to it and wrote the same map
        scan = tmp_path / "scan.csv"
        write_scan(scan)
        lines = scan.read_text().splitlines()
        lines[5] = cell + lines[5][1:]
        scan.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m"
        assert run_cli("snr-map", "--input", str(scan), "--channel", "gated", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {scan}: {problem}\n"
        assert not out.exists()

    def test_scan_header_allocates_nothing_per_declared_pixel(self, tmp_path):
        # one row under a 2000x2000 header: the pixels are counted before any
        # grid-sized array exists
        scan = tmp_path / "scan.csv"
        scan.write_text(
            "# nx=2000\n# ny=2000\nix,iy,mw_off_gated,mw_on_gated,mw_off_ungated,mw_on_ungated\n"
            "0,0,1,1,1,1\n"
        )
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="plane mw_off_gated has missing pixels"):
                mapping._read_scan(str(scan))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_grid_past_int64_has_missing_pixels(self, tmp_path, capsys):
        # nx * ny once formed each pixel's index in int64 and overflowed, a traceback
        scan = tmp_path / "scan.csv"
        scan.write_text(
            "# nx=100000000000000000000\n# ny=1\n"
            "ix,iy,mw_off_gated,mw_on_gated,mw_off_ungated,mw_on_ungated\n0,0,1,1,1,1\n"
        )
        out = tmp_path / "m"
        assert run_cli("snr-map", "--input", str(scan), "--channel", "gated", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {scan}: plane mw_off_gated has missing pixels\n"
        assert not out.exists()

    def test_duplicate_pixel_rejected(self, tmp_path, capsys):
        # a second row for pixel (0, 0) once overwrote the first
        scan = tmp_path / "scan.csv"
        write_scan(scan)
        with open(scan, "a") as handle:
            handle.write("0,0,1,1,1,1\n")
        out = tmp_path / "m"
        assert run_cli("snr-map", "--input", str(scan), "--channel", "gated", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {scan}: pixel (0, 0) appears in more than one row\n"
        assert not out.exists()

    def test_wrong_columns_rejected(self, tmp_path, capsys):
        scan = tmp_path / "scan.csv"
        scan.write_text("# nx=1\n# ny=1\na,b\n1,2\n")
        code = run_cli("snr-map", "--input", str(scan), "--channel", "gated",
                       "--out", str(tmp_path / "m"))
        assert code == 2
        assert "expected columns" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, problem",
        [
            ("# nx=5", "line 4: missing metadata key nx"),
            ("# nx=abc", "line 1: metadata nx='abc' is not a whole number"),
            ("# ny=4.5", "line 2: metadata ny='4.5' is not a whole number"),
            ("# nx=inf", "line 1: metadata nx='inf' is not a whole number"),
            ("# pitch_um=x", "line 3: metadata pitch_um='x' is not a number"),
            ("# pitch_um=0.5", None),
            ("# dwell_s=0.01", None),
        ],
    )
    def test_scan_metadata_named(self, tmp_path, capsys, entry, problem):
        # the entry replaces its key's, or is dropped where it is the file's
        # own; pitch_um and dwell_s default to 1
        scan = tmp_path / "scan.csv"
        write_scan(scan)
        lines = scan.read_text().splitlines()
        keys = [line.split("=")[0] for line in lines]
        at = keys.index(entry.split("=")[0])
        lines[at : at + 1] = [] if lines[at] == entry else [entry]
        scan.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m.csv"
        code = run_cli("snr-map", "--input", str(scan), "--channel", "gated", "--out", str(out))
        if problem is None:
            assert code == 0
        else:
            assert (code, capsys.readouterr().err) == (2, f"error: {scan}: {problem}\n")

    def test_whole_scan_size_read_as_a_float(self, tmp_path):
        # nx and ny are whole numbers, written any way float() reads them
        scan, other = tmp_path / "scan.csv", tmp_path / "other.csv"
        write_scan(scan)
        text = scan.read_text()
        other.write_text(text.replace("# nx=5", "# nx=5.0").replace("# ny=4", "# ny=4e0"))
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path, out in zip((scan, other), outs):
            assert run_cli("snr-map", "--input", str(path), "--channel", "gated",
                           "--out", str(out)) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


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
        assert err == f"error: {scan}: line {row + 5}: column mw_on_gated: 'x' is not a number\n"


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
        outs = []
        for threads in ("1", "2"):
            outs.append(tmp_path / f"fit{threads}.csv")
            done = run_python(
                "-m", "spingate.cli", "odmr-fit", "--input", spectrum, "--out", str(outs[-1]),
                env=dict(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
            )
            assert done.returncode == 0, done.stderr
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

    def test_negative_seed_rejected(self, config_path, tmp_path, capsys):
        # the seed's one source is --seed, checked where it is read
        out = tmp_path / "o.csv"
        code = run_cli("mc", "--config", config_path, "--tau-c", "9.2", "--seed", "-3",
                       "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == "error: --seed must be non-negative\n"
        assert not out.exists()

    def test_out_required(self, config_path, capsys):
        code = run_cli("gate-sweep", "--config", config_path)
        assert code == 2
        assert capsys.readouterr().err.endswith(
            "spingate gate-sweep: error: the following arguments are required: --out\n"
        )


def parse(parser, argv, capsys) -> tuple:
    """The exit code, stdout and stderr of parsing argv; code None if it parsed."""
    try:
        parser.parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    """A run naming a command builds only that command's subparser, and
    prints what the full tree would."""

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_command_help_as_from_the_full_tree(self, command, capsys):
        one = parse(cli._build_parser(command), [command, "--help"], capsys)
        assert one[0] == 0 and one[1].startswith(f"usage: spingate {command} [-h]")
        assert one == parse(cli._build_parser(), [command, "--help"], capsys)

    @pytest.mark.parametrize(
        "argv",
        [["gate-sweep", "--bogus"], ["mc", "--config", "x.ini"], ["simulate", "--channel", "x"]],
        ids=["unknown-flag", "missing-required", "bad-choice"],
    )
    def test_usage_error_as_from_the_full_tree(self, argv, capsys):
        one = parse(cli._build_parser(argv[0]), argv, capsys)
        assert one[0] == 2 and one[1] == ""
        # the usage line lists every command, as the full tree's does
        assert one[2].startswith("usage: spingate ")
        assert one == parse(cli._build_parser(), argv, capsys)
        assert main(argv) == 2
        assert capsys.readouterr().err == one[2]

    @pytest.mark.parametrize(
        "argv, error",
        [
            ([], "the following arguments are required: command"),
            (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from "
             + ", ".join(f"'{name}'" for name in cli.COMMANDS) + ")"),
        ],
        ids=["no-command", "unknown-command"],
    )
    def test_no_or_unknown_command_gets_the_full_tree(self, argv, error, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == parse(cli._build_parser(), argv, capsys)[2]
        assert err.startswith("usage: spingate [-h] [--version]")
        assert "{" + ",".join(cli.COMMANDS) + "}" in err
        assert err.endswith(f"spingate: error: {error}\n")

    def test_help_lists_every_command(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: spingate [-h] [--version]")
        assert "{" + ",".join(cli.COMMANDS) + "}" in out
        words = " ".join(out.split())  # argparse wraps the help texts
        for name, spec in cli.COMMANDS.items():
            assert f"{name} {spec['help']}" in words

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_usage_states_the_required_arguments(self, command, capsys):
        # --out always, --config on the model commands only, --seed where
        # the table says
        spec = cli.COMMANDS[command]
        code, out, _ = parse(cli._build_parser(command), [command, "--help"], capsys)
        usage = out.split("\n\n")[0]
        assert code == 0 and " --out OUT" in usage and "[--out" not in usage
        assert (" --config CONFIG" in usage) == spec["config"] and "[--config" not in usage
        assert ("[--seed SEED]" not in usage) == spec["seed"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["odmr-fit", "--input", "y.csv", "--config", "x.ini"],
            ["gate-apply", "--input", "y.csv", "--tau-c", "9.2", "--config", "x.ini"],
            ["snr-map", "--input", "y.csv", "--channel", "gated", "--config", "x.ini"],
            ["simulate", "--config", "{config}", "--integration", "1"],
        ],
        ids=["odmr-fit-config", "gate-apply-config", "snr-map-config", "simulate-integration"],
    )
    def test_removed_settings_are_usage_errors(self, argv, config_path, tmp_path, capsys):
        # the input commands read no model, and simulate's channel time
        # comes only from the config
        argv = [arg.format(config=config_path) for arg in argv]
        out = tmp_path / "z.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith(
            f"spingate: error: unrecognized arguments: {' '.join(argv[-2:])}\n"
        )
        assert not out.exists()

    def test_simulate_channels_are_the_histograms(self):
        options = dict(cli.COMMANDS["simulate"]["arguments"])
        assert options["--channel"]["choices"] == CHANNELS


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
        from spingate.report import ColumnarReport, write_report
        cells = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1.5]
        data = {np.dtype(t).name: np.array(cells, t) for t in (np.float64, np.float32, np.float16)}
        write_report(sys.argv[1], ColumnarReport(metadata={}, data=data))
        """
    )

    def test_gate_apply_writes_zero_and_subnormal_counts_silently(self, tmp_path):
        hist, out = tmp_path / "hist.csv", tmp_path / "gated.csv"
        hist.write_text(self.HISTOGRAM)
        done = run_python(
            "-m", "spingate.cli", "gate-apply", "--input", str(hist), "--tau-c", "0",
            "--out", str(out),
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert out.read_text().splitlines()[-4:] == [
            "0,0.5", "12.5,-0", "25,4.9406564584124654e-324", "37.5,2.5000000000000171e-310"
        ]

    def test_non_finite_zero_and_subnormal_cells_write_silently(self, tmp_path):
        out = tmp_path / "cells.csv"
        done = run_python("-c", self.SCRIPT, str(out))
        assert (done.returncode, done.stderr) == (0, "")
        lines = out.read_text().splitlines()
        assert lines[0] == "float64,float32,float16"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "nan", "inf", "-inf", "0", "-0", "4.9406564584124654e-324",
            "-2.5000000000000171e-310", "1.5",
        ]


class TestNonFiniteArguments:
    """An infinite or nan argument is a validation error: exit 2, one error
    line, no numpy warning before it, and no output file."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["hw-sim", "--delay", "9.2", "--jitter", "inf", "--integration", "1e-4",
              "--seed", "1"], "jitter_sigma must be finite, got inf"),
            (["hw-sim", "--delay", "9.2", "--toggle-rate", "inf", "--integration", "1e-4",
              "--seed", "1"], "mw_toggle_rate must be finite, got inf"),
            (["odmr-synth", "--fwhm1", "inf"], "fwhm1 must be finite, got inf"),
            (["odmr-synth", "--center1", "inf"], "center1 must be finite, got inf"),
            (["odmr-synth", "--tau-c", "nan"],
             "gate window requires 0 <= t_start < t_end, got [nan, inf)"),
            (["odmr-synth", "--f-start", "inf"],
             "frequency span must be finite, got --f-start inf --f-stop 2900000000.0"),
        ],
        ids=["hw-sim-jitter", "hw-sim-toggle-rate", "synth-fwhm1", "synth-center1",
             "synth-tau-c", "synth-f-start"],
    )
    def test_exits_2_and_writes_nothing(self, config_path, tmp_path, argv, message):
        out = tmp_path / "o.csv"
        done = run_python("-m", "spingate.cli", *argv, "--config", config_path,
                          "--out", str(out))
        assert (done.returncode, done.stderr.splitlines()) == (2, [f"error: {message}"])
        assert not out.exists()


    @pytest.mark.parametrize(
        "width, message",
        [("1e-300", "1e-300 Hz is too narrow: its half-width squared underflows float64 to 0"),
         ("1e200", "1e+200 Hz is too wide: its half-width squared overflows float64")],
        ids=["narrow", "wide"],
    )
    def test_fwhm_whose_square_leaves_float64(self, config_path, tmp_path, width, message):
        # finite widths the Lorentzian cannot use: 1e-300 divided 0 by 0 with
        # numpy's warning, then failed on a nan count "above" float64's
        # limit; 1e200 ended in an OverflowError traceback (exit 1)
        out = tmp_path / "o.csv"
        done = run_python("-m", "spingate.cli", "odmr-synth", "--fwhm1", width,
                          "--config", config_path, "--out", str(out))
        assert (done.returncode, done.stderr.splitlines()) == (2, [f"error: fwhm1 {message}"])
        assert not out.exists()


class TestHugePoissonMeans:
    """A Poisson mean above numpy's limit is named before the draw, and an
    expectation that overflows float64 where it is computed: exit 2, one
    error line naming the quantity, the input that scaled it and the limit,
    no output file."""

    LIMIT = "above numpy's Poisson limit of 9.22337e+18"
    FLOAT_LIMIT = "above float64's limit of 1.79769e+308"

    @pytest.mark.parametrize(
        "argv, config_text, message",
        [
            (["odmr-synth", "--integration-per-point", "1e300", "--seed", "1"], None,
             f"expected counts per point (integration_per_point 1e+300 s) reach inf, {LIMIT}"),
            (["odmr-synth", "--integration-per-point", "1e14", "--seed", "1"], None,
             "expected counts per point (integration_per_point 1e+14 s) reach 9.44247e+22, "
             + LIMIT),
            (["simulate", "--sample", "--seed", "1"], set_key(CONFIG, "integration_time", "1e300"),
             "expected counts per bin (channel_time 5e+299 s) reach 2.12427e+307, " + LIMIT),
            (["mc", "--tau-c", "9.2", "--seed", "1"], set_key(CONFIG, "integration_time", "1e300"),
             "expected gated counts per channel (channel_time 5e+299 s) reach 5.54687e+307, "
             + LIMIT),
            (["odmr-synth", "--integration-per-point", "1e300"], None,
             "expected counts per point (integration_per_point 1e+300 s) reach inf, "
             + FLOAT_LIMIT),
            (["simulate"], set_key(CONFIG, "integration_time", "1e308"),
             f"expected counts per bin (channel_time 5e+307 s) reach inf, {FLOAT_LIMIT}"),
            (["simulate", "--sample", "--seed", "1"],
             set_key(IRF_CONFIG, "integration_time", "1e300"),
             "expected counts per bin (channel_time 5e+299 s) reach 3.01668e+306, " + LIMIT),
            (["mc", "--tau-c", "9.2", "--seed", "1"],
             set_key(IRF_CONFIG, "integration_time", "1e300"),
             "expected gated counts per channel (channel_time 5e+299 s) reach 5.41347e+307, "
             + LIMIT),
        ],
        ids=["odmr-synth", "odmr-synth-1e14", "simulate-sample", "mc", "odmr-synth-expected",
             "simulate-expected", "simulate-sample-irf", "mc-irf"],
    )
    def test_exits_2_and_writes_nothing(self, config_path, tmp_path, argv, config_text,
                                        message):
        if config_text is not None:
            config_path = tmp_path / "huge.ini"
            config_path.write_text(config_text)
        out = tmp_path / "o.csv"
        done = run_python("-m", "spingate.cli", *argv, "--config", str(config_path),
                          "--out", str(out))
        assert (done.returncode, done.stderr.splitlines()) == (2, [f"error: {message}"])
        assert not out.exists()


class TestFiniteExtremes:
    """A finite setting at an extreme either runs clean or exits 2 with one
    line naming the input it broke, no warning before it and no file. Each
    case below once ended in a traceback or a numpy warning."""

    # CONFIG's integrated background ratio with a 0.3 ns IRF and a period grid
    BASE = CONFIG.replace("c_sat = 0.15", "c_sat = 0.15\nirf_sigma = 0.3") + (
        "period_grid = 40:60:10\n"
    )
    COMMANDS = {
        "gate-sweep": [],
        "rep-sweep": [],
        "joint-opt": [],
        "simulate": [],
        "mc": ["--tau-c", "9.2", "--seed", "1"],
        "odmr-synth": [],
        "hw-sim": ["--delay", "9.2", "--integration", "1e-4", "--seed", "1"],
    }
    UNDERFLOW = ("the background's integral over one period underflows float64 to 0, so no "
                 "amplitude gives an integrated ratio")
    SQUARE = "whose square overflows float64"

    def run(self, tmp_path, text: str, command: str) -> int:
        """The exit code of command on the config text; no file may be left
        where it fails."""
        path, out = tmp_path / "run.ini", tmp_path / "o.csv"
        path.write_text(text)
        code = run_cli(command, "--config", str(path), *self.COMMANDS[command], "--out", str(out))
        assert code == 0 or not out.exists()
        return code

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize(
        "key, value, message",
        [
            # the background integral of the ratio mode divided by 0
            ("rep_rate", "1e300",
             f"background_lifetime 1.7 ns over the 1e-291 ns period: {UNDERFLOW}"),
            ("background_lifetime", "1e300",
             f"background_lifetime 1e+300 ns over the 50 ns period: {UNDERFLOW}"),
            # the EMG tail's Python float power raised OverflowError
            ("irf_sigma", "1e300",
             f"irf_sigma 1e+300 ns over a lifetime of 12 ns is 8.33333e+298, {SQUARE}"),
            ("background_lifetime", "1e-300",
             f"irf_sigma 0.3 ns over a lifetime of 1e-300 ns is 3e+299, {SQUARE}"),
        ],
        ids=["rep-rate", "background-lifetime", "irf-sigma", "short-background-lifetime"],
    )
    def test_model_setting(self, tmp_path, capsys, command, key, value, message):
        assert self.run(tmp_path, set_key(self.BASE, key, value), command) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    INF_PERIOD = ("error: line 10: [train] invalid: rep_rate 1e-300 Hz: the period 1e9 / rep_rate "
                  "overflows float64 to inf ns\n")

    def test_period_past_float64_has_no_bin_count(self, tmp_path, capsys):
        # a 1e-300 Hz train's period is inf ns, and round() of its bin count
        # raised OverflowError; the train is refused before that
        assert self.run(tmp_path, set_key(CONFIG, "rep_rate", "1e-300"), "simulate") == 2
        assert capsys.readouterr().err == self.INF_PERIOD

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "simulate"])
    def test_period_past_float64_refused(self, tmp_path, capsys, command):
        # hw-sim once warned "invalid value encountered in multiply" (0 * inf
        # dark photons) and exited 0 with no events; mc and odmr-synth ran
        # on an inf period
        text = set_key(CONFIG, "rep_rate", "1e-300") + "period_grid = 40:60:10\n"
        assert self.run(tmp_path, text, command) == 2
        assert capsys.readouterr().err == self.INF_PERIOD

    RATE = "detected rates (rep_rate {} Hz) reach inf, above float64's limit of 1.79769e+308"

    @pytest.mark.parametrize(
        "key, command, message",
        [
            ("dark_rate", "gate-sweep", RATE.format("2e+07")),
            ("dark_rate", "rep-sweep", RATE.format("2.5e+07")),
            ("dark_rate", "mc", RATE.format("2e+07")),
            ("dark_rate", "odmr-synth", RATE.format("2e+07")),
            ("background_ratio", "gate-sweep", RATE.format("2e+07")),
            ("background_ratio", "rep-sweep", RATE.format("2.5e+07")),
            # the gated rate is finite; its counts are past the Poisson limit
            ("background_ratio", "mc", "expected gated counts per channel (channel_time 0.1 s) "
             "reach 1.05469e+305, above numpy's Poisson limit of 9.22337e+18"),
            ("background_ratio", "odmr-synth", RATE.format("2e+07")),
        ],
    )
    def test_rate_past_float64(self, tmp_path, capsys, key, command, message):
        # rep_rate times the per-pulse counts overflowed with numpy's warning,
        # and gate-sweep then named channel_time, not the rate
        text = CONFIG.replace("c_sat = 0.15", "c_sat = 0.15\ndark_rate = 0")
        text = set_key(text, key, "1e300") + "period_grid = 40:60:10\n"
        assert self.run(tmp_path, text, command) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "key, message",
        [
            ("dark_rate", "dark_rate = 1e+300 reach 4.08e+301"),
            ("background_ratio", "background = 6.94938e+300, 1.7 reach 5.27346e+298"),
        ],
    )
    def test_hw_sim_poisson_means(self, tmp_path, capsys, key, message):
        # numpy's sampler refused the per-pulse means with a bare "lam value
        # too large"; the line now names the setting that scales them
        text = CONFIG.replace("c_sat = 0.15", "c_sat = 0.15\ndark_rate = 0")
        assert self.run(tmp_path, set_key(text, key, "1e300"), "hw-sim") == 2
        assert capsys.readouterr().err == (
            f"error: expected counts per pulse of [model] {message}, "
            "above numpy's Poisson limit of 9.22337e+18\n"
        )

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_pulse_time_past_the_period(self, tmp_path, capsys, command):
        # simulate and hw-sim warned of numpy overflows, mc and odmr-synth
        # wrote all-zero outputs, and gate-sweep found an undefined contrast
        text = self.BASE.replace("c_sat = 0.15", "c_sat = 0.15\npulse_time = 1e300")
        assert self.run(tmp_path, text, command) == 2
        assert capsys.readouterr().err == (
            "error: line 8: [model] invalid: pulse_time 1e+300 ns must lie within the 50 ns "
            "period\n"
        )

    @pytest.mark.parametrize("command", ["gate-sweep", "rep-sweep", "joint-opt"])
    def test_sweep_counts_past_float64(self, tmp_path, capsys, command):
        # the counts overflowed float64 with numpy's warning, and the sweep then
        # failed on its own record's "optimum index does not attain the maximum SNR"
        text = set_key(CONFIG, "integration_time", "1e300") + "period_grid = 40:60:10\n"
        assert self.run(tmp_path, text, command) == 2
        assert capsys.readouterr().err == (
            "error: expected counts of both channels (channel_time 5e+299 s) reach inf, "
            "above float64's limit of 1.79769e+308\n"
        )

    def test_far_frequency_span_reads_the_baseline(self, config_path, tmp_path):
        # past the first point every detuning's square overflows float64, so
        # both dips are exactly 0 and each count is the MW-off level; numpy
        # once warned of the overflow
        out = tmp_path / "far.csv"
        done = run_python("-m", "spingate.cli", "odmr-synth", "--config", config_path,
                          "--f-stop", "1e300", "--out", str(out))
        assert (done.returncode, done.stderr) == (0, "")
        run = config.load_config(config_path)
        counts = read_table(str(out)).data["counts"]
        assert counts.size == 121
        assert np.all(counts[1:] == steady_rate(run.model, "ms0", 0.0, run.train) * 0.1)

    @pytest.mark.parametrize("dip", ["1", "2"])
    def test_far_center_is_a_dip_of_depth_zero(self, config_path, tmp_path, dip):
        far, flat = tmp_path / "far.csv", tmp_path / "flat.csv"
        done = run_python("-m", "spingate.cli", "odmr-synth", "--config", config_path,
                          f"--center{dip}", "1e300", "--out", str(far))
        assert (done.returncode, done.stderr) == (0, "")
        assert run_cli("odmr-synth", "--config", config_path, f"--depth{dip}", "0",
                       "--out", str(flat)) == 0
        assert far.read_bytes() == flat.read_bytes()


class TestOutOfMemory:
    """A request too large for the memory available ends in one error line
    and exit 2, with nothing written, not in numpy's traceback (exit 1)."""

    @pytest.mark.parametrize(
        "raised, line",
        [
            (MemoryError("Unable to allocate 1.46 TiB for an array with shape "
                         "(100000000000, 2) and data type int64"),
             "error: out of memory: Unable to allocate 1.46 TiB for an array with shape "
             "(100000000000, 2) and data type int64"),
            (MemoryError(), "error: out of memory"),
        ],
        ids=["numpy", "bare"],
    )
    def test_memory_error_is_one_line(self, config_path, tmp_path, monkeypatch, capsys,
                                      raised, line):
        from spingate import sweep

        def handler(args, run, seed):
            raise raised

        monkeypatch.setattr(sweep, "cmd_gate_sweep", handler)
        out = tmp_path / "o.csv"
        assert run_cli("gate-sweep", "--config", config_path, "--out", str(out)) == 2
        assert capsys.readouterr().err == line + "\n"
        assert not out.exists()

    # A 2 GB address-space cap, set in the child alone: an interpreter with
    # numpy and spingate loaded needs a few hundred MB of it, and each request
    # below asks numpy for one array of 74 GiB or more.
    CAP = 2 * 1024**3

    @pytest.mark.skipif(os.name != "posix", reason="RLIMIT_AS is POSIX-only")
    @pytest.mark.parametrize(
        "argv, exact",
        [
            ("mc --config {config} --tau-c 9.2 --trials 100000000000 --seed 1",
             "error: out of memory: Unable to allocate 1.46 TiB for an array with shape "
             "(100000000000, 2) and data type int64"),
            ("snr-map --input {p}/scan.csv --channel gated --factor 100000", None),
            ("simulate --config {config} --bin-width 1e-9", None),
            ("odmr-synth --config {config} --points 10000000000", None),
            ("gate-sweep --config {p}/fine.ini", None),
        ],
        ids=["mc", "snr-map", "simulate", "odmr-synth", "gate-sweep"],
    )
    def test_oversized_request_under_an_address_space_cap(self, config_path, tmp_path, argv,
                                                          exact):
        import resource

        (tmp_path / "fine.ini").write_text(
            CONFIG.replace("tau_c_step = 0.1", "tau_c_step = 1e-12")
        )
        write_scan(tmp_path / "scan.csv")
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = self.CAP if hard == resource.RLIM_INFINITY else min(self.CAP, hard)
        out = tmp_path / "o.csv"
        done = run_python(
            "-m", "spingate.cli", *argv.format(config=config_path, p=tmp_path).split(),
            "--out", str(out), timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, hard)),
        )
        assert done.returncode == 2, done.stderr
        [line] = done.stderr.splitlines()
        assert re.fullmatch(r"error: out of memory: Unable to allocate [\d.]+ [GT]iB for an "
                            r"array with shape \([\d, ]+\) and data type \w+", line), line
        assert exact is None or line == exact
        assert not out.exists()


class TestImportCost:
    """No command loads scipy: IRF-free runs never import it, and the IRF
    kernel's special functions are numpy arithmetic. The records generate no
    code per class, so the package does not load dataclasses either."""

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
    # a None entry in sys.modules makes every import of scipy raise ImportError;
    # each argument is one command line
    NO_SCIPY = textwrap.dedent(
        """\
        import sys
        sys.modules["scipy"] = None
        from spingate.cli import main
        print(*(main(line.split()) for line in sys.argv[1:]))
        """
    )
    # every model command on IRF_CONFIG, mc also at mw_duty 1e-9, where some
    # trials draw no count, then the read commands on the files written
    IRF_RUNS = (
        "gate-sweep --config {p}/irf.ini --out {p}/gate.csv",
        "rep-sweep --config {p}/irf.ini --out {p}/rep.csv",
        "joint-opt --config {p}/irf.ini --out {p}/joint.csv",
        "simulate --config {p}/irf.ini --sample --seed 1 --out {p}/hist.csv",
        "mc --config {p}/irf.ini --tau-c 9.2 --trials 1000 --seed 1 --out {p}/mc.csv",
        "mc --config {p}/dim.ini --tau-c 9.2 --seed 1 --out {p}/dim.csv",
        "hw-sim --config {p}/irf.ini --delay 9.2 --jitter 0.5 --integration 0.001 --seed 1 "
        "--out {p}/hw.csv",
        "odmr-synth --config {p}/irf.ini --points 5001 --seed 1 --out {p}/spectrum.csv",
        "gate-apply --input {p}/hist.csv --tau-c 9.2 --out {p}/gated.csv",
        "odmr-fit --input {p}/spectrum.csv --out {p}/fit.csv",
    )

    def test_sigma_zero_gate_sweep_leaves_scipy_unloaded(self, config_path, tmp_path):
        lines = run_script(self.SCRIPT, config_path, str(tmp_path / "sweep.csv"))
        assert lines == ["False", "0 False"]

    def test_irf_commands_run_without_scipy(self, tmp_path):
        (tmp_path / "irf.ini").write_text(IRF_CONFIG + "period_grid = 40:60:10\n")
        (tmp_path / "dim.ini").write_text(set_key(IRF_CONFIG, "mw_duty", "1e-9"))
        lines = run_script(self.NO_SCIPY, *(run.format(p=tmp_path) for run in self.IRF_RUNS))
        assert lines == [" ".join("0" * len(self.IRF_RUNS))]
        assert read_histogram(str(tmp_path / "hist.csv")).counts.sum() > 0

    def test_cli_import_leaves_dataclasses_unloaded(self):
        script = "import sys, spingate.cli; print('dataclasses' in sys.modules)"
        assert run_script(script) == ["False"]


# The submodules each command loads; "loaded" means that a lazily
# registered module has run, which type() tells without triggering it.
LOADED = textwrap.dedent(
    """\
    import sys, types
    import spingate.cli
    {before}
    code = spingate.cli.main(sys.argv[1:])
    loaded = {{n for n, m in sys.modules.items() if type(m) is types.ModuleType}}
    names = [n for n in sys.modules if n.startswith("spingate.")]
    print(code, *sorted(n[9:] for n in names if n in loaded))
    print(*sorted(n[9:] for n in names if n not in loaded))
    """
)
# what every command with a --config loads: the config builds the model
MODEL_MODULES = "cli config decay errors gating presets record report"
# (id, command line, the submodules it loads)
COMMAND_MODULES = [
    ("gate-sweep", "gate-sweep --config {p}/run.ini", "metrics sweep " + MODEL_MODULES),
    ("rep-sweep", "rep-sweep --config {p}/run.ini", "metrics sweep " + MODEL_MODULES),
    ("joint-opt", "joint-opt --config {p}/run.ini", "metrics sweep " + MODEL_MODULES),
    ("simulate", "simulate --config {p}/run.ini", "histogram " + MODEL_MODULES),
    ("simulate-sample", "simulate --config {p}/run.ini --sample --seed 1",
     "acquisition histogram metrics " + MODEL_MODULES),
    ("mc", "mc --config {p}/run.ini --tau-c 9.2 --trials 10 --seed 1",
     "acquisition metrics " + MODEL_MODULES),
    ("hw-sim", "hw-sim --config {p}/run.ini --delay 9.2 --integration 1e-4 --seed 1",
     "acquisition metrics " + MODEL_MODULES),
    ("odmr-synth", "odmr-synth --config {p}/run.ini", "odmr " + MODEL_MODULES),
    # the two readers that gate or fit a file load no decay model
    ("odmr-fit", "odmr-fit --input {p}/spectrum.csv",
     "cli errors gating odmr reader record report"),
    ("gate-apply", "gate-apply --input {p}/hist.csv --tau-c 9.2",
     "cli errors gating histogram reader record report"),
    ("snr-map", "snr-map --input {p}/scan.csv --channel gated",
     "cli errors mapping metrics reader record report"),
]


class TestLazyModules:
    """A command loads only the submodules it runs, while every submodule
    stays in sys.modules from the package's import on: the benchmark's
    tracer looks them up there to wrap their functions."""

    ALL = sorted(
        name[:-3]
        for name in os.listdir(os.path.dirname(os.path.abspath(spingate.__file__)))
        if name.endswith(".py") and name != "__init__.py"
    )

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """A config with a rate grid, and the files the read commands take."""
        path = tmp_path_factory.mktemp("lazy")
        config = str(path / "run.ini")
        with open(config, "w") as handle:
            handle.write(CONFIG + "rate_grid = 1e7, 2e7\n")
        assert run_cli("simulate", "--config", config, "--out", str(path / "hist.csv")) == 0
        assert run_cli("odmr-synth", "--config", config, "--seed", "1",
                       "--out", str(path / "spectrum.csv")) == 0
        write_scan(path / "scan.csv")
        return path

    def run(self, tmp_path, argv, before="pass") -> tuple[list[str], list[str]]:
        """The exit code and the submodules loaded, and those left unloaded."""
        lines = run_script(LOADED.format(before=before), *argv, "--out", str(tmp_path / "o.csv"))
        # the last two lines: --version prints the version first
        loaded, unloaded = (line.split() for line in lines[-2:])
        return loaded, unloaded

    @pytest.mark.parametrize(
        "argv, modules",
        [(argv, modules) for _, argv, modules in COMMAND_MODULES],
        ids=[name for name, _, _ in COMMAND_MODULES],
    )
    def test_command_loads_only_what_it_runs(self, inputs, tmp_path, argv, modules):
        loaded, unloaded = self.run(tmp_path, argv.format(p=inputs).split())
        assert loaded[0] == "0"
        assert loaded[1:] == sorted(modules.split())
        assert sorted(loaded[1:] + unloaded) == self.ALL

    @pytest.mark.parametrize(
        "module, commands",
        [
            ("histogram", {"simulate", "simulate-sample", "gate-apply"}),
            ("reader", {"odmr-fit", "gate-apply", "snr-map"}),
        ],
    )
    def test_only_its_commands_load_a_module(self, module, commands):
        # the sweeps, mc, hw-sim and odmr-synth never build a histogram, and only
        # the commands with an --input read a file
        loading = {name for name, _, modules in COMMAND_MODULES if module in modules.split()}
        assert loading == commands

    def test_cli_import_registers_every_submodule(self, tmp_path):
        # --version exits in the parser, before any handler runs
        loaded, unloaded = self.run(tmp_path, ["--version"])
        assert loaded == ["0", "cli"]
        assert sorted(loaded[1:] + unloaded) == self.ALL

    def test_attribute_set_before_the_load_reaches_the_command(self, inputs, tmp_path):
        before = "from spingate import odmr; assert type(odmr) is not types.ModuleType\n"
        before += "odmr.MAX_ITERATIONS = 1"
        loaded, _ = self.run(tmp_path, ["odmr-fit", "--input", str(inputs / "spectrum.csv")],
                             before=before)
        assert loaded[0] == "3"
        assert "odmr" in loaded

    def test_readme_library_example_runs(self, capsys):
        # the example imports package-level names only, and prints the bulk
        # model's optimal onset and enhancement factor
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "README.md"), encoding="utf-8") as handle:
            text = handle.read()
        block = re.search(r"^```python\n(.*?)^```$", text, re.S | re.M).group(1)
        imports = [
            node for node in ast.walk(ast.parse(block))
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        assert imports and all(
            isinstance(node, ast.ImportFrom) and node.module == "spingate"
            and {alias.name for alias in node.names} <= set(spingate.__all__)
            for node in imports
        )
        exec(block, {})
        onset, ef = map(float, capsys.readouterr().out.split())
        assert onset == pytest.approx(9.2)
        assert ef == pytest.approx(2.225, abs=5e-4)

    def test_every_exported_name_resolves(self):
        for name in spingate.__all__:
            module = sys.modules[spingate.__name__ + "." + spingate._HOME[name]]
            assert getattr(spingate, name) is getattr(module, name)
        assert set(spingate.__all__) <= set(dir(spingate))
        with pytest.raises(AttributeError, match="no_such_name"):
            spingate.no_such_name
