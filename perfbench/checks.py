"""Output validators and the closed-form physics they compare against.

Each validator reads one output file with this module's own parser and
returns a Verdict: whether the output is right, why not, and the size of
the work it represents (rows, bytes, onsets, events, ...). Tolerances admit
re-plumbed random streams and last-digit changes, not wrong physics:

* sweeps:       SNR columns within 1e-9 relative of the stored reference,
                optimum indices exact;
* hw-sim:       hardware and offline gating identical, row count equal to
                both kept counts, event and kept counts within 5 sqrt(N) of
                the expectation computed here;
* mc:           analytic SNR within 1e-9 relative of the closed form here,
                Monte-Carlo mean within 5 standard errors of it;
* odmr-fit:     centres within 0.5 MHz of the generating truth;
* gate-apply:   gated counts equal to the sum of the generated histogram;
* snr-map:      values at the original nodes equal (off-on)/sqrt(off+on)
                within 1e-12 relative;
* simulate / odmr-synth: sampled totals within 5 sqrt(N) of the expectation.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import workloads as wl

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

SWEEP_REL_TOL = 1e-9
ANALYTIC_REL_TOL = 1e-9
NODE_REL_TOL = 1e-12
SIGMAS = 5.0
CENTER_TOL_HZ = 0.5e6


@dataclass
class Verdict:
    ok: bool
    message: str = ""
    work: dict = field(default_factory=dict)


class Rejected(Exception):
    """An output failed a check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Rejected(message)


# ---------------------------------------------------------------------------
# Closed-form model, independent of spingate.


def _phi(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def window_counts(amplitude: float, tau: float, sigma: float, t0: float, t1: float) -> float:
    """Counts of A exp(-t/tau), blurred by a N(0, sigma) response, in [t0, t1).

    With sigma > 0 this is A tau times the difference of ex-Gaussian CDFs,
    F(x) = Phi(x/sigma) - exp(sigma^2/(2 tau^2) - x/tau) Phi(x/sigma - sigma/tau).
    """
    if sigma == 0.0:
        t0 = max(t0, 0.0)
        if t1 <= t0:
            return 0.0
        return amplitude * tau * (math.exp(-t0 / tau) - math.exp(-t1 / tau))

    def cdf(x: float) -> float:
        return _phi(x / sigma) - math.exp(
            0.5 * (sigma / tau) ** 2 - x / tau
        ) * _phi(x / sigma - sigma / tau)

    return amplitude * tau * (cdf(t1) - cdf(t0))


def background_amplitude() -> float:
    period = 1e9 / wl.REP_RATE
    signal = window_counts(1.0, wl.SPIN0_TAU, 0.0, 0.0, period)
    return wl.BG_RATIO * signal / window_counts(1.0, wl.BG_TAU, 0.0, 0.0, period)


def pulse_counts(weight: float, sigma: float, t0: float, t1: float) -> float:
    """Per-pulse counts of the spin mixture (1-w) ms0 + w ms1 plus background."""
    return (
        (1.0 - weight) * window_counts(1.0, wl.SPIN0_TAU, sigma, t0, t1)
        + weight * window_counts(1.0, wl.SPIN1_TAU, sigma, t0, t1)
        + window_counts(background_amplitude(), wl.BG_TAU, sigma, t0, t1)
    )


def analytic_snr(sigma: float, tau_c: float) -> float:
    period = 1e9 / wl.REP_RATE
    per_channel = wl.REP_RATE * wl.INTEGRATION_TIME * wl.MW_DUTY
    n0 = per_channel * pulse_counts(0.0, sigma, tau_c, period)
    n1 = per_channel * pulse_counts(wl.C_SAT, sigma, tau_c, period)
    return (n0 - n1) / math.sqrt(n0 + n1)


def _within_poisson(observed: float, expected: float, what: str) -> None:
    _require(
        abs(observed - expected) <= SIGMAS * math.sqrt(expected),
        f"{what} {observed} is not within {SIGMAS} sqrt(N) of {expected:.6g}",
    )


# ---------------------------------------------------------------------------
# Columnar files, parsed here rather than by spingate.


class Table:
    def __init__(self, path: str, header: bool = True):
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        self.bytes = os.path.getsize(path)
        self.meta: dict[str, str] = {}
        i = 0
        while i < len(lines) and lines[i].startswith("#"):
            key, _, value = lines[i][1:].partition("=")
            self.meta[key.strip()] = value.strip()
            i += 1
        if header:
            _require(i < len(lines), f"{path}: no column header")
            self.columns = lines[i].split(",")
            i += 1
        else:
            self.columns = ["bin_start_ns", "counts"]
        self.lines = lines[i:]

    def __len__(self) -> int:
        return len(self.lines)

    def text(self, name: str) -> list[str]:
        _require(name in self.columns, f"missing column {name!r}")
        j = self.columns.index(name)
        return [line.split(",")[j] for line in self.lines]

    def col(self, name: str) -> np.ndarray:
        return np.array(self.text(name), dtype=float)

    def num(self, key: str) -> float:
        _require(key in self.meta, f"missing metadata {key!r}")
        return float(self.meta[key])

    def work(self, **extra) -> dict:
        return {"rows": len(self), "bytes": self.bytes, **extra}


def _rel_close(got: np.ndarray, want: np.ndarray, tol: float, what: str) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{what}: {got.size} values, expected {want.size}")
    err = np.abs(got - want)
    bad = err > tol * np.abs(want)
    _require(not np.any(bad), f"{what}: {int(bad.sum())} values off by more than {tol:g} relative")


# ---------------------------------------------------------------------------
# Validators, by the name a workload Command gives in `check`.


def _gate_grid_size(period: float, step: float) -> int:
    return int(np.arange(0.0, 0.8 * period + 0.5 * step, step).size)


def check_sweep(t: Table, reference: dict, key: str, step: float) -> dict:
    ref = reference[key]
    if "snr" in ref:  # gate-sweep
        _rel_close(t.col("snr"), ref["snr"], SWEEP_REL_TOL, "snr")
        tau = t.col("tau_c_ns")
        _require(np.allclose(tau, ref["tau_c_ns"], rtol=0, atol=1e-9), "tau_c_ns grid differs")
        _require(int(np.argmax(t.col("snr"))) == ref["optimum"], "SNR maximum moved")
        _require(round(t.num("optimal_tau_c_ns") / step) == ref["optimum"], "optimal_tau_c_ns moved")
        return t.work(onsets=len(t), rates=1)
    _rel_close(t.col("rate_hz"), ref["rate_hz"], 1e-12, "rate_hz")
    _rel_close(t.col("snr_gated"), ref["snr_gated"], SWEEP_REL_TOL, "snr_gated")
    _rel_close(t.col("snr_ungated"), ref["snr_ungated"], SWEEP_REL_TOL, "snr_ungated")
    index = [round(v / step) for v in t.col("tau_c_opt_ns")]
    _require(index == ref["tau_c_opt_index"], "per-rate optimal onsets moved")
    if "optimal_rate_hz" in ref:  # joint-opt
        _require(round(t.num("optimal_tau_c_ns") / step) == ref["optimal_tau_c_index"],
                 "joint optimal onset moved")
        _rel_close([t.num("optimal_rate_hz")], [ref["optimal_rate_hz"]], 1e-12, "optimal_rate_hz")
    onsets = sum(_gate_grid_size(1e9 / r, step) for r in ref["rate_hz"])
    return t.work(onsets=onsets, rates=len(t))


def check_sampled_histogram(t: Table, reference: dict, irf_sigma: float, bin_width: float) -> dict:
    period = 1e9 / wl.REP_RATE
    n_bins = round(period / bin_width)
    _require(len(t) == n_bins, f"{len(t)} bins, expected {n_bins}")
    starts = t.col("bin_start_ns")
    _require(np.allclose(starts, np.arange(n_bins) * bin_width, rtol=1e-12, atol=0),
             "bin starts off the grid")
    counts = t.text("counts")
    _require(all(c.isdigit() for c in counts), "sampled counts must be non-negative integers")
    total = sum(int(c) for c in counts)
    pulses = wl.REP_RATE * wl.INTEGRATION_TIME * wl.MW_DUTY
    _within_poisson(total, pulses * pulse_counts(0.0, irf_sigma, 0.0, period), "sampled total")
    return t.work()


def check_mc(t: Table, reference: dict, irf_sigma: float, tau_c: float, trials: int) -> dict:
    _require(len(t) == trials and int(t.num("trials")) == trials, "trial count differs")
    analytic = t.num("analytic_snr")
    _rel_close([analytic], [analytic_snr(irf_sigma, tau_c)], ANALYTIC_REL_TOL, "analytic_snr")
    mean, std = t.num("mean_snr"), t.num("std_snr")
    _require(abs(mean - analytic) <= SIGMAS * std / math.sqrt(trials),
             f"MC mean {mean} is not within {SIGMAS} standard errors of {analytic}")
    _rel_close([np.mean(t.col("snr"))], [mean], 1e-12, "mean of the snr column")
    return t.work(trials=trials)


def check_hw_sim(t: Table, reference: dict, integration: float, delay: float,
                 toggle_rate: float) -> dict:
    _require(t.meta.get("identical_to_offline") == "1", "hardware gate differs from offline")
    kept = int(t.num("n_kept_hw"))
    _require(kept == int(t.num("n_kept_offline")) == len(t), "kept counts disagree with rows")
    period = 1e9 / wl.REP_RATE
    n_pulses = round(integration * wl.REP_RATE)
    half_toggle = 0.5e9 / toggle_rate
    n_on = int(np.sum(np.floor(np.arange(n_pulses) * period / half_toggle) % 2 == 1))
    weights = ((n_pulses - n_on, 0.0), (n_on, wl.C_SAT))
    expected_events = sum(n * pulse_counts(w, 0.0, 0.0, period) for n, w in weights)
    expected_kept = sum(n * pulse_counts(w, 0.0, delay, period) for n, w in weights)
    events = int(t.num("n_events"))
    _within_poisson(events, expected_events, "n_events")
    _within_poisson(kept, expected_kept, "n_kept")
    stamps = t.col("timestamp_ns")
    _require(bool(np.all(np.diff(stamps) >= 0)), "timestamps not sorted")
    phase = stamps % period
    _require(bool(np.all((phase >= delay) & (phase < period))), "kept event outside the gate")
    _require(set(t.text("channel")) <= {"mw_off", "mw_on"}, "unknown channel label")
    return t.work(events=events)


def check_odmr_fit(t: Table, reference: dict, centers: list) -> dict:
    _require(len(t) == 1, "fit output must have one row")
    fitted = sorted([t.col("center1_hz")[0], t.col("center2_hz")[0]])
    for got, want in zip(fitted, sorted(centers)):
        _require(abs(got - want) <= CENTER_TOL_HZ, f"centre {got} Hz is not within 0.5 MHz of {want}")
    return t.work(points=wl.SPECTRUM_POINTS)


def check_gate_apply(t: Table, reference: dict, gated_sum: int, n_rows: int) -> dict:
    _require(len(t) == n_rows, f"{len(t)} rows, expected {n_rows}")
    _require(t.num("gated_counts") == gated_sum, "gated_counts differs from the input sum")
    _require(sum(int(c) for c in t.text("counts")) == gated_sum, "rows do not sum to gated_counts")
    return t.work(bins_in=wl.HIST_BINS)


def check_snr_map(t: Table, reference: dict, node_snr: np.ndarray, factor: int) -> dict:
    ny, nx = node_snr.shape
    _require(len(t) == ny * nx * factor**2, "map size differs from the scan times the factor")
    values = t.col("snr").reshape(ny * factor, nx * factor)
    _require(bool(np.all(np.isfinite(values))), "non-finite SNR values")
    _rel_close(values[::factor, ::factor], node_snr, NODE_REL_TOL, "SNR at original nodes")
    return t.work(pixels_in=node_snr.size, pixels_out=len(t))


def check_odmr_synth(t: Table, reference: dict, points: int) -> dict:
    _require(len(t) == points, f"{len(t)} points, expected {points}")
    freqs = np.linspace(2.84e9, 2.90e9, points)
    _rel_close(t.col("freq_hz"), freqs, 1e-15, "freq_hz")
    period = 1e9 / wl.REP_RATE
    pulses = wl.REP_RATE * t.num("integration_per_point_s")
    n0 = pulses * pulse_counts(0.0, 0.0, 0.0, period)
    n1 = pulses * pulse_counts(1.0, 0.0, 0.0, period)
    # odmr-synth's default resonances: 2.865 / 2.875 GHz, 8 MHz wide, 0.3 deep
    p = sum(0.3 * wl._lorentz(freqs, c, 8e6) for c in (2.865e9, 2.875e9))
    _within_poisson(float(np.sum(t.col("counts"))), float(np.sum((1 - p) * n0 + p * n1)),
                    "spectrum total")
    return t.work()


VALIDATORS = {
    "sweep": check_sweep,
    "sampled_histogram": check_sampled_histogram,
    "mc": check_mc,
    "hw_sim": check_hw_sim,
    "odmr_fit": check_odmr_fit,
    "gate_apply": check_gate_apply,
    "snr_map": check_snr_map,
    "odmr_synth": check_odmr_synth,
}

HEADERLESS = {"sampled_histogram"}


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def validate(command: wl.Command, workdir: str, reference: dict) -> Verdict:
    """Check one command's output file; never raises on a bad output."""
    path = os.path.join(workdir, command.out)
    try:
        table = Table(path, header=command.check not in HEADERLESS)
        work = VALIDATORS[command.check](table, reference, **command.params)
    except Rejected as exc:
        return Verdict(False, str(exc))
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return Verdict(False, f"unreadable output: {exc!r}")
    return Verdict(True, "", work)
