"""Workload definitions: configs, seeded inputs and command sequences.

Every workload models the same bulk emitter (12/8 ns spin lifetimes over a
1.7 ns background at 3:1 integrated counts, 20 MHz excitation). The
workloads differ in which layer of spingate does most of the work:

* irf-sweep:  a Gaussian IRF, so gated counts go through adaptive quadrature.
* grid-sweep: no IRF but fine onset grids and 21 repetition rates, so the
              per-onset Python loop in the sweeps dominates.
* events:     acquisition: event-level hw-sim with a ~280k-row report write,
              and the Monte-Carlo shot-noise check at sigma = 0.
* readout:    read-side parsing of large inputs, the ODMR fit and SNR map,
              and four interpreter imports per pass.

Inputs for `readout` are drawn from the workload seed and written by this
module's own writer, never by spingate, so a program change cannot alter
what the benchmark feeds it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

# Model and acquisition constants shared with the validators.
SPIN0_TAU = 12.0  # ns
SPIN1_TAU = 8.0  # ns
BG_TAU = 1.7  # ns
BG_RATIO = 3.0  # background:spin-0 counts over one period
C_SAT = 0.15
REP_RATE = 20e6  # Hz
INTEGRATION_TIME = 10.0  # s, both MW channels together
MW_DUTY = 0.5

HW_INTEGRATION = 0.0025  # s of photon stream for hw-sim
HW_DELAY = 9.2  # ns
HW_TOGGLE_RATE = 50.0  # Hz, the hw-sim default

SPECTRUM_POINTS = 100_000
SPECTRUM_FWHM = 8e6  # Hz
SPECTRUM_DEPTHS = (0.03, 0.025)
SPECTRUM_BASELINE = 1e5  # counts per point
HIST_BINS = 100_000  # 0.5 ps bins over the 50 ns period
HIST_MEAN_PER_BIN = 50.0
GATE_APPLY_TAU_C = 9.2  # ns
SCAN_SIZE = 150
SNR_MAP_FACTOR = 2

MC_TAU_C = 9.0  # ns

IRF_SIGMA = 0.3  # ns
IRF_STEP = 2.0  # ns, onset step of the irf-sweep gate sweep
GRID_STEP = 0.1  # ns
GRID_PERIODS = "20:100:4"  # ns, 21 repetition periods


def model_ini(irf_sigma: float, tau_c_step: float, period_grid: str | None = None) -> str:
    """INI text for the shared bulk model with one sweep grid."""
    lines = [
        "[model]",
        f"spin0 = 1.0, {SPIN0_TAU}",
        f"spin1 = 1.0, {SPIN1_TAU}",
        f"background_ratio = {BG_RATIO}",
        "background_ratio_mode = integrated",
        f"background_lifetime = {BG_TAU}",
        f"irf_sigma = {irf_sigma}",
        f"c_sat = {C_SAT}",
        "",
        "[train]",
        f"rep_rate = {REP_RATE}",
        "",
        "[sweep]",
        f"integration_time = {INTEGRATION_TIME}",
        f"mw_duty = {MW_DUTY}",
        f"tau_c_step = {tau_c_step}",
    ]
    if period_grid is not None:
        lines.append(f"period_grid = {period_grid}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Command:
    """One spingate invocation and how to check what it wrote.

    check names a validator in checks.VALIDATORS; params go to it as keyword
    arguments.
    """

    name: str  # spingate subcommand
    argv: tuple[str, ...]  # arguments after the subcommand, paths relative to the work dir
    out: str
    check: str
    params: dict = field(default_factory=dict)

    @property
    def full_argv(self) -> list[str]:
        return [self.name, *self.argv, "--out", self.out]


@dataclass(frozen=True)
class Workload:
    files: dict  # relative path -> text, written before timing
    commands: tuple[Command, ...]


def build(name: str, seed: int) -> Workload:
    return _FACTORIES[name](seed)


def _irf_sweep(seed: int) -> Workload:
    sigma = IRF_SIGMA
    return Workload(
        files={"irf.ini": model_ini(sigma, IRF_STEP)},
        commands=(
            Command("gate-sweep", ("--config", "irf.ini"), "gate.csv", "sweep",
                    {"key": "irf-sweep/gate-sweep", "step": IRF_STEP}),
            Command("simulate", ("--config", "irf.ini", "--sample", "--seed", str(seed)),
                    "hist.csv", "sampled_histogram", {"irf_sigma": sigma, "bin_width": 0.1}),
            Command("mc", ("--config", "irf.ini", "--tau-c", str(MC_TAU_C), "--trials", "1000",
                           "--seed", str(seed)), "mc.csv", "mc",
                    {"irf_sigma": sigma, "tau_c": MC_TAU_C, "trials": 1000}),
        ),
    )


def _grid_sweep(seed: int) -> Workload:
    return Workload(
        files={"grid.ini": model_ini(0.0, GRID_STEP, GRID_PERIODS)},
        commands=(
            Command("gate-sweep", ("--config", "grid.ini"), "gate.csv", "sweep",
                    {"key": "grid-sweep/gate-sweep", "step": GRID_STEP}),
            Command("rep-sweep", ("--config", "grid.ini"), "rep.csv", "sweep",
                    {"key": "grid-sweep/rep-sweep", "step": GRID_STEP}),
            Command("joint-opt", ("--config", "grid.ini"), "joint.csv", "sweep",
                    {"key": "grid-sweep/joint-opt", "step": GRID_STEP}),
        ),
    )


def _events(seed: int) -> Workload:
    return Workload(
        files={"events.ini": model_ini(0.0, 0.1)},
        commands=(
            Command("hw-sim", ("--config", "events.ini", "--integration", str(HW_INTEGRATION),
                               "--delay", str(HW_DELAY), "--seed", str(seed)),
                    "events.csv", "hw_sim",
                    {"integration": HW_INTEGRATION, "delay": HW_DELAY,
                     "toggle_rate": HW_TOGGLE_RATE}),
            Command("mc", ("--config", "events.ini", "--tau-c", str(MC_TAU_C), "--trials",
                           "2000", "--seed", str(seed)), "mc.csv", "mc",
                    {"irf_sigma": 0.0, "tau_c": MC_TAU_C, "trials": 2000}),
        ),
    )


def _readout(seed: int) -> Workload:
    spectrum_rng, hist_rng, scan_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    spectrum, centers = _spectrum_text(spectrum_rng)
    histogram, gated_sum = _histogram_text(hist_rng)
    scan, node_snr = _scan_text(scan_rng)
    return Workload(
        files={
            "readout.ini": model_ini(0.0, 0.1),
            "spectrum.csv": spectrum,
            "hist.csv": histogram,
            "scan.csv": scan,
        },
        commands=(
            Command("odmr-fit", ("--input", "spectrum.csv"), "fit.csv", "odmr_fit",
                    {"centers": centers}),
            Command("gate-apply", ("--input", "hist.csv", "--tau-c", str(GATE_APPLY_TAU_C)),
                    "gated.csv", "gate_apply",
                    {"gated_sum": gated_sum, "n_rows": HIST_BINS - _gate_bin()}),
            Command("snr-map", ("--input", "scan.csv", "--channel", "gated", "--factor",
                                str(SNR_MAP_FACTOR)), "map.csv", "snr_map",
                    {"node_snr": node_snr, "factor": SNR_MAP_FACTOR}),
            Command("odmr-synth", ("--config", "readout.ini", "--points", "2001", "--seed",
                                   str(seed)), "synth.csv", "odmr_synth", {"points": 2001}),
        ),
    )


_FACTORIES = {
    "irf-sweep": _irf_sweep,
    "grid-sweep": _grid_sweep,
    "events": _events,
    "readout": _readout,
}


def write_files(workload: Workload, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for rel, text in workload.files.items():
        with open(os.path.join(directory, rel), "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# Seeded inputs in spingate's columnar text format, written independently.


def _cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _table(metadata: dict, columns, rows) -> str:
    lines = [f"# {k}={v}" for k, v in metadata.items()]
    if columns is not None:
        lines.append(",".join(columns))
    lines.extend(",".join(_cell(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def _lorentz(f, center, fwhm):
    half_sq = (0.5 * fwhm) ** 2
    return half_sq / ((f - center) ** 2 + half_sq)


def _spectrum_text(rng) -> tuple[str, list[float]]:
    """Noisy double-Lorentzian spectrum; centers jitter by up to 1 MHz."""
    freqs = np.linspace(2.84e9, 2.90e9, SPECTRUM_POINTS)
    centers = [2.865e9 + rng.uniform(-1e6, 1e6), 2.875e9 + rng.uniform(-1e6, 1e6)]
    dip = sum(d * _lorentz(freqs, c, SPECTRUM_FWHM) for d, c in zip(SPECTRUM_DEPTHS, centers))
    counts = rng.poisson(SPECTRUM_BASELINE * (1.0 - dip))
    meta = {"integration_per_point_s": "0.1", "gate_start_ns": "none", "gate_end_ns": "none"}
    rows = zip(freqs.tolist(), counts.tolist())
    return _table(meta, ("freq_hz", "counts"), rows), centers


def _gate_bin() -> int:
    return round(GATE_APPLY_TAU_C / (1e9 / REP_RATE / HIST_BINS))


def _histogram_text(rng) -> tuple[str, int]:
    """Sampled decay histogram; returns the text and the counts from the gate bin on."""
    period = 1e9 / REP_RATE
    bin_width = period / HIST_BINS
    edges = np.arange(HIST_BINS + 1) * bin_width
    shape = np.zeros(HIST_BINS)
    for amplitude, tau in ((1.0, SPIN0_TAU), (2.0, BG_TAU)):
        decay = np.exp(-edges / tau)
        shape += amplitude * tau * (decay[:-1] - decay[1:])
    counts = rng.poisson(shape * (HIST_MEAN_PER_BIN * HIST_BINS / shape.sum()))
    meta = {
        "bin_width_ns": format(bin_width, ".17g"),
        "rep_rate_hz": format(REP_RATE, ".17g"),
        "integration_s": "1",
        "channel": "mw_off",
    }
    starts = (np.arange(HIST_BINS) * bin_width).tolist()
    text = _table(meta, None, zip(starts, counts.tolist()))
    return text, int(counts[_gate_bin():].sum())


def _scan_text(rng) -> tuple[str, np.ndarray]:
    """150x150 scan: smooth brightness pattern, gated and ungated count planes.

    Also returns the gated SNR (off - on)/sqrt(off + on) at each pixel.
    """
    n = SCAN_SIZE
    yy, xx = np.mgrid[0:n, 0:n] / n
    phase = rng.uniform(0, 2 * np.pi, 2)
    bright = 1.0 + 0.5 * np.sin(6.0 * xx + phase[0]) * np.cos(4.0 * yy + phase[1])
    planes = (
        rng.poisson(2000.0 * bright),
        rng.poisson(2000.0 * bright * 0.92),
        rng.poisson(8000.0 * bright),
        rng.poisson(8000.0 * bright * 0.98),
    )
    meta = {"nx": str(n), "ny": str(n), "pitch_um": "0.5", "dwell_s": "0.01"}
    columns = ("ix", "iy", "mw_off_gated", "mw_on_gated", "mw_off_ungated", "mw_on_ungated")
    rows = (
        (ix, iy, *(int(p[iy, ix]) for p in planes)) for iy in range(n) for ix in range(n)
    )
    off, on = planes[0].astype(float), planes[1].astype(float)
    return _table(meta, columns, rows), (off - on) / np.sqrt(off + on)
