"""Grid sweeps over gate onset and laser repetition rate.

Optimization is exhaustive over explicit grids: the objectives are smooth
1-D/2-D curves and exact reproducibility matters more than speed. Ties are
broken toward the smallest gate onset (and smallest repetition rate for the
joint optimum) by taking the first maximum on an ascending grid.

Channel counts follow the MW toggling scheme: each channel integrates for
``SweepConfig.channel_time`` at the rates of ``decay.channel_rates``.
"""

from __future__ import annotations

import numpy as np

from .decay import FluorescenceModel, PulseTrain, channel_rates
from .errors import ConfigError
from .metrics import (
    CountPair,
    RatePair,
    contrast,
    sensitivity_cw,
    snr,
)
from .record import Record, frozen_array, require_finite

POWER_MODES = ("constant-pulse-energy", "constant-mean-power")


class SweepConfig(Record):
    """The acquisition's channel rule, and the knobs of the gate and
    repetition-rate sweeps.

    The MW drive alternates the two channels, off and on, over an
    acquisition of integration_time; each channel integrates for
    channel_time. Every command takes its per-channel time from here.
    """

    integration_time: float = 1.0  # s, total acquisition time
    mw_duty: float = 0.5  # fraction of integration_time on each channel
    tau_c_resolution: float = 0.1  # ns
    tau_c_max: float | None = None  # ns; None -> 0.8 * period
    rate_grid: tuple[float, ...] | None = None  # Hz
    linewidth: float | None = None  # Hz; enables sensitivity columns
    c_sat: float = 0.15  # MW-on mixture weight
    power_mode: str = "constant-pulse-energy"
    reference_rate: float = 40e6  # Hz; amplitude anchor for constant-mean-power

    def __post_init__(self):
        if not self.integration_time > 0:
            raise ValueError("integration_time must be > 0")
        if not 0 < self.mw_duty <= 0.5:
            raise ValueError(
                f"mw_duty must be in (0, 0.5], got {self.mw_duty}: the MW-off and MW-on "
                "channels alternate, so each counts at most half of integration_time"
            )
        if not self.tau_c_resolution > 0:
            raise ValueError("tau_c_resolution must be > 0")
        if self.tau_c_max is not None and not self.tau_c_max >= 0:
            raise ValueError("tau_c_max must be >= 0")
        if not 0 <= self.c_sat < 1:
            raise ValueError("c_sat must be in [0, 1)")
        if self.power_mode not in POWER_MODES:
            raise ValueError(f"power_mode must be one of {POWER_MODES}, got {self.power_mode!r}")
        if self.linewidth is not None and not self.linewidth > 0:
            raise ValueError("linewidth must be > 0 when given")
        if not self.reference_rate > 0:
            raise ValueError("reference_rate must be > 0")
        require_finite(
            self, "integration_time", "tau_c_resolution", "tau_c_max", "linewidth",
            "reference_rate",
        )
        if self.rate_grid is not None:
            grid = tuple(float(r) for r in self.rate_grid)
            if any(r <= 0 for r in grid):
                raise ValueError("rate_grid entries must be > 0")
            if not np.isfinite(grid).all():
                raise ValueError("rate_grid entries must be finite")
            object.__setattr__(self, "rate_grid", grid)

    @property
    def channel_time(self) -> float:
        """Integration time of each MW channel, off and on, in s.

        integration_time * mw_duty: the one rule that turns the duty into a
        per-channel time, used by the sweeps and by the simulate, mc and
        hw-sim commands.
        """
        return self.integration_time * self.mw_duty


class GateSweepReport(Record):
    """Figure-of-merit columns over a gate-onset grid."""

    tau_c_grid: np.ndarray  # ns
    contrast: np.ndarray
    shot_noise: np.ndarray  # sqrt(N0 + N1)
    snr: np.ndarray
    ef: np.ndarray  # vs the tau_c = 0 baseline
    eta: np.ndarray | None  # T/sqrt(Hz); None without a linewidth
    optimum: int  # index of max SNR (first on ties)

    def __post_init__(self):
        for name in ("tau_c_grid", "contrast", "shot_noise", "snr", "ef"):
            object.__setattr__(self, name, frozen_array(getattr(self, name)))
        if self.eta is not None:
            object.__setattr__(self, "eta", frozen_array(self.eta))
        n = self.tau_c_grid.size
        lengths = [self.contrast.size, self.shot_noise.size, self.snr.size, self.ef.size]
        if self.eta is not None:
            lengths.append(self.eta.size)
        if n == 0 or any(m != n for m in lengths):
            raise ValueError("report columns must be non-empty and of equal length")
        if not 0 <= self.optimum < n:
            raise ValueError("optimum index out of range")
        if self.snr[self.optimum] != np.max(self.snr):
            raise ValueError("optimum index does not attain the maximum SNR")


class RepRateSweepReport(Record):
    """Per-repetition-rate summary, each rate swept over its own gate grid."""

    rate_grid: np.ndarray  # Hz
    mode: str
    snr_ungated: np.ndarray
    snr_gated: np.ndarray  # at that rate's optimal gate
    eta_ungated: np.ndarray | None
    eta_gated: np.ndarray | None
    tau_c_opt: np.ndarray  # ns, per rate

    def __post_init__(self):
        for name in ("rate_grid", "snr_ungated", "snr_gated", "tau_c_opt"):
            object.__setattr__(self, name, frozen_array(getattr(self, name)))
        for name in ("eta_ungated", "eta_gated"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, frozen_array(getattr(self, name)))
        if self.mode not in POWER_MODES:
            raise ValueError(f"unknown power mode {self.mode!r}")
        n = self.rate_grid.size
        cols = [self.snr_ungated, self.snr_gated, self.tau_c_opt]
        cols += [c for c in (self.eta_ungated, self.eta_gated) if c is not None]
        if n == 0 or any(c.size != n for c in cols):
            raise ValueError("report columns must be non-empty and of equal length")
        periods = 1e9 / self.rate_grid
        if np.any(self.tau_c_opt >= periods):
            raise ValueError("per-rate optimal tau_c must stay below the period")


def _gate_grid(train: PulseTrain, cfg: SweepConfig) -> np.ndarray:
    upper = 0.8 * train.period if cfg.tau_c_max is None else cfg.tau_c_max
    if upper >= train.period:
        raise ValueError(
            f"tau_c_max {upper} ns must stay below the {train.period} ns period"
        )
    grid = np.arange(0.0, upper + 0.5 * cfg.tau_c_resolution, cfg.tau_c_resolution)
    if grid.size == 0:
        raise ValueError("empty gate grid")
    return grid


def sweep_gate(model: FluorescenceModel, train: PulseTrain, cfg: SweepConfig) -> GateSweepReport:
    """Sweep the gate onset and tabulate contrast, shot noise, SNR, EF, eta.

    Each channel's rates come from one kernel call over the whole grid.
    """
    grid = _gate_grid(train, cfg)
    r0, r1 = channel_rates(model, cfg.c_sat, grid, train)
    pair = CountPair(r0 * cfg.channel_time, r1 * cfg.channel_time)
    contrasts = contrast(pair)
    snrs = snr(pair)
    etas = None
    if cfg.linewidth is not None:
        etas = sensitivity_cw(cfg.linewidth, RatePair(r0, r1))
    # The grid starts at the ungated onset 0, the EF baseline, so ef[0] == 1
    # exactly; enhancement over a zero-SNR baseline is undefined, not infinite.
    ef = snrs / snrs[0] if snrs[0] != 0.0 else np.full(grid.size, np.nan)
    return GateSweepReport(
        tau_c_grid=grid,
        contrast=contrasts,
        shot_noise=np.sqrt(pair.n0 + pair.n1),
        snr=snrs,
        ef=ef,
        eta=etas,
        optimum=int(np.argmax(snrs)),
    )


def optimal_gate(report: GateSweepReport) -> float:
    """Gate onset (ns) maximizing SNR; ties resolve to the smallest onset."""
    return float(report.tau_c_grid[report.optimum])


def _rate_scale(rate: float, cfg: SweepConfig) -> float:
    """Amplitude scale for one repetition rate under the power convention.

    constant-pulse-energy keeps per-pulse amplitudes fixed;
    constant-mean-power scales amplitude as 1/f_L, normalized to unity at the
    reference rate.
    """
    if cfg.power_mode == "constant-pulse-energy":
        return 1.0
    return cfg.reference_rate / rate


def sweep_rep_rate(model: FluorescenceModel, cfg: SweepConfig) -> RepRateSweepReport:
    """Sweep the repetition rate, re-optimizing the gate at every rate.

    Ungated figures come from each gate grid's first onset, which is 0.
    """
    if not cfg.rate_grid:
        raise ValueError("rate_grid must be a non-empty sequence of rates")
    rates = np.asarray(cfg.rate_grid, dtype=float)
    reports = [
        sweep_gate(model.scaled(_rate_scale(rate, cfg)), PulseTrain(rate), cfg)
        for rate in rates.tolist()
    ]
    with_eta = cfg.linewidth is not None
    return RepRateSweepReport(
        rate_grid=rates,
        mode=cfg.power_mode,
        snr_ungated=[r.snr[0] for r in reports],
        snr_gated=[r.snr[r.optimum] for r in reports],
        eta_ungated=[r.eta[0] for r in reports] if with_eta else None,
        eta_gated=[r.eta[r.optimum] for r in reports] if with_eta else None,
        tau_c_opt=[optimal_gate(r) for r in reports],
    )


def optimal_point(report: RepRateSweepReport) -> tuple[float, float]:
    """Best (tau_c, rep_rate) of a repetition-rate sweep.

    Ties resolve to the smallest rate, whatever the order of the rate grid,
    by taking the first maximum over ascending rates; within one rate the
    gate optimum already prefers the smallest onset.
    """
    ascending = np.argsort(report.rate_grid, kind="stable")
    best = ascending[int(np.argmax(report.snr_gated[ascending]))]
    return float(report.tau_c_opt[best]), float(report.rate_grid[best])


def joint_optimum(model: FluorescenceModel, cfg: SweepConfig) -> tuple[float, float]:
    """Best (tau_c, rep_rate) over the product grid; see optimal_point."""
    return optimal_point(sweep_rep_rate(model, cfg))


# Command-line handlers: handler(args, run, seed) -> (metadata, columns).


def cmd_gate_sweep(args, run, seed):
    report = sweep_gate(run.model, run.train, run.sweep)
    data = {
        "tau_c_ns": report.tau_c_grid,
        "contrast": report.contrast,
        "shot_noise": report.shot_noise,
        "snr": report.snr,
        "ef": report.ef,
    }
    if report.eta is not None:
        data["eta"] = report.eta
    meta = dict(
        rep_rate_hz=run.train.rep_rate,
        c_sat=run.sweep.c_sat,
        optimal_tau_c_ns=optimal_gate(report),
        optimal_snr=report.snr[report.optimum],
    )
    return meta, data


def cmd_rep_sweep(args, run, seed):
    """rep-sweep, and joint-opt: the same report plus the joint optimum."""
    if not run.sweep.rate_grid:
        raise ConfigError(f"{args.command} needs [sweep] rate_grid or period_grid")
    report = sweep_rep_rate(run.model, run.sweep)
    data = {
        "rate_hz": report.rate_grid,
        "period_ns": 1e9 / report.rate_grid,
        "tau_c_opt_ns": report.tau_c_opt,
        "snr_ungated": report.snr_ungated,
        "snr_gated": report.snr_gated,
    }
    if report.eta_ungated is not None:
        data["eta_ungated"] = report.eta_ungated
        data["eta_gated"] = report.eta_gated
    meta = {"mode": report.mode}
    if args.command == "joint-opt":
        tau_c, rate = optimal_point(report)
        meta.update(optimal_tau_c_ns=tau_c, optimal_rate_hz=rate, optimal_period_ns=1e9 / rate)
    return meta, data
