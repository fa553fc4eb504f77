"""Stochastic photon-level acquisition simulation.

Three layers, each deterministic given a master seed:

* Poisson sampling of expected TCSPC histograms.
* Photon event streams: an inhomogeneous Poisson process per laser pulse,
  with the MW drive toggling between channels as an ideal square wave
  phase-locked to t = 0 (MW off first). Arrival times are drawn by
  inversion sampling of the per-period cumulative intensity - piecewise
  analytic for a zero-width IRF, tabulated at 10 ps otherwise.
* Event-level gating: a hardware gate parameterized by trigger delay and
  on-duration (optionally with per-pulse Gaussian edge jitter), and the
  equivalent offline modular-time filter.

Randomness policy: every operation takes an explicit seed (or Generator);
nothing reads ambient entropy. Monte-Carlo trials derive child seeds from
the master seed via SeedSequence.spawn, so results do not depend on how
trials are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decay import (
    FluorescenceModel,
    GateWindow,
    PulseTrain,
    SpinSelector,
    expected_intensity,
    histogram_expectation,
)
from .histogram import TcspcHistogram
from .metrics import CountPair, snr

CHANNEL_OFF = 0
CHANNEL_ON = 1

CDF_TABLE_STEP = 0.01  # ns (10 ps), for IRF-broadened inversion sampling


@dataclass(frozen=True)
class EventStream:
    """Column store of photon events sorted by timestamp.

    channels holds CHANNEL_OFF/CHANNEL_ON codes.
    """

    timestamps: np.ndarray  # ns, float64, non-decreasing
    channels: np.ndarray  # uint8 codes

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=float)
        ch = np.asarray(self.channels, dtype=np.uint8)
        if ts.ndim != 1 or ch.shape != ts.shape:
            raise ValueError("timestamps and channels must be 1-D arrays of equal length")
        if ts.size and (np.any(ts < 0) or np.any(np.diff(ts) < 0)):
            raise ValueError("timestamps must be non-negative and sorted")
        if np.any(ch > 1):
            raise ValueError("channel codes must be 0 (mw_off) or 1 (mw_on)")
        ts = ts.copy()
        ch = ch.copy()
        ts.setflags(write=False)
        ch.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "channels", ch)

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def select(self, mask: np.ndarray) -> "EventStream":
        return EventStream(self.timestamps[mask], self.channels[mask])


@dataclass(frozen=True)
class HwGateConfig:
    """Hardware time-domain filter: gate opens trigger_delay after each laser
    trigger and stays on for gate_length; both edges jitter together by a
    per-pulse Normal(0, jitter_sigma) offset."""

    trigger_delay: float  # ns
    gate_length: float  # ns
    jitter_sigma: float = 0.0  # ns

    def __post_init__(self):
        if not self.trigger_delay >= 0:
            raise ValueError("trigger_delay must be >= 0")
        if not self.gate_length > 0:
            raise ValueError("gate_length must be > 0")
        if not self.jitter_sigma >= 0:
            raise ValueError("jitter_sigma must be >= 0")


def sample_histogram(expectation: TcspcHistogram, seed) -> TcspcHistogram:
    """Poisson-sample an expected histogram into integer counts."""
    if np.any(expectation.counts < 0):
        raise ValueError("negative expectation")
    rng = np.random.default_rng(seed)
    return TcspcHistogram(
        bin_width=expectation.bin_width,
        counts=rng.poisson(expectation.counts),
        channel=expectation.channel,
        integration_time=expectation.integration_time,
        rep_rate=expectation.rep_rate,
    )


def _offset_sampler(model: FluorescenceModel, spin: SpinSelector, period: float):
    """Return f(u_comp, u_pos) -> arrival offsets in [0, period).

    u_comp and u_pos are independent uniforms; using two keeps the draw
    order independent of which component each photon lands in.
    """
    if model.irf_sigma == 0.0:
        comps = model.spin_components(spin) + model.background
        weights = []
        samplers = []
        tp = model.pulse_time
        for c in comps:
            span = period - tp
            mass = c.amplitude * c.lifetime * (1.0 - math.exp(-span / c.lifetime))
            if mass <= 0:
                continue
            weights.append(mass)
            tail = 1.0 - math.exp(-span / c.lifetime)
            samplers.append(
                lambda u, tau=c.lifetime, tail=tail, tp=tp: tp - tau * np.log1p(-u * tail)
            )
        if model.dark_rate > 0:
            weights.append(model.dark_rate * period)
            samplers.append(lambda u: u * period)
        if not weights:
            def empty(u_comp, u_pos):
                return np.empty(0)

            return empty, 0.0
        cum = np.cumsum(weights)
        total = cum[-1]
        cum = cum / total

        def draw(u_comp, u_pos):
            out = np.empty(u_pos.shape)
            which = np.searchsorted(cum, u_comp, side="right")
            for k, sampler in enumerate(samplers):
                sel = which == k
                if np.any(sel):
                    out[sel] = sampler(u_pos[sel])
            return out

        return draw, total

    # IRF-broadened case: tabulated CDF, linear interpolation between knots.
    grid = np.arange(0.0, period + 0.5 * CDF_TABLE_STEP, CDF_TABLE_STEP)
    intensity = np.asarray(expected_intensity(model, spin, grid), dtype=float)
    segment = 0.5 * (intensity[:-1] + intensity[1:]) * np.diff(grid)
    cdf = np.concatenate([[0.0], np.cumsum(segment)])
    total = cdf[-1]
    if total <= 0:
        def empty(u_comp, u_pos):
            return np.empty(0)

        return empty, 0.0
    cdf = cdf / total

    def draw(u_comp, u_pos):
        return np.interp(u_pos, cdf, grid)

    return draw, float(total)


def simulate_events(
    model: FluorescenceModel,
    train: PulseTrain,
    integration_time: float,
    mw_toggle_rate: float,
    seed,
    c_sat: float = 0.15,
) -> EventStream:
    """Simulate the photon stream of a full acquisition.

    Each laser pulse emits Poisson(mu_channel) photons whose offsets within
    the period follow the channel's normalized intensity; the channel is set
    by the 50% duty MW square wave active at the pulse time.
    """
    if not integration_time >= 0:
        raise ValueError("integration_time must be >= 0")
    if not mw_toggle_rate > 0:
        raise ValueError("mw_toggle_rate must be > 0")
    rng = np.random.default_rng(seed)
    period = train.period
    n_pulses = int(integration_time * train.rep_rate)
    if n_pulses == 0:
        return EventStream(np.empty(0), np.empty(0, dtype=np.uint8))

    draw_off, mu_off = _offset_sampler(model, "ms0", period)
    draw_on, mu_on = _offset_sampler(model, c_sat, period)

    pulse_idx = np.arange(n_pulses, dtype=np.int64)
    half_toggle_ns = 0.5e9 / mw_toggle_rate
    on_pulse = (np.floor(pulse_idx * period / half_toggle_ns).astype(np.int64) % 2) == 1

    counts = rng.poisson(np.where(on_pulse, mu_on, mu_off))
    total = int(counts.sum())
    if total == 0:
        return EventStream(np.empty(0), np.empty(0, dtype=np.uint8))

    photon_pulse = np.repeat(pulse_idx, counts)
    photon_on = np.repeat(on_pulse, counts)
    u_comp = rng.random(total)
    u_pos = rng.random(total)

    offsets = np.empty(total)
    off_mask = ~photon_on
    if np.any(off_mask):
        offsets[off_mask] = draw_off(u_comp[off_mask], u_pos[off_mask])
    if np.any(photon_on):
        offsets[photon_on] = draw_on(u_comp[photon_on], u_pos[photon_on])

    timestamps = photon_pulse * period + offsets
    order = np.argsort(timestamps, kind="stable")
    return EventStream(timestamps[order], photon_on[order].astype(np.uint8))


def offline_gate(events: EventStream, train: PulseTrain, gate: GateWindow) -> EventStream:
    """Post-processing filter: keep events with (t mod period) inside the gate."""
    phase = events.timestamps % train.period
    kept = phase >= gate.t_start
    if gate.bounded and gate.t_end < train.period:
        kept &= phase < gate.t_end
    return events.select(kept)


def hw_gate(events: EventStream, train: PulseTrain, cfg: HwGateConfig, seed=None) -> EventStream:
    """Hardware gate applied at the event level.

    With jitter_sigma = 0 this is definitionally the same modular-time
    predicate as offline_gate. With jitter, both gate edges shift together
    by an independent Normal(0, sigma) draw per laser pulse, which requires
    a seed.
    """
    period = train.period
    if cfg.trigger_delay + cfg.gate_length > period * (1 + 1e-12):
        raise ValueError("hardware gate exceeds the pulse period")
    phase = events.timestamps % period
    if cfg.jitter_sigma == 0.0:
        kept = (phase >= cfg.trigger_delay) & (phase < cfg.trigger_delay + cfg.gate_length)
        return events.select(kept)
    if seed is None:
        raise ValueError("jittered hardware gate requires a seed")
    rng = np.random.default_rng(seed)
    pulse_idx = np.floor_divide(events.timestamps, period).astype(np.int64)
    n_pulses = int(pulse_idx[-1]) + 1 if len(events) else 0
    jitter = rng.standard_normal(n_pulses) * cfg.jitter_sigma
    shift = jitter[pulse_idx] if n_pulses else np.empty(0)
    kept = (phase >= cfg.trigger_delay + shift) & (
        phase < cfg.trigger_delay + cfg.gate_length + shift
    )
    return events.select(kept)


@dataclass(frozen=True)
class McSnrResult:
    """Empirical SNR distribution over Monte-Carlo trials."""

    mean: float
    std: float
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        samples = samples.copy()
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)


def mc_snr_distribution(
    model: FluorescenceModel,
    gate: GateWindow,
    train: PulseTrain,
    integration_time: float,
    trials: int,
    seed,
    c_sat: float = 0.15,
    mw_duty: float = 0.5,
    bin_width: float = 0.1,
) -> McSnrResult:
    """Sample the shot-noise SNR distribution of a gated measurement.

    Each trial Poisson-samples both channel histograms, sums the gate
    window, and evaluates the SNR. Each MW channel integrates for
    integration_time * mw_duty, as in SweepConfig. Trials are
    seeded from SeedSequence(seed).spawn so the distribution is independent
    of evaluation order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    per_channel = integration_time * mw_duty
    expected_off = histogram_expectation(model, "ms0", train, bin_width, per_channel, "mw_off")
    expected_on = histogram_expectation(model, c_sat, train, bin_width, per_channel, "mw_on")
    window = expected_off.aligned_slice(gate.t_start, gate.t_end)

    samples = np.empty(trials)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.default_rng(child)
        n0 = int(sample_histogram(expected_off, rng).counts[window].sum())
        n1 = int(sample_histogram(expected_on, rng).counts[window].sum())
        samples[i] = snr(CountPair(n0, n1))
    std = float(np.std(samples, ddof=1)) if trials > 1 else 0.0
    return McSnrResult(mean=float(np.mean(samples)), std=std, samples=samples)
