"""Stochastic photon-level acquisition simulation.

Three layers, each deterministic given a master seed:

* Poisson sampling of expected TCSPC histograms, and Monte-Carlo SNR
  trials drawn from the expected gated counts of each channel.
* Photon event streams: every decay component and the dark rate is a
  Poisson source per laser pulse, with exact exponential (plus Gaussian
  IRF) or uniform arrival offsets; offsets past the period are dropped.
  The MW drive toggles between channels as an ideal square wave
  phase-locked to t = 0 (MW off first).
* Event-level gating by a GateWindow: a hardware gate (optionally with
  per-pulse Gaussian edge jitter) and the equivalent offline modular-time
  filter.

Randomness policy: every operation takes an explicit seed; nothing reads
ambient entropy, so a None seed, which would seed from the operating
system, is rejected with ValueError. Histogram sampling, the gate jitter
and Monte-Carlo trials each draw from one Generator in a fixed order. An
event stream is drawn in blocks of BLOCK_PULSES pulses, block k from its own
Generator seeded by block_seed(seed, k), so a block's events do not depend
on which other blocks are drawn. The same seed gives the same result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decay import (
    FluorescenceModel,
    GateWindow,
    PulseTrain,
    spin_weight,
    steady_rate,
)
from .histogram import TcspcHistogram
from .metrics import CountPair, snr

CHANNEL_OFF = 0
CHANNEL_ON = 1

# Laser pulses per event-stream block: about 190k events per block for a
# bulk NV model at 20 MHz, so a block's arrays stay a few MB.
BLOCK_PULSES = 4096


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


def _require_seed(seed, what: str):
    """seed itself; None is rejected, since a Generator seeded with None
    reads the operating system's entropy."""
    if seed is None:
        raise ValueError(f"{what} requires a seed")
    return seed


def sample_histogram(expectation: TcspcHistogram, seed) -> TcspcHistogram:
    """Poisson-sample an expected histogram into integer counts."""
    if np.any(expectation.counts < 0):
        raise ValueError("negative expectation")
    rng = np.random.default_rng(_require_seed(seed, "sample_histogram"))
    return TcspcHistogram(
        bin_width=expectation.bin_width,
        counts=rng.poisson(expectation.counts),
        channel=expectation.channel,
        integration_time=expectation.integration_time,
        rep_rate=expectation.rep_rate,
    )


def block_seed(seed, k: int) -> np.random.SeedSequence:
    """The seed of block k of a blocked draw: seed (an int or SeedSequence)
    extended by the key k, as the k-th SeedSequence.spawn child would be."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (k,))


def block_count(train: PulseTrain, integration_time: float) -> int:
    """Number of BLOCK_PULSES-pulse blocks in an acquisition; an acquisition
    without pulses has one empty block."""
    if not integration_time >= 0:
        raise ValueError("integration_time must be >= 0")
    n_pulses = int(integration_time * train.rep_rate)
    return max(1, -(-n_pulses // BLOCK_PULSES))


def simulate_events(
    model: FluorescenceModel,
    train: PulseTrain,
    integration_time: float,
    mw_toggle_rate: float,
    seed,
    c_sat: float = 0.15,
    block: int | None = None,
) -> EventStream:
    """Simulate the photon stream of a full acquisition, or of one block.

    Every source emits an independent Poisson number of photons per laser
    pulse. A decay component (spin branch or background) of amplitude A and
    lifetime tau has mean A * tau, with offsets pulse_time + tau * Exp(1)
    plus sigma * N(0, 1) for a Gaussian IRF: the EMG that decay.py
    integrates. The dark rate has mean dark_rate * period, with offsets
    uniform over the period. Offsets outside [0, period) are dropped, which
    thins each source to exactly the intensity histogram_expectation bins.
    The MW-on channel weights the spin branches by c_sat; the channel is set
    by the 50% duty MW square wave active at the pulse time.

    The pulses are drawn in block_count(train, integration_time) blocks of
    BLOCK_PULSES, block k from block_seed(seed, k). Every event lies inside
    its own pulse's period, so sorting each block sorts the stream. With
    block=k only block k is returned; with None, every block in order.
    """
    _require_seed(seed, "simulate_events")
    n_blocks = block_count(train, integration_time)
    if not mw_toggle_rate > 0:
        raise ValueError("mw_toggle_rate must be > 0")
    if block is not None and not 0 <= block < n_blocks:
        raise ValueError(f"block must be in [0, {n_blocks})")
    period = train.period
    n_pulses = int(integration_time * train.rep_rate)

    # sources: spin0, spin1 and background components, then the dark rate
    comps = model.spin0 + model.spin1 + model.background
    lifetimes = np.array([c.lifetime for c in comps] + [0.0])
    mass = np.array([c.amplitude * c.lifetime for c in comps] + [model.dark_rate * period])
    n0, n1 = len(model.spin0), len(model.spin1)
    means = np.tile(mass, (2, 1))
    means[CHANNEL_OFF, n0 : n0 + n1] = 0.0
    w = spin_weight(c_sat)
    means[CHANNEL_ON, :n0] *= 1.0 - w
    means[CHANNEL_ON, n0 : n0 + n1] *= w
    half_toggle_ns = 0.5e9 / mw_toggle_rate
    source_ids = np.arange(lifetimes.size, dtype=np.min_scalar_type(lifetimes.size))

    def draw(k: int):
        rng = np.random.default_rng(block_seed(seed, k))
        pulse_idx = np.arange(k * BLOCK_PULSES, min(n_pulses, (k + 1) * BLOCK_PULSES))
        pulse_channel = (np.floor(pulse_idx * period / half_toggle_ns) % 2).astype(np.uint8)
        # (pulse x source) counts; np.repeat keeps the photons in pulse-major
        # order, so the sort sees a nearly sorted input
        counts = rng.poisson(means[pulse_channel])
        source = np.repeat(np.tile(source_ids, pulse_idx.size), counts.ravel())
        photon_pulse = np.repeat(np.arange(pulse_idx.size), counts.sum(axis=1))
        offsets = rng.standard_exponential(source.size)
        offsets *= lifetimes[source]
        offsets += model.pulse_time
        if model.irf_sigma > 0.0:
            offsets += model.irf_sigma * rng.standard_normal(source.size)
        dark = source == lifetimes.size - 1
        offsets[dark] = period * rng.random(int(np.count_nonzero(dark)))

        kept = (offsets >= 0.0) & (offsets < period)
        photon_pulse = photon_pulse[kept]
        timestamps = pulse_idx[photon_pulse] * period + offsets[kept]
        order = np.argsort(timestamps, kind="stable")
        return timestamps[order], pulse_channel[photon_pulse[order]]

    if block is not None:
        return EventStream(*draw(block))
    blocks = [draw(k) for k in range(n_blocks)]
    return EventStream(*map(np.concatenate, zip(*blocks)))


def offline_gate(events: EventStream, train: PulseTrain, gate: GateWindow) -> EventStream:
    """Post-processing filter: keep events with (t mod period) inside the gate."""
    phase = events.timestamps % train.period
    return events.select((phase >= gate.t_start) & (phase < gate.t_end))


def hw_gate(
    events: EventStream, train: PulseTrain, gate: GateWindow, jitter_sigma: float = 0.0, seed=None
) -> EventStream:
    """Hardware gate applied at the event level.

    The gate opens gate.t_start after each laser trigger and closes at
    gate.t_end, which must not pass the period. With jitter_sigma = 0 this
    is definitionally the same modular-time predicate as offline_gate. With
    jitter, both gate edges shift together by an independent
    Normal(0, jitter_sigma) draw per laser pulse, which requires a seed; the
    draws run from the first event's pulse to the last, so their number is
    set by the span of the stream, not by where it starts.
    """
    period = train.period
    if gate.t_end > period * (1 + 1e-12):
        raise ValueError("hardware gate exceeds the pulse period")
    if not jitter_sigma >= 0:
        raise ValueError("jitter_sigma must be >= 0")
    phase = events.timestamps % period
    shift = 0.0
    if jitter_sigma > 0.0:
        rng = np.random.default_rng(_require_seed(seed, "jittered hardware gate"))
        pulse_idx = np.floor_divide(events.timestamps, period).astype(np.int64)
        if len(events):
            pulse_idx -= pulse_idx[0]
        n_pulses = int(pulse_idx[-1]) + 1 if len(events) else 0
        shift = (rng.standard_normal(n_pulses) * jitter_sigma)[pulse_idx]
    return events.select((phase >= gate.t_start + shift) & (phase < gate.t_end + shift))


@dataclass(frozen=True)
class McSnrResult:
    """Empirical SNR distribution over Monte-Carlo trials, with the analytic
    SNR of the expected counts it was sampled from."""

    mean: float
    std: float
    samples: np.ndarray
    analytic: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        samples = samples.copy()
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)


def mc_snr_distribution(
    model: FluorescenceModel,
    gate: GateWindow,
    train: PulseTrain,
    channel_time: float,
    trials: int,
    seed,
    c_sat: float = 0.15,
) -> McSnrResult:
    """Sample the shot-noise SNR distribution of a gated measurement.

    Each MW channel integrates for channel_time (SweepConfig.channel_time).
    A channel's gated total is Poisson with mean steady_rate * channel_time
    over the gate, so each trial draws its (N0, N1) pair directly from those
    two means and evaluates the SNR. All trials come from one Generator
    seeded with seed, trial after trial, so the first k trials of a longer
    run equal a k-trial run.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    means = [
        steady_rate(model, spin, gate.t_start, train, gate.t_end) * channel_time
        for spin in ("ms0", c_sat)
    ]
    rng = np.random.default_rng(_require_seed(seed, "mc_snr_distribution"))
    counts = rng.poisson(means, size=(trials, 2))
    samples = snr(CountPair(counts[:, 0], counts[:, 1]))
    std = float(np.std(samples, ddof=1)) if trials > 1 else 0.0
    analytic = float(snr(CountPair(*means)))
    return McSnrResult(mean=float(np.mean(samples)), std=std, samples=samples, analytic=analytic)
