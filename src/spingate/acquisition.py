"""Stochastic photon-level acquisition simulation.

Three layers, each deterministic given a master seed:

* Poisson sampling of expected TCSPC histograms, and Monte-Carlo SNR
  trials drawn from the expected gated counts of each channel.
* Photon event streams: every decay component and the dark rate is a
  Poisson source per laser pulse, with exact exponential (plus Gaussian
  IRF) or uniform arrival phases. Only the photons whose phase falls in a
  window inside [0, period) are drawn; those outside it are counted, not
  drawn. The MW drive toggles between channels as an ideal 50 % square
  wave phase-locked to t = 0 (MW off first), so hw-sim draws twice
  SweepConfig.channel_time of stream to give each channel that time.
* Event-level gating by a GateWindow: a hardware gate (optionally with
  per-pulse Gaussian edge jitter) and the equivalent offline modular-time
  filter, and the closed-form expectation of what the hardware gate keeps.

Randomness policy: every operation takes an explicit seed; nothing reads
ambient entropy, so a None seed, which would seed from the operating
system, is rejected with ValueError. Histogram sampling, the gate jitter
and Monte-Carlo trials each draw from one Generator in a fixed order. An
event stream is drawn in blocks of BLOCK_PULSES pulses, block k from its own
Generator seeded by block_seed(seed, k), so a block's events do not depend
on which other blocks are drawn. The same seed gives the same result.
"""

from __future__ import annotations

import array
import functools
import math
import operator

import numpy as np

from . import histogram
from .decay import (
    CHANNELS,
    FluorescenceModel,
    GateWindow,
    PulseTrain,
    _window_counts,
    channel_rates,
    channel_weights,
    gate_from_args,
)
from .errors import ConfigError
from .metrics import CountPair, snr
from .record import Record, frozen_array, replace, require_poisson_means

# Laser pulses per event-stream block: about 190k events per block for a
# bulk NV model at 20 MHz, so a block's arrays stay a few MB.
BLOCK_PULSES = 4096

# The finest arrival phase, in ns, that a stream's float64 timestamps must
# resolve: 1 ps. A timestamp t resolves np.spacing(t), which first exceeds
# it at TIMESTAMP_LIMIT_NS = 2**43 ns (about 8,796 s of stream, where the
# spacing is 1.95e-3 ns); block_count rejects a longer acquisition.
PHASE_RESOLUTION_NS = 1e-3
TIMESTAMP_LIMIT_NS = 2.0 ** (math.floor(math.log2(PHASE_RESOLUTION_NS)) + 53)

# Gaussian widths by which a draw window reaches past the window it keeps:
# a photon beyond that reach lands inside with probability below
# Phi(-8) = 6.2e-16.
WINDOW_SIGMAS = 8.0


class EventStream(Record):
    """Column store of photon events sorted by timestamp.

    channels holds channel codes, indices into decay.CHANNELS. n_outside
    counts the photons of the acquisition that the stream does not list:
    those outside the window it was drawn in, and those a selection removed.
    So len(stream) + n_outside is the acquisition's photon count.
    """

    timestamps: np.ndarray  # ns, float64, non-decreasing
    channels: np.ndarray  # uint8 codes
    n_outside: int = 0

    def __post_init__(self):
        ts = frozen_array(self.timestamps)
        ch = frozen_array(self.channels, np.uint8)
        if ts.ndim != 1 or ch.shape != ts.shape:
            raise ValueError("timestamps and channels must be 1-D arrays of equal length")
        # a NaN fails every comparison, so sorted steps (>= 0) between a
        # first value >= 0 and a last value < inf admit only finite values
        if ts.size and not (ts[0] >= 0 and ts[-1] < math.inf and np.all(np.diff(ts) >= 0)):
            raise ValueError("timestamps must be finite, non-negative and sorted")
        if np.any(ch >= len(CHANNELS)):
            raise ValueError("channel codes must be 0 (mw_off) or 1 (mw_on)")
        try:
            n_outside = operator.index(self.n_outside)
        except TypeError:
            raise ValueError(f"n_outside must be an integer, got {self.n_outside!r}") from None
        if n_outside < 0:
            raise ValueError("n_outside must be >= 0")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "channels", ch)
        object.__setattr__(self, "n_outside", n_outside)

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def select(self, mask: np.ndarray) -> "EventStream":
        timestamps = self.timestamps[mask]
        n_outside = self.n_outside + len(self) - timestamps.size
        return EventStream(timestamps, self.channels[mask], n_outside)


def _require_seed(seed, what: str):
    """seed itself; None is rejected, since a Generator seeded with None
    reads the operating system's entropy."""
    if seed is None:
        raise ValueError(f"{what} requires a seed")
    return seed


def sample_histogram(expectation: histogram.TcspcHistogram, seed) -> histogram.TcspcHistogram:
    """Poisson-sample an expected histogram into integer counts."""
    if np.any(expectation.counts < 0):
        raise ValueError("negative expectation")
    require_poisson_means(
        expectation.counts,
        f"expected counts per bin (channel_time {expectation.channel_time:g} s)",
    )
    rng = np.random.default_rng(_require_seed(seed, "sample_histogram"))
    return histogram.TcspcHistogram(
        bin_width=expectation.bin_width,
        counts=rng.poisson(expectation.counts),
        channel=expectation.channel,
        channel_time=expectation.channel_time,
        rep_rate=expectation.rep_rate,
    )


def block_seed(seed, k: int) -> np.random.SeedSequence:
    """The seed of block k of a blocked draw: seed (an int or SeedSequence)
    extended by the key k, as the k-th SeedSequence.spawn child would be."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (k,))


def block_count(train: PulseTrain, stream_time: float) -> int:
    """Number of BLOCK_PULSES-pulse blocks in a stream of stream_time s; a
    stream without pulses has one empty block. Its timestamps lie below
    stream_time in ns, which must not pass TIMESTAMP_LIMIT_NS."""
    if not stream_time >= 0:
        raise ValueError("stream_time must be >= 0")
    if not math.isfinite(stream_time):
        raise ValueError(f"stream_time must be finite, got {stream_time}")
    if stream_time * 1e9 > TIMESTAMP_LIMIT_NS:
        raise ValueError(
            f"stream_time {stream_time:g} s runs timestamps past "
            f"{TIMESTAMP_LIMIT_NS:g} ns, where float64 no longer resolves "
            f"{PHASE_RESOLUTION_NS:g} ns of phase"
        )
    n_pulses = int(stream_time * train.rep_rate)
    return max(1, -(-n_pulses // BLOCK_PULSES))


@functools.lru_cache(maxsize=8)
def _source_means(
    model: FluorescenceModel, period: float, t_start: float, t_end: float, c_sat: float
):
    """simulate_events' per-source draw parameters for the phase window
    [t_start, t_end): per-pulse means per channel and source, per-pulse
    means outside the window per channel, lifetimes, the truncated
    exponential's CDF scale per source, and x_lo. Cached, so a stream drawn
    block by block evaluates its EMG tails once, not once per block; the
    arrays are read-only, since every call with the same window shares them.

    Sources are the spin0, spin1 and background components, then the dark
    rate; x is the time after the pulse, [x_lo, x_hi) the pre-IRF draw
    range."""
    comps = model.spin0 + model.spin1 + model.background
    sigma, pulse = model.irf_sigma, model.pulse_time
    x0, x1 = t_start - pulse, t_end - pulse
    x_lo = max(x0 - WINDOW_SIGMAS * sigma, 0.0)
    x_hi = max(x1 + WINDOW_SIGMAS * sigma, x_lo)

    def masses(s, lo, hi):
        """Per-pulse mass of each source in the phase windows [lo, hi) after the pulse."""
        lo, hi = np.asarray(lo), np.asarray(hi)
        dark = model.dark_rate * (hi - lo)
        return np.array([_window_counts((c,), s, lo, hi) for c in comps] + [dark])

    full, inside = masses(sigma, [-pulse, x0], [period - pulse, x1]).T
    outside = full - inside
    drawn = masses(0.0, x_lo, x_hi)
    drawn[-1] = inside[-1]  # dark photons are drawn over the window itself
    n0, n1 = len(model.spin0), len(model.spin1)
    # (channel x source) weights: the spin branches by each channel's
    # mixture, the background and the dark rate in full
    spin1 = np.array(channel_weights(c_sat))[:, None]
    weights = np.ones((len(CHANNELS), drawn.size))
    weights[:, :n0] = 1.0 - spin1
    weights[:, n0 : n0 + n1] = spin1
    means = weights * drawn
    outside_means = np.maximum(weights @ outside, 0.0)
    lifetimes = np.array([c.lifetime for c in comps] + [0.0])
    # log1p(u * shrink) inverts the truncated exponential's CDF; the dark
    # source's 0 gives offset 0 before its uniform phase replaces it
    shrink = np.append(np.expm1(-(x_hi - x_lo) / lifetimes[:-1]), 0.0)
    for values in (means, outside_means, lifetimes, shrink):
        values.setflags(write=False)
    return means, outside_means, lifetimes, shrink, x_lo


def simulate_events(
    model: FluorescenceModel,
    train: PulseTrain,
    stream_time: float,
    mw_toggle_rate: float,
    seed,
    c_sat: float,
    block: int | None = None,
    window: GateWindow | None = None,
) -> EventStream:
    """Simulate the photon stream of stream_time s, or one block of it,
    drawing only the photons whose phase lies in window.

    Every source emits an independent Poisson number of photons per laser
    pulse. A decay component (spin branch or background) of amplitude A and
    lifetime tau emits at phase pulse_time + tau * Exp(1), plus
    sigma * N(0, 1) for a Gaussian IRF: the EMG that decay.py integrates.
    The dark rate emits dark_rate per ns, uniform over the period. Photons
    outside [0, period) are lost, which thins each source to exactly the
    intensity histogram_expectation bins.

    window (a GateWindow, default [0, period); its end is clipped to the
    period) selects the phases drawn. By Poisson thinning the photons inside
    it are a Poisson source of their own. A decay component's pre-IRF
    offsets are drawn over the window widened by WINDOW_SIGMAS * sigma on
    each side: per pulse, a Poisson count with the component's mass there
    as its mean (decay._window_counts), and offsets from the inverse CDF of
    the exponential truncated to it. The Gaussian is then added, and photons
    outside the window are dropped. A photon beyond the widened window
    lands inside with probability below Phi(-8) < 1e-15, the mass this
    misses. With sigma = 0 the widened window is the window itself. Dark
    photons are uniform over the window.

    The photons outside the window are counted, not drawn: each block draws
    one Poisson count with the full-period mass less the window mass as its
    mean, and the stream carries their sum as n_outside. So
    len(stream) + n_outside has the distribution of the whole acquisition's
    photon count. Each channel weights the spin branches as channel_weights
    gives them; the channel is set by the 50% duty MW square wave active at
    the pulse time, so over whole toggle periods each channel gets half of
    the stream.

    The pulses are drawn in block_count(train, stream_time) blocks of
    BLOCK_PULSES, block k from block_seed(seed, k). Every event lies inside
    its own pulse's period, so sorting each block sorts the stream. With
    block=k only block k is returned; with None, every block in order.
    """
    _require_seed(seed, "simulate_events")
    n_blocks = block_count(train, stream_time)
    if not mw_toggle_rate > 0:
        raise ValueError("mw_toggle_rate must be > 0")
    if not math.isfinite(mw_toggle_rate):
        raise ValueError(f"mw_toggle_rate must be finite, got {mw_toggle_rate}")
    if block is not None and not 0 <= block < n_blocks:
        raise ValueError(f"block must be in [0, {n_blocks})")
    period = train.period
    window = GateWindow(0.0, period) if window is None else window
    if window.t_start >= period:
        raise ValueError("window must start inside the pulse period")
    t_start, t_end = window.t_start, min(window.t_end, period)
    n_pulses = int(stream_time * train.rep_rate)
    sigma, pulse = model.irf_sigma, model.pulse_time
    means, outside_means, lifetimes, shrink, x_lo = _source_means(
        model, period, t_start, t_end, c_sat
    )
    half_toggle_ns = 0.5e9 / mw_toggle_rate
    source_ids = np.arange(lifetimes.size, dtype=np.min_scalar_type(lifetimes.size))

    def draw(k: int):
        rng = np.random.default_rng(block_seed(seed, k))
        pulse_idx = np.arange(k * BLOCK_PULSES, min(n_pulses, (k + 1) * BLOCK_PULSES))
        pulse_channel = (np.floor(pulse_idx * period / half_toggle_ns) % 2).astype(np.uint8)
        # (pulse x source) counts; np.repeat keeps the photons in pulse-major
        # order, so the sort sees a nearly sorted input
        counts = rng.poisson(means[pulse_channel])
        n_outside = int(rng.poisson(outside_means[pulse_channel].sum()))
        source = np.repeat(np.tile(source_ids, pulse_idx.size), counts.ravel())
        photon_pulse = np.repeat(np.arange(pulse_idx.size), counts.sum(axis=1))
        u = rng.random(source.size)
        offsets = np.log1p(u * shrink[source])
        offsets *= -lifetimes[source]
        offsets += pulse + x_lo
        if sigma > 0.0:
            offsets += sigma * rng.standard_normal(source.size)
        dark = source == lifetimes.size - 1
        offsets[dark] = t_start + (t_end - t_start) * u[dark]

        kept = (offsets >= t_start) & (offsets < t_end)
        photon_pulse = photon_pulse[kept]
        timestamps = pulse_idx[photon_pulse] * period + offsets[kept]
        order = np.argsort(timestamps, kind="stable")
        return timestamps[order], pulse_channel[photon_pulse[order]], n_outside

    if block is not None:
        return EventStream(*draw(block))
    timestamps, channels, n_outside = zip(*(draw(k) for k in range(n_blocks)))
    return EventStream(np.concatenate(timestamps), np.concatenate(channels), sum(n_outside))


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
    set by the span of the stream, not by where it starts. Shifted edges
    neither wrap nor clip at the period edge: each event's phase in
    [0, period) is compared with its own pulse's shifted edges, so an edge
    shifted below 0 or past the period reaches no event of the neighbouring
    period. hw_gate_expectation gives the expected kept counts.
    """
    period = train.period
    if gate.t_end > period * (1 + 1e-12):
        raise ValueError("hardware gate exceeds the pulse period")
    if not jitter_sigma >= 0:
        raise ValueError("jitter_sigma must be >= 0")
    if not math.isfinite(jitter_sigma):
        raise ValueError(f"jitter_sigma must be finite, got {jitter_sigma}")
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


def hw_gate_window(gate: GateWindow, train: PulseTrain, jitter_sigma: float) -> GateWindow:
    """The phases from which hw_gate can keep an event: the gate widened by
    WINDOW_SIGMAS * jitter_sigma on each side and clipped to [0, period).
    An event outside it is kept with probability below Phi(-8) < 1e-15."""
    reach = WINDOW_SIGMAS * jitter_sigma
    return GateWindow(max(gate.t_start - reach, 0.0), min(gate.t_end + reach, train.period))


def hw_gate_expectation(
    model: FluorescenceModel,
    train: PulseTrain,
    gate: GateWindow,
    jitter_sigma: float,
    c_sat: float,
) -> np.ndarray:
    """Expected counts per pulse that hw_gate keeps from a simulate_events
    stream, indexed by channel code.

    Both gate edges shift together by s ~ N(0, jitter_sigma) per pulse, so an
    event at phase t is kept with probability
    Phi((t - t_start) / jitter_sigma) - Phi((t - t_end) / jitter_sigma). The
    gate therefore sees the intensity convolved with the jitter's Gaussian,
    the EMG with irf_sigma = hypot(irf_sigma, jitter_sigma), and the
    expectation is steady_rate of that model over the gate. It holds while
    both edges stay several jitter_sigma inside [0, period), out of reach of
    the intensity that the stream loses outside [0, period).
    """
    jittered = replace(model, irf_sigma=math.hypot(model.irf_sigma, jitter_sigma))
    return channel_rates(jittered, c_sat, gate.t_start, train, gate.t_end) / train.rep_rate


class McSnrResult(Record):
    """Empirical SNR distribution over Monte-Carlo trials, with the analytic
    SNR of the expected counts it was sampled from."""

    mean: float
    std: float
    samples: np.ndarray
    analytic: float

    def __post_init__(self):
        object.__setattr__(self, "samples", frozen_array(self.samples))


def mc_snr_distribution(
    model: FluorescenceModel,
    gate: GateWindow,
    train: PulseTrain,
    channel_time: float,
    trials: int,
    seed,
    c_sat: float,
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
    means = channel_rates(model, c_sat, gate.t_start, train, gate.t_end) * channel_time
    require_poisson_means(
        means, f"expected gated counts per channel (channel_time {channel_time:g} s)"
    )
    rng = np.random.default_rng(_require_seed(seed, "mc_snr_distribution"))
    counts = rng.poisson(means, size=(trials, 2))
    samples = snr(CountPair(counts[:, 0], counts[:, 1]))
    std = float(np.std(samples, ddof=1)) if trials > 1 else 0.0
    analytic = float(snr(CountPair(*means)))
    return McSnrResult(mean=float(np.mean(samples)), std=std, samples=samples, analytic=analytic)


# Command-line handlers: handler(args, run, seed) -> (metadata, columns), and
# hw-sim's labels of its channel codes after them.


def cmd_mc(args, run, seed):
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    result = mc_snr_distribution(
        run.model, gate_from_args(args), run.train, run.sweep.channel_time, args.trials, seed,
        c_sat=run.sweep.c_sat,
    )
    meta = dict(
        trials=args.trials,
        tau_c_ns=args.tau_c,
        mean_snr=result.mean,
        std_snr=result.std,
        analytic_snr=result.analytic,
    )
    return meta, {"trial": np.arange(args.trials), "snr": result.samples}


def cmd_hw_sim(args, run, seed):
    period = run.train.period
    length = args.length if args.length is not None else period - args.delay
    gate = GateWindow(args.delay, args.delay + length)
    if not args.jitter >= 0:
        raise ConfigError("--jitter must be >= 0")
    window = hw_gate_window(gate, run.train, args.jitter)
    # --integration is the acquisition's integration_time; under the 50 %
    # toggle a stream of twice its channel time gives each channel that time
    stream_time = 2 * replace(run.sweep, integration_time=args.integration).channel_time
    stream_seed, gate_seed = np.random.SeedSequence(seed).spawn(2)
    n_events = n_offline = 0
    identical = True
    # block by block, so only the kept events of the stream are ever whole;
    # they collect in two growing buffers, since small per-block arrays
    # left between the blocks' large ones would fragment the heap
    stamps, codes = array.array("d"), array.array("B")
    for k in range(block_count(run.train, stream_time)):
        events = simulate_events(
            run.model, run.train, stream_time, args.toggle_rate, stream_seed,
            c_sat=run.sweep.c_sat, block=k, window=window,
        )
        kept = hw_gate(events, run.train, gate, args.jitter, block_seed(gate_seed, k))
        offline = offline_gate(events, run.train, gate)
        identical &= bool(
            np.array_equal(kept.timestamps, offline.timestamps)
            and np.array_equal(kept.channels, offline.channels)
        )
        n_events += len(events) + events.n_outside
        n_offline += len(offline)
        stamps.frombytes(kept.timestamps.tobytes())
        codes.frombytes(kept.channels.tobytes())
        del events, kept, offline
    timestamps = np.frombuffer(stamps)
    meta = dict(
        n_events=n_events,
        n_kept_hw=timestamps.size,
        n_kept_offline=n_offline,
        identical_to_offline=int(identical),
        trigger_delay_ns=args.delay,
        gate_length_ns=length,
        jitter_sigma_ns=args.jitter,
    )
    # the channel column stays the draw's uint8 codes, written as their names
    columns = {"timestamp_ns": timestamps, "channel": np.frombuffer(codes, np.uint8)}
    return meta, columns, {"channel": CHANNELS}
