"""TCSPC histogram container.

A histogram always spans exactly one pulse period: photon arrival times are
folded modulo the laser period before binning, so ``bin_width * n_bins``
must reproduce the period to within 1e-9 relative.
"""

from __future__ import annotations

import numpy as np

from . import decay, reader
from .errors import GateError
from .record import Record, frozen_array, require_finite

PERIOD_REL_TOL = 1e-9


class TcspcHistogram(Record):
    """Per-period photon arrival histogram for one MW channel.

    counts may be real-valued (an expectation) or integer (a sampled or
    measured histogram); both obey the same invariants.
    """

    bin_width: float  # ns
    counts: np.ndarray  # per bin
    channel: str  # one of decay.CHANNELS
    channel_time: float  # s, the channel's integration time
    rep_rate: float  # Hz

    def __post_init__(self):
        if self.channel not in decay.CHANNELS:
            raise ValueError(
                f"unknown channel {self.channel!r}, expected one of {decay.CHANNELS}"
            )
        if not self.bin_width > 0:
            raise ValueError("bin_width must be positive")
        if not self.rep_rate > 0:
            raise ValueError("rep_rate must be positive")
        if not self.channel_time >= 0:
            raise ValueError("channel_time must be non-negative")
        require_finite(self, "channel_time")
        counts = frozen_array(self.counts, None)  # int or float, as given
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a non-empty 1-D array")
        if not np.all(counts >= 0):  # nan fails too
            raise ValueError("counts must be non-negative")
        if not np.all(np.isfinite(counts)):
            raise ValueError("counts must be finite")
        object.__setattr__(self, "counts", counts)
        period = self.period
        if abs(self.bin_width * counts.size - period) > PERIOD_REL_TOL * period:
            raise ValueError(
                f"bin_width {self.bin_width} ns x {counts.size} bins does not cover "
                f"the {period} ns pulse period"
            )

    @property
    def period(self) -> float:
        """Pulse period in ns."""
        return 1e9 / self.rep_rate

    @property
    def n_bins(self) -> int:
        return int(self.counts.size)

    @property
    def bin_starts(self) -> np.ndarray:
        return np.arange(self.n_bins) * self.bin_width

    def aligned_slice(self, t_start: float, t_end: float) -> slice:
        """Bin-index slice covering [t_start, t_end).

        Both edges must coincide with bin boundaries: partial bins would mix
        gated and ungated photons, so they are rejected rather than weighted.
        An unbounded or beyond-period t_end means "to the end of the period".
        """
        i0 = _edge_index(t_start, self.bin_width)
        if i0 is None or i0 > self.n_bins:
            raise GateError(
                f"gate start {t_start} ns is not aligned to the {self.bin_width} ns "
                "bin grid (no partial-bin gating)"
            )
        if t_end >= self.period * (1.0 - PERIOD_REL_TOL):
            return slice(i0, self.n_bins)
        i1 = _edge_index(t_end, self.bin_width)
        if i1 is None or i1 > self.n_bins:
            raise GateError(
                f"gate end {t_end} ns is not aligned to the {self.bin_width} ns "
                "bin grid (no partial-bin gating)"
            )
        return slice(i0, i1)

    def gated_total(self, t_start: float, t_end: float = np.inf) -> float:
        """Sum of counts in the aligned window [t_start, t_end)."""
        return float(np.sum(self.counts[self.aligned_slice(t_start, t_end)]))


def _edge_index(t: float, bin_width: float) -> int | None:
    """Index of the bin edge at time t, or None if t is not an edge."""
    idx = round(t / bin_width)
    if abs(t - idx * bin_width) > PERIOD_REL_TOL * max(abs(t), bin_width):
        return None
    return int(idx)


# Command-line handler: handler(args, run, seed) -> (metadata, columns).


def cmd_gate_apply(args, run, seed):
    hist = reader.read_histogram(args.input)
    gate = decay.gate_from_args(args)
    window = hist.aligned_slice(gate.t_start, gate.t_end)
    counts = hist.counts[window]
    meta = dict(
        tau_c_ns=args.tau_c,
        t_end_ns="period" if args.t_end is None else args.t_end,
        bin_width_ns=hist.bin_width,
        rep_rate_hz=hist.rep_rate,
        integration_s=hist.channel_time,
        channel=hist.channel,
        gated_counts=float(counts.sum()),
    )
    return meta, {"bin_start_ns": hist.bin_starts[window], "counts": counts}
