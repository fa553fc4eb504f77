"""The gate window and the MW channel table, shared by every module that
gates counts or names a channel.

Kept apart from the decay model, so that the commands that only read a
file and gate or fit it (gate-apply, odmr-fit) do not load that model.
"""

from __future__ import annotations

import math

from .record import Record

# The MW channels; a channel's code is its index. decay.channel_weights
# gives each channel's spin mixture.
CHANNELS = ("mw_off", "mw_on")


class GateWindow(Record):
    """Detection window [t_start, t_end) in ns after the pulse trigger."""

    t_start: float
    t_end: float = math.inf

    def __post_init__(self):
        if not (0 <= self.t_start < self.t_end):
            raise ValueError(
                f"gate window requires 0 <= t_start < t_end, got [{self.t_start}, {self.t_end})"
            )


def gate_from_args(args) -> GateWindow:
    """The gate of --tau-c and --t-end; without --t-end it runs to the period."""
    return GateWindow(args.tau_c, math.inf if args.t_end is None else args.t_end)
