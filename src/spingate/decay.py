"""Multi-exponential fluorescence decay model and gated photon-count integrals.

The emitter is described by independent exponential decay components split
into three groups: spin-0 fluorescence, spin-1 fluorescence, and short-lived
background emission, plus a time-independent detector dark rate. With a
Gaussian instrument response of width ``irf_sigma`` each component becomes an
exponentially modified Gaussian (EMG).

Every count integral has a closed form, with or without the IRF: the gated
integral of an EMG is a difference of ex-Gaussian CDFs (Grushka, Anal. Chem.
44, 1733, 1972). One array kernel evaluates it for gates, onset grids and
histogram bins alike. Counts are "per pulse": multiply by the repetition
rate for steady-state rates.

Spin selection: operations take a selector that is either the string
``"ms0"`` / ``"ms1"`` or a float weight ``w`` in [0, 1] meaning a population
mixture ``(1 - w) * spin0 + w * spin1``. Driving the spin transition never
changes the emitted amplitude per excited population, only how the population
is shared between the two decay branches, so a partially saturated MW-on
channel is the mixture with ``w = C_sat``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import GateError
from .histogram import TcspcHistogram

SpinSelector = Union[str, float]


@dataclass(frozen=True)
class DecayComponent:
    """One exponential decay component.

    amplitude: counts/ns at the pulse instant, per excitation cycle.
    lifetime:  1/e decay time in ns.
    """

    amplitude: float
    lifetime: float
    label: str = ""

    def __post_init__(self):
        if not self.amplitude >= 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        if not self.lifetime > 0:
            raise ValueError(f"lifetime must be > 0, got {self.lifetime}")

    def scaled(self, factor: float) -> "DecayComponent":
        return DecayComponent(self.amplitude * factor, self.lifetime, self.label)


@dataclass(frozen=True)
class GateWindow:
    """Detection window [t_start, t_end) in ns after the pulse trigger."""

    t_start: float
    t_end: float = math.inf

    def __post_init__(self):
        if not (0 <= self.t_start < self.t_end):
            raise ValueError(
                f"gate window requires 0 <= t_start < t_end, got [{self.t_start}, {self.t_end})"
            )


@dataclass(frozen=True)
class PulseTrain:
    """Periodic excitation at rep_rate Hz; period in ns."""

    rep_rate: float

    def __post_init__(self):
        if not self.rep_rate > 0:
            raise ValueError(f"rep_rate must be > 0, got {self.rep_rate}")

    @property
    def period(self) -> float:
        return 1e9 / self.rep_rate


def _components(value, group: str) -> tuple[DecayComponent, ...]:
    comps = tuple(value)
    for c in comps:
        if not isinstance(c, DecayComponent):
            raise ValueError(f"{group} entries must be DecayComponent, got {type(c).__name__}")
    return comps


@dataclass(frozen=True)
class FluorescenceModel:
    """Full emitter model: two spin branches, background, dark rate, IRF."""

    spin0: tuple[DecayComponent, ...]
    spin1: tuple[DecayComponent, ...]
    background: tuple[DecayComponent, ...] = ()
    dark_rate: float = 0.0  # counts/ns, flat in time
    irf_sigma: float = 0.0  # ns, Gaussian IRF width
    pulse_time: float = 0.0  # ns, excitation instant within the period

    def __post_init__(self):
        object.__setattr__(self, "spin0", _components(self.spin0, "spin0"))
        object.__setattr__(self, "spin1", _components(self.spin1, "spin1"))
        object.__setattr__(self, "background", _components(self.background, "background"))
        if not self.spin0 or not self.spin1:
            raise ValueError("spin0 and spin1 must each contain at least one component")
        if not self.dark_rate >= 0:
            raise ValueError("dark_rate must be >= 0")
        if not self.irf_sigma >= 0:
            raise ValueError("irf_sigma must be >= 0")
        if not self.pulse_time >= 0:
            raise ValueError("pulse_time must be >= 0")

    def spin_components(self, spin: SpinSelector) -> tuple[DecayComponent, ...]:
        """Signal components for the selected spin state or mixture weight."""
        w = spin_weight(spin)
        if w == 0.0:
            return self.spin0
        if w == 1.0:
            return self.spin1
        return tuple(c.scaled(1.0 - w) for c in self.spin0) + tuple(
            c.scaled(w) for c in self.spin1
        )

    def scaled(self, factor: float) -> "FluorescenceModel":
        """Model with all emission amplitudes scaled; dark rate is detector
        property and stays fixed."""
        if not factor >= 0:
            raise ValueError("scale factor must be >= 0")
        return FluorescenceModel(
            spin0=tuple(c.scaled(factor) for c in self.spin0),
            spin1=tuple(c.scaled(factor) for c in self.spin1),
            background=tuple(c.scaled(factor) for c in self.background),
            dark_rate=self.dark_rate,
            irf_sigma=self.irf_sigma,
            pulse_time=self.pulse_time,
        )


def folded_model(model: FluorescenceModel, train: PulseTrain) -> FluorescenceModel:
    """Model corrected for decay tails wrapping into later pulse periods.

    The steady-state intensity under a pulse train is the single-pulse decay
    summed over all earlier pulses; for an exponential the geometric series
    folds into an amplitude factor 1/(1 - e^(-T/tau)) per component. Off by
    default everywhere else: apply explicitly when tail pile-up matters
    (period within a few lifetimes).
    """
    period = train.period

    def lift(comp: DecayComponent) -> DecayComponent:
        return comp.scaled(1.0 / -math.expm1(-period / comp.lifetime))

    return FluorescenceModel(
        spin0=tuple(lift(c) for c in model.spin0),
        spin1=tuple(lift(c) for c in model.spin1),
        background=tuple(lift(c) for c in model.background),
        dark_rate=model.dark_rate,
        irf_sigma=model.irf_sigma,
        pulse_time=model.pulse_time,
    )


def spin_weight(spin: SpinSelector) -> float:
    """Normalize a spin selector to a mixture weight in [0, 1]."""
    if isinstance(spin, str):
        if spin == "ms0":
            return 0.0
        if spin == "ms1":
            return 1.0
        raise ValueError(f"unknown spin selector {spin!r}, expected 'ms0', 'ms1' or a weight")
    w = float(spin)
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"spin mixture weight must be in [0, 1], got {w}")
    return w


@dataclass(frozen=True)
class GatedCounts:
    """Per-pulse counts inside a gate window, split by origin."""

    signal: float
    background: float
    dark: float

    @property
    def total(self) -> float:
        return self.signal + self.background + self.dark


def gated_counts_exponential(comp: DecayComponent, gate: GateWindow) -> float:
    """Closed-form per-pulse counts of one pure exponential inside a gate.

    n = A tau (exp(-t0/tau) - exp(-t1/tau)); the unbounded-gate limit drops
    the second term.
    """
    return float(_window_counts((comp,), 0.0, gate.t_start, gate.t_end))


def _tail(x, lifetime: float, sigma: float) -> np.ndarray:
    """Signed tail C(x) of one unit-area component, x in ns after the pulse.

    With the EMG survival function
    S(x) = Phi(-x/sigma) + exp(sigma^2/(2 tau^2) - x/tau + log Phi(x/sigma - sigma/tau)),
    C(x) is the CDF 1 - S(x) before the pulse (x < 0) and -S(x) from it on:
    each side keeps the tail that is small there, so differences never
    cancel against a value near 1. Both Phi terms enter with the same sign
    after the pulse, and S(inf) = 0 closes unbounded windows. sigma = 0 is
    the plain exponential, S(x) = exp(-x/tau) for x >= 0.
    """
    if sigma == 0.0:
        return np.where(x < 0.0, 0.0, -np.exp(-np.maximum(x, 0.0) / lifetime))
    # imported here so that IRF-free runs never pay for loading scipy
    from scipy.special import log_ndtr, ndtr

    z = x / sigma
    shifted = np.exp(0.5 * (sigma / lifetime) ** 2 - x / lifetime + log_ndtr(z - sigma / lifetime))
    return np.where(x < 0.0, 1.0, -1.0) * ndtr(-np.abs(z)) - shifted


def _window_counts(comps, sigma: float, x0, x1) -> np.ndarray | float:
    """Summed per-pulse counts of comps in [x0, x1), times relative to the pulse.

    A tau [S(x0) - S(x1)] per component, written as C(x1) - C(x0) plus the
    unit step C takes at x = 0. x0 and x1 broadcast against each other.
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    step = (x0 < 0.0) & (x1 >= 0.0)
    total = 0.0
    for c in comps:
        jump = _tail(x1, c.lifetime, sigma) - _tail(x0, c.lifetime, sigma) + step
        total = total + c.amplitude * c.lifetime * jump
    return total


def _gated(model: FluorescenceModel, spin: SpinSelector, t_start, t_end):
    """Per-pulse (signal, background, dark) counts in [t_start, t_end), elementwise."""
    x0 = t_start - model.pulse_time
    x1 = t_end - model.pulse_time
    signal = _window_counts(model.spin_components(spin), model.irf_sigma, x0, x1)
    background = _window_counts(model.background, model.irf_sigma, x0, x1)
    # 0 * inf from an unbounded gate must stay 0, not NaN
    dark = 0.0 if model.dark_rate == 0.0 else model.dark_rate * (t_end - t_start)
    return signal, background, dark


def gated_counts(model: FluorescenceModel, spin: SpinSelector, gate: GateWindow) -> GatedCounts:
    """Per-pulse counts in the gate, split into signal / background / dark."""
    signal, background, dark = _gated(model, spin, gate.t_start, gate.t_end)
    return GatedCounts(signal=float(signal), background=float(background), dark=float(dark))


def steady_rate(
    model: FluorescenceModel,
    spin: SpinSelector,
    gate_onset,
    train: PulseTrain,
    gate_end=math.inf,
) -> np.ndarray | float:
    """Steady-state detected rate (counts/s) with the gate open from
    gate_onset to gate_end in each period.

    This is the one definition of a channel's expected gated counts: rate
    times channel time. A gate ends at the period at the latest, so ends at
    or past it (the default is unbounded) are clipped to it. gate_onset and
    gate_end broadcast elementwise; scalars give a float, arrays an array.
    """
    onset = np.asarray(gate_onset, dtype=float)
    if not np.all(onset >= 0):
        raise GateError(f"gate onset must be >= 0, got {gate_onset}")
    if np.any(onset >= train.period):
        raise GateError("gate exceeds pulse period")
    end = np.minimum(gate_end, train.period)
    signal, background, dark = _gated(model, spin, onset, end)
    rate = train.rep_rate * (signal + background + dark)
    return float(rate) if np.ndim(rate) == 0 else rate


def histogram_expectation(
    model: FluorescenceModel,
    spin: SpinSelector,
    train: PulseTrain,
    bin_width: float,
    integration_time: float,
    channel: str = "mw_off",
) -> TcspcHistogram:
    """Expected (real-valued) TCSPC histogram over one period.

    Bin b holds integration_time * f_L * integral of the intensity over
    [b*dt, (b+1)*dt). The bin width must tile the period exactly.
    """
    if not bin_width > 0:
        raise ValueError("bin_width must be positive")
    period = train.period
    n_float = period / bin_width
    n_bins = round(n_float)
    if n_bins < 1 or abs(n_bins * bin_width - period) > 1e-9 * period:
        raise ValueError(
            f"bin width {bin_width} ns does not tile the {period} ns period exactly"
        )
    x = np.arange(n_bins + 1) * bin_width - model.pulse_time
    comps = model.spin_components(spin) + model.background
    per_bin = _window_counts(comps, model.irf_sigma, x[:-1], x[1:]) + model.dark_rate * bin_width
    counts = per_bin * (integration_time * train.rep_rate)
    return TcspcHistogram(
        bin_width=bin_width,
        counts=counts,
        channel=channel,
        integration_time=integration_time,
        rep_rate=train.rep_rate,
    )
