"""Multi-exponential fluorescence decay model and gated photon-count integrals.

The emitter is described by independent exponential decay components split
into three groups: spin-0 fluorescence, spin-1 fluorescence, and short-lived
background emission, plus a time-independent detector dark rate. With a
Gaussian instrument response of width ``irf_sigma`` each component becomes an
exponentially modified Gaussian (EMG).

Every count integral has a closed form, with or without the IRF: the gated
integral of an EMG is a difference of ex-Gaussian CDFs (Grushka, Anal. Chem.
44, 1733, 1972). One array kernel evaluates it for gates, onset grids and
histogram bins alike. Its erfc and erfcx are Cody's rational Chebyshev
approximations (Math. Comp. 23, 631, 1969) in plain numpy arithmetic, so the
module needs nothing beyond numpy. Counts are "per pulse": multiply by the
repetition rate for steady-state rates.

Spin selection: operations take a selector that is either the string
``"ms0"`` / ``"ms1"`` or a float weight ``w`` in [0, 1] meaning a population
mixture ``(1 - w) * spin0 + w * spin1``. Driving the spin transition never
changes the emitted amplitude per excited population, only how the population
is shared between the two decay branches, so a partially saturated MW-on
channel is the mixture with ``w = C_sat``. ``gating.CHANNELS`` names the two
MW channels, and ``channel_weights`` is the one statement of their mixtures.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from . import acquisition, histogram
from .errors import ConfigError, GateError
from .gating import CHANNELS, GateWindow
from .record import Record, replace, require_finite, require_finite_means

SpinSelector = Union[str, float]


class DecayComponent(Record):
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
        require_finite(self, "amplitude", "lifetime")

    def scaled(self, factor: float) -> "DecayComponent":
        return DecayComponent(self.amplitude * factor, self.lifetime, self.label)


class PulseTrain(Record):
    """Periodic excitation at rep_rate Hz; period in ns."""

    rep_rate: float

    def __post_init__(self):
        if not self.rep_rate > 0:
            raise ValueError(f"rep_rate must be > 0, got {self.rep_rate}")
        require_finite(self, "rep_rate")
        if not math.isfinite(self.period):
            raise ValueError(f"rep_rate {self.rep_rate:g} Hz: the period 1e9 / rep_rate overflows "
                             "float64 to inf ns")

    @property
    def period(self) -> float:
        return 1e9 / self.rep_rate


def _components(value, group: str) -> tuple[DecayComponent, ...]:
    comps = tuple(value)
    for c in comps:
        if not isinstance(c, DecayComponent):
            raise ValueError(f"{group} entries must be DecayComponent, got {type(c).__name__}")
    return comps


class FluorescenceModel(Record):
    """Full emitter model: two spin branches, background, dark rate, IRF,
    and the excitation instant within the period (pulse_time, which a
    config refuses at or past its train's period)."""

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
        require_finite(self, "dark_rate", "irf_sigma", "pulse_time")

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
        return _scale_components(self, lambda comp: factor)


def _scale_components(model: FluorescenceModel, factor_of) -> FluorescenceModel:
    """model with each emission component comp scaled by factor_of(comp);
    the dark rate, IRF and pulse time stay."""
    return replace(
        model,
        **{
            group: tuple(comp.scaled(factor_of(comp)) for comp in getattr(model, group))
            for group in ("spin0", "spin1", "background")
        },
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
    return _scale_components(model, lambda comp: 1.0 / -math.expm1(-period / comp.lifetime))


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


def channel_weights(c_sat: float) -> tuple[float, float]:
    """Spin-1 mixture weight of each MW channel, by code: mw_off counts the
    pure ms0 branch, mw_on the mixture with weight c_sat."""
    return (0.0, spin_weight(c_sat))


class GatedCounts(Record):
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


# Cody's rational Chebyshev approximations to erf, erfc and erfcx (Math.
# Comp. 23, 631, 1969), with the coefficients of netlib SPECFUN's CALERF,
# listed highest power first. Three ranges of |x|:
# erf(x) = x R(x^2) up to 0.46875, erfcx(x) = R(x) up to 4, and
# erfcx(x) = (1/sqrt(pi) - R(1/x^2) / x^2) / x beyond.
_ERF_SMALL = 0.46875
_ERFC_MID = 4.0
_ERF_NUM = (
    1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
    3.77485237685302021e02, 3.20937758913846947e03,
)
_ERF_DEN = (
    1.0, 2.36012909523441209e01, 2.44024637934444173e02,
    1.28261652607737228e03, 2.84423683343917062e03,
)
_ERFCX_MID_NUM = (
    2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
    6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
    1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03,
)
_ERFCX_MID_DEN = (
    1.0, 1.57449261107098347e01, 1.17693950891312499e02,
    5.37181101862009858e02, 1.62138957456669019e03, 3.29079923573345963e03,
    4.36261909014324716e03, 3.43936767414372164e03, 1.23033935480374942e03,
)
_ERFCX_BIG_NUM = (
    1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
    1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4,
)
_ERFCX_BIG_DEN = (
    1.0, 2.56852019228982242e00, 1.87295284992346725e00,
    5.27905102951428412e-1, 6.05183413124413191e-2, 2.33520497626869185e-3,
)
_FRAC_1_SQRT_PI = 5.6418958354775628695e-1
_SQRT2 = math.sqrt(2.0)
_ERFC_ZERO = 27.5  # erfc(x) < 2**-1075 past x = 27.39, so it rounds to 0
_RATIO_MAX = math.sqrt(np.finfo(float).max)  # the least sigma/tau whose square is inf


def _poly(coeffs, t: np.ndarray) -> np.ndarray:
    """Horner evaluation of coeffs (highest power first) at t."""
    acc = np.full_like(t, coeffs[0])
    for c in coeffs[1:]:
        acc *= t
        acc += c
    return acc


def _erf_small(x: np.ndarray) -> np.ndarray:
    """erf(x) for |x| <= 0.46875."""
    t = x * x
    return x * _poly(_ERF_NUM, t) / _poly(_ERF_DEN, t)


def _erfcx_large(y: np.ndarray) -> np.ndarray:
    """erfcx(y) for y > 0.46875; nan passes through."""
    out = np.empty_like(y)
    mid = y <= _ERFC_MID
    ym = y[mid]
    out[mid] = _poly(_ERFCX_MID_NUM, ym) / _poly(_ERFCX_MID_DEN, ym)
    yb = y[~mid]
    t = 1.0 / (yb * yb)
    out[~mid] = (_FRAC_1_SQRT_PI - t * _poly(_ERFCX_BIG_NUM, t) / _poly(_ERFCX_BIG_DEN, t)) / yb
    return out


def _exp_square(x: np.ndarray, sign: float) -> np.ndarray:
    """exp(sign * x^2), with x split at a multiple of 1/16 so that the
    square carries no rounding error. Past |x| = 64 the result is 0 or inf."""
    head = np.trunc(np.clip(x, -64.0, 64.0) * 16.0) / 16.0
    return np.exp(sign * head * head) * np.exp(sign * (x - head) * (x + head))


def _erfc(x) -> np.ndarray:
    """Complementary error function, elementwise (Cody 1969)."""
    x = np.asarray(x, dtype=float)
    y = np.abs(x)
    out = np.where(x < 0.0, 2.0, 0.0)
    small = y <= _ERF_SMALL
    out[small] = 1.0 - _erf_small(x[small])
    tail = ~small & ~(y >= _ERFC_ZERO)  # nan falls here and stays nan
    xt = x[tail]
    value = _exp_square(xt, -1.0) * _erfcx_large(np.abs(xt))
    out[tail] = np.where(xt < 0.0, 2.0 - value, value)
    return out[()]


def _erfcx(x) -> np.ndarray:
    """Scaled complementary error function exp(x^2) erfc(x), elementwise
    (Cody 1969). It overflows to inf below x = -26.63."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) <= _ERF_SMALL
    xs = x[small]
    out[small] = np.exp(xs * xs) * (1.0 - _erf_small(xs))
    xb = x[~small]
    tail = _erfcx_large(np.abs(xb))
    neg = xb < 0.0
    with np.errstate(over="ignore"):
        tail[neg] = 2.0 * _exp_square(xb[neg], 1.0) - tail[neg]
    out[~small] = tail
    return out[()]


def _tail(x, lifetime: float, sigma: float) -> np.ndarray:
    """Signed tail C(x) of one unit-area component, x in ns after the pulse.

    With z = x/sigma, u = z - sigma/tau and the EMG survival function
    S(x) = Phi(-z) + exp(sigma^2/(2 tau^2) - x/tau) Phi(u),
    C(x) is the CDF 1 - S(x) before the pulse (x < 0) and -S(x) from it on:
    each side keeps the tail that is small there, so differences never
    cancel against a value near 1. Both terms enter with the same sign
    after the pulse, and S(inf) = 0 closes unbounded windows. Where u < 0
    the exponent cancels against Phi's own exp(-u^2/2), leaving
    erfcx(-u/sqrt 2) exp(-z^2/2) / 2, which neither overflows nor
    underflows early. sigma = 0 is the plain exponential,
    S(x) = exp(-x/tau) for x >= 0. A sigma/tau whose square overflows
    float64 is rejected, naming both.
    """
    if sigma == 0.0:
        return np.where(x < 0.0, 0.0, -np.exp(-np.maximum(x, 0.0) / lifetime))
    ratio = sigma / lifetime
    if not ratio < _RATIO_MAX:
        raise ValueError(
            f"irf_sigma {sigma:g} ns over a lifetime of {lifetime:g} ns is {ratio:g}, "
            "whose square overflows float64"
        )
    z = x / sigma
    u = z - ratio
    below = u < 0.0
    above = ~below
    shifted = np.empty_like(z)
    shifted[below] = _erfcx(-u[below] / _SQRT2) * np.exp(-0.5 * z[below] ** 2)
    shifted[above] = np.exp(0.5 * ratio**2 - x[above] / lifetime) * _erfc(
        -u[above] / _SQRT2
    )
    return 0.5 * (np.where(x < 0.0, 1.0, -1.0) * _erfc(np.abs(z) / _SQRT2) - shifted)


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
    with np.errstate(over="ignore"):  # refused below, naming the scale
        signal, background, dark = _gated(model, spin, onset, end)
        rate = train.rep_rate * (signal + background + dark)
    require_finite_means(rate, f"detected rates (rep_rate {train.rep_rate:g} Hz)")
    return float(rate) if np.ndim(rate) == 0 else rate


def channel_rates(
    model: FluorescenceModel, c_sat: float, gate_onset, train: PulseTrain, gate_end=math.inf
) -> np.ndarray:
    """steady_rate of each MW channel stacked by code (see channel_weights):
    shape (2,) + the broadcast shape of gate_onset and gate_end."""
    return np.array(
        [steady_rate(model, w, gate_onset, train, gate_end) for w in channel_weights(c_sat)]
    )


def histogram_expectation(
    model: FluorescenceModel,
    spin: SpinSelector,
    train: PulseTrain,
    bin_width: float,
    channel_time: float,
    channel: str = "mw_off",
) -> histogram.TcspcHistogram:
    """Expected (real-valued) TCSPC histogram of one MW channel over one
    period.

    Bin b holds channel_time * f_L * integral of the intensity over
    [b*dt, (b+1)*dt). The bin width must tile the period exactly.
    """
    if not bin_width > 0:
        raise ValueError("bin_width must be positive")
    period = train.period
    n_float = period / bin_width
    if not math.isfinite(n_float):
        raise ValueError(
            f"the {period:g} ns period (rep_rate {train.rep_rate:g} Hz) holds {n_float:g} "
            f"bins of bin_width {bin_width:g} ns, not a finite count"
        )
    n_bins = round(n_float)
    if n_bins < 1 or abs(n_bins * bin_width - period) > 1e-9 * period:
        raise ValueError(
            f"bin width {bin_width} ns does not tile the {period} ns period exactly"
        )
    edges = np.arange(n_bins + 1) * bin_width - model.pulse_time
    comps = model.spin_components(spin) + model.background
    # _window_counts over each bin, with each edge's tail taken once; C's unit
    # step at the pulse falls in the bin where edges >= 0 turns true
    step = np.diff(edges >= 0.0)
    per_bin = sum(
        c.amplitude * c.lifetime * (np.diff(_tail(edges, c.lifetime, model.irf_sigma)) + step)
        for c in comps
    ) + model.dark_rate * bin_width
    counts = per_bin * (channel_time * train.rep_rate)
    require_finite_means(counts, f"expected counts per bin (channel_time {channel_time:g} s)")
    return histogram.TcspcHistogram(
        bin_width=bin_width,
        counts=counts,
        channel=channel,
        channel_time=channel_time,
        rep_rate=train.rep_rate,
    )


# Command-line handler: handler(args, run, seed) -> the command's result.


def cmd_simulate(args, run, seed) -> histogram.TcspcHistogram:
    spin = channel_weights(run.sweep.c_sat)[CHANNELS.index(args.channel)]
    expected = histogram_expectation(
        run.model, spin, run.train, args.bin_width, run.sweep.channel_time, channel=args.channel
    )
    if not args.sample:
        return expected
    if seed is None:
        raise ConfigError("--sample requires --seed")
    return acquisition.sample_histogram(expected, seed)
