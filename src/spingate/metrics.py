"""Figures of merit for spin-dependent photon counting.

Contrast, shot-noise-limited SNR, the gating enhancement factor and its
quadratic measurement-time speedup, and the CW magnetic-resonance
sensitivity. All functions are pure algebra over counts or rates; no model
evaluation happens here. They take the two channels stacked on axis 0 in
the order of gating.CHANNELS, (mw_off, mw_on): a 2-tuple, or the (2, ...)
array that decay.channel_rates returns. Each channel holds a scalar or
equal-shape arrays (one value per grid point or trial), and the functions
work elementwise.

The SNR is the one definition every command uses: (N0 - N1)/sqrt(N0 + N1),
and exactly 0 where N0 + N1 = 0, since a sample with no counts carries no
signal. Contrast and sensitivity raise where they are undefined.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MetricError

# CODATA 2018
PLANCK_H = 6.62607015e-34  # J s
ELECTRON_G = 2.00231930436256
BOHR_MAGNETON = 9.2740100783e-24  # J/T


def _channels(values, quantity: str):
    """The (mw_off, mw_on) channels on axis 0, checked non-negative."""
    off, on = values
    if not (np.all(off >= 0) and np.all(on >= 0)):
        raise ValueError(f"{quantity} must be non-negative, got ({off}, {on})")
    return off, on


def contrast(counts) -> float | np.ndarray:
    """Readout contrast C = (N0 - N1) / N0.

    Negative values are reported as-is (inverted dip), not clamped.
    """
    n0, n1 = _channels(counts, "counts")
    if np.any(n0 == 0):
        raise MetricError("undefined contrast: reference channel N0 has zero counts")
    return (n0 - n1) / n0


def snr(counts) -> float | np.ndarray:
    """Shot-noise-limited SNR = (N0 - N1) / sqrt(N0 + N1), 0 where N0 + N1 = 0."""
    n0, n1 = _channels(counts, "counts")
    total = n0 + n1
    out = np.zeros(np.shape(total))
    np.divide(n0 - n1, np.sqrt(total), out=out, where=total != 0)
    return out[()]


def ef_theoretical(contrast: float, bg_ratio: float) -> float:
    """Ideal SNR enhancement from gating out all background.

    EF = sqrt(1 + 2/(2 - C) * n_BG/n0), assuming the gate removes the
    background completely while keeping the full signal.
    """
    if bg_ratio < 0:
        raise MetricError(f"background ratio must be >= 0, got {bg_ratio}")
    if contrast >= 2:
        raise MetricError(f"contrast must be < 2, got {contrast}")
    return math.sqrt(1.0 + 2.0 / (2.0 - contrast) * bg_ratio)


def speedup(ef: float) -> float:
    """Measurement-time speedup SF = EF^2 at equal target SNR."""
    return ef * ef


def ef_empirical(gated, ungated) -> float:
    """Measured enhancement factor: SNR(gated) / SNR(ungated)."""
    return snr(gated) / snr(ungated)


def sensitivity_cw(linewidth: float, rates) -> float | np.ndarray:
    """Shot-noise-limited CW magnetic-field sensitivity in T / sqrt(Hz).

    eta = 4/(3 sqrt(3)) * h/(g_e mu_B) * dnu * sqrt(R0) / (R0 - R1)
    with dnu the resonance FWHM and R0 > R1 the off/on-resonance rates
    (counts/s, background included).
    """
    r0, r1 = _channels(rates, "rates")
    if not linewidth > 0:
        raise MetricError(f"linewidth must be > 0, got {linewidth}")
    if np.any(r0 <= r1):
        raise MetricError("non-positive ODMR dip")
    prefactor = 4.0 / (3.0 * math.sqrt(3.0))
    quantum = PLANCK_H / (ELECTRON_G * BOHR_MAGNETON)
    return prefactor * quantum * linewidth * np.sqrt(r0) / (r0 - r1)
