"""Figures of merit for spin-dependent photon counting.

Contrast, shot-noise-limited SNR, the gating enhancement factor and its
quadratic measurement-time speedup, and the CW magnetic-resonance
sensitivity. All functions are pure algebra over count or rate pairs; no
model evaluation happens here. A pair holds scalars or equal-shape arrays
(one pair per grid point); contrast, SNR and sensitivity work elementwise
and raise if any element is undefined.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MetricError
from .record import Record


class CountPair(Record):
    """Detected counts per channel: n0 = MW off (reference), n1 = MW on."""

    n0: float | np.ndarray
    n1: float | np.ndarray

    def __post_init__(self):
        if not (np.all(self.n0 >= 0) and np.all(self.n1 >= 0)):
            raise ValueError(f"counts must be non-negative, got ({self.n0}, {self.n1})")


class RatePair(Record):
    """Detected steady rates (counts/s) per channel, background included."""

    r0: float | np.ndarray
    r1: float | np.ndarray

    def __post_init__(self):
        if not (np.all(self.r0 >= 0) and np.all(self.r1 >= 0)):
            raise ValueError(f"rates must be non-negative, got ({self.r0}, {self.r1})")


# CODATA 2018
PLANCK_H = 6.62607015e-34  # J s
ELECTRON_G = 2.00231930436256
BOHR_MAGNETON = 9.2740100783e-24  # J/T


def contrast(p: CountPair) -> float | np.ndarray:
    """Readout contrast C = (N0 - N1) / N0.

    Negative values are reported as-is (inverted dip), not clamped.
    """
    if np.any(p.n0 == 0):
        raise MetricError("undefined contrast: reference channel N0 has zero counts")
    return (p.n0 - p.n1) / p.n0


def snr(p: CountPair) -> float | np.ndarray:
    """Shot-noise-limited SNR = (N0 - N1) / sqrt(N0 + N1)."""
    total = p.n0 + p.n1
    if np.any(total == 0):
        raise MetricError("undefined SNR: both channels have zero counts")
    return (p.n0 - p.n1) / np.sqrt(total)


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


def ef_empirical(gated: CountPair, ungated: CountPair) -> float:
    """Measured enhancement factor: SNR(gated) / SNR(ungated)."""
    return snr(gated) / snr(ungated)


def sensitivity_cw(linewidth: float, rates: RatePair) -> float | np.ndarray:
    """Shot-noise-limited CW magnetic-field sensitivity in T / sqrt(Hz).

    eta = 4/(3 sqrt(3)) * h/(g_e mu_B) * dnu * sqrt(R0) / (R0 - R1)
    with dnu the resonance FWHM and R0 > R1 the off/on-resonance rates.
    """
    if not linewidth > 0:
        raise MetricError(f"linewidth must be > 0, got {linewidth}")
    if np.any(rates.r0 <= rates.r1):
        raise MetricError("non-positive ODMR dip")
    prefactor = 4.0 / (3.0 * math.sqrt(3.0))
    quantum = PLANCK_H / (ELECTRON_G * BOHR_MAGNETON)
    return prefactor * quantum * linewidth * np.sqrt(rates.r0) / (rates.r0 - rates.r1)
