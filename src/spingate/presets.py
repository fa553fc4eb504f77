"""Canonical synthetic emitter models.

Two scenarios recur in tests and examples:

* "bulk": NV centers in bulk diamond over a short-lived SiV background
  (lifetimes 12 / 8 ns vs 1.7 ns), moderate background, 20 MHz excitation.
* "fnd": NV centers in ~200 nm fluorescent nanodiamonds on a nitrocellulose
  substrate whose broadband background decays with ~4 ns; FND lifetimes are
  longer than bulk (here 25 / 14 ns, m_S=+-1 shortened by the same ~0.56
  ratio seen in nanodiamond ensembles) and the background dominates, with
  10 MHz excitation.

Both are fixed models. Background strength is specified indirectly: bulk
by a 3:1 integrated background:signal ratio, fnd by the 1.2 % ungated ODMR
contrast it dilutes the signal down to. A config's background_ratio and
background_ratio_mode keys (background_amplitude) give any other ratio.
"""

from __future__ import annotations

from .decay import DecayComponent, FluorescenceModel, GateWindow, PulseTrain, gated_counts_exponential

BULK_REP_RATE = 20e6  # Hz
FND_REP_RATE = 10e6  # Hz
BULK_C_SAT = 0.15
FND_C_SAT = 0.4


def background_amplitude(
    ratio: float,
    bg_lifetime: float,
    spin0: tuple[DecayComponent, ...],
    period: float,
    mode: str = "amplitude",
) -> float:
    """Background amplitude realizing a background:signal ratio.

    mode="amplitude": ratio of peak amplitudes, A_bg = ratio * sum(A_spin0).
    mode="integrated": ratio of per-period counts, solved so that the
    background integral over [0, period) equals ratio times the spin-0 one.
    """
    if not ratio >= 0:
        raise ValueError(f"background ratio must be >= 0, got {ratio}")
    if mode == "amplitude":
        return ratio * sum(c.amplitude for c in spin0)
    if mode == "integrated":
        window = GateWindow(0.0, period)
        signal = sum(gated_counts_exponential(c, window) for c in spin0)
        unit_bg = gated_counts_exponential(DecayComponent(1.0, bg_lifetime), window)
        return ratio * signal / unit_bg
    raise ValueError(f"unknown ratio mode {mode!r}, expected 'amplitude' or 'integrated'")


def bulk_model() -> FluorescenceModel:
    """Bulk-diamond NV over SiV background, 3:1 integrated at 20 MHz."""
    spin0 = (DecayComponent(1.0, 12.0, "NV ms0"),)
    spin1 = (DecayComponent(1.0, 8.0, "NV ms1"),)
    a_bg = background_amplitude(3.0, 1.7, spin0, PulseTrain(BULK_REP_RATE).period, "integrated")
    return FluorescenceModel(
        spin0=spin0,
        spin1=spin1,
        background=(DecayComponent(a_bg, 1.7, "SiV"),),
    )


def _fnd_background_amplitude(
    target_ungated_contrast: float,
    c_sat: float,
    spin0: tuple[DecayComponent, ...],
    spin1: tuple[DecayComponent, ...],
    bg_lifetime: float,
    period: float,
) -> float:
    """Background amplitude that dilutes the ungated contrast to a target.

    Ungated contrast with mixing weight c_sat is
        C_u = c_sat * (n0 - n1) / (n0 + n_bg)
    over a full period; solve for the background amplitude.
    """
    window = GateWindow(0.0, period)
    n0 = sum(gated_counts_exponential(c, window) for c in spin0)
    n1 = sum(gated_counts_exponential(c, window) for c in spin1)
    unit_bg = gated_counts_exponential(DecayComponent(1.0, bg_lifetime), window)
    return (c_sat * (n0 - n1) / target_ungated_contrast - n0) / unit_bg


def fnd_model() -> FluorescenceModel:
    """Nanodiamond NV over strong nitrocellulose background at 10 MHz.

    The background amplitude is solved so the full-period contrast is 1.2 %
    at the saturation weight FND_C_SAT, which puts the integrated background
    near 13:1.
    """
    spin0 = (DecayComponent(1.0, 25.0, "FND ms0"),)
    spin1 = (DecayComponent(1.0, 14.0, "FND ms1"),)
    a_bg = _fnd_background_amplitude(
        0.012, FND_C_SAT, spin0, spin1, 4.0, PulseTrain(FND_REP_RATE).period
    )
    return FluorescenceModel(
        spin0=spin0,
        spin1=spin1,
        background=(DecayComponent(a_bg, 4.0, "NC substrate"),),
    )
