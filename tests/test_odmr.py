"""ODMR synthesis, double-Lorentzian fitting, sensitivity.

The noiseless round-trip oracle relies on the exact algebra
counts = N0 (1 - p C) with p the truth mixing profile: a synthesized
spectrum IS a Lorentzian doublet with baseline N0 and depths d_k C, so the
fit must recover those mapped parameters to float accuracy.
"""

import math

import numpy as np
import pytest

import spingate.odmr as odmr_mod
from spingate.decay import PulseTrain, gated_counts
from spingate.gating import GateWindow
from spingate.errors import FitError, GateError, NonConvergenceError
from spingate.metrics import sensitivity_cw
from spingate.odmr import (
    DoubletTruth,
    LorentzianDoublet,
    OdmrSpectrum,
    fit_double_lorentzian,
    sensitivity_from_fit,
    synth_odmr,
)
from spingate.presets import BULK_C_SAT, BULK_REP_RATE, bulk_model
from spingate.record import replace

TRAIN = PulseTrain(BULK_REP_RATE)
FREQS = np.linspace(2.84e9, 2.90e9, 121)
TRUTH = DoubletTruth(
    center1=2.865e9,
    fwhm1=8e6,
    depth1=0.3,
    center2=2.875e9,
    fwhm2=8e6,
    depth2=0.3,
)


def channel_counts(gate: GateWindow | None, integration: float) -> tuple[float, float]:
    window = gate if gate is not None else GateWindow(0.0, TRAIN.period)
    scale = TRAIN.rep_rate * integration
    n0 = gated_counts(bulk_model(), "ms0", window).total * scale
    n1 = gated_counts(bulk_model(), "ms1", window).total * scale
    return n0, n1


def mapped_truth(gate: GateWindow | None, integration: float) -> dict:
    n0, n1 = channel_counts(gate, integration)
    c = (n0 - n1) / n0
    return {
        "baseline": n0,
        "center1": TRUTH.center1,
        "fwhm1": TRUTH.fwhm1,
        "depth1": TRUTH.depth1 * c,
        "center2": TRUTH.center2,
        "fwhm2": TRUTH.fwhm2,
        "depth2": TRUTH.depth2 * c,
    }


class TestSynth:
    def test_flat_off_resonance(self):
        far = DoubletTruth(
            center1=2.0e9, fwhm1=1e6, depth1=0.9, center2=2.01e9, fwhm2=1e6, depth2=0.9
        )
        sp = synth_odmr(bulk_model(), TRAIN, None, FREQS, far, 0.5)
        n0, _ = channel_counts(None, 0.5)
        assert np.all(np.abs(sp.counts - n0) / n0 < 1e-4)

    def test_single_dip_contrast_at_center(self):
        single = DoubletTruth(
            center1=2.87e9, fwhm1=8e6, depth1=0.4, center2=2.87e9, fwhm2=8e6, depth2=0.0
        )
        gate = GateWindow(9.2, 50.0)
        freqs = np.array([2.6e9, 2.87e9, 3.1e9])
        sp = synth_odmr(bulk_model(), TRAIN, gate, freqs, single, 0.5)
        n0, n1 = channel_counts(gate, 0.5)
        c_gate = (n0 - n1) / n0
        got_contrast = (sp.counts[0] - sp.counts[1]) / sp.counts[0]
        # off-resonance points are not exactly n0 (Lorentzian tails), so
        # compare against the exact mixing value instead
        p = single.population(np.array([2.87e9]))[0]
        assert p == pytest.approx(0.4, rel=1e-12)
        assert got_contrast == pytest.approx(0.4 * c_gate, rel=1e-3)
        exact = (1 - single.population(freqs[:1]))[0] * n0 + single.population(freqs[:1])[
            0
        ] * n1
        assert sp.counts[0] == pytest.approx(exact, rel=1e-12)

    def test_mixing_linearity_exact(self):
        gate = GateWindow(6.0, 50.0)
        sp = synth_odmr(bulk_model(), TRAIN, gate, FREQS, TRUTH, 0.25)
        n0, n1 = channel_counts(gate, 0.25)
        p = TRUTH.population(FREQS)
        want = (1.0 - p) * n0 + p * n1
        assert np.allclose(sp.counts, want, rtol=1e-12, atol=0.0)

    def test_poisson_sampling_deterministic(self):
        a = synth_odmr(bulk_model(), TRAIN, None, FREQS, TRUTH, 0.1, seed=5)
        b = synth_odmr(bulk_model(), TRAIN, None, FREQS, TRUTH, 0.1, seed=5)
        assert np.array_equal(a.counts, b.counts)
        assert np.all(a.counts == np.round(a.counts))

    def test_gate_must_fit_period(self):
        with pytest.raises(GateError, match="gate exceeds pulse period"):
            synth_odmr(bulk_model(), TRAIN, GateWindow(55.0, 60.0), FREQS, TRUTH, 0.1)

    @pytest.mark.parametrize(
        "integration, message",
        [
            (-1.0, "must be > 0"),
            (0.0, "must be > 0"),
            (math.nan, "must be > 0"),
            (math.inf, "must be finite, got inf"),
        ],
    )
    @pytest.mark.parametrize("seed", [None, 1])
    def test_integration_checked_before_the_draw(self, integration, message, seed):
        # the spectrum's own message, with or without Poisson noise
        with pytest.raises(ValueError, match=f"^integration_per_point {message}$"):
            synth_odmr(bulk_model(), TRAIN, None, FREQS, TRUTH, integration, seed=seed)
        with pytest.raises(ValueError, match=f"^integration_per_point {message}$"):
            OdmrSpectrum(FREQS, np.ones(FREQS.size), integration)


class TestFitRoundTrip:
    def test_exact_doublet_recovery(self):
        truth = LorentzianDoublet(
            baseline=1e5,
            center1=2.862e9,
            fwhm1=6e6,
            depth1=0.12,
            center2=2.878e9,
            fwhm2=9e6,
            depth2=0.2,
        )
        sp = OdmrSpectrum(freqs=FREQS, counts=truth.evaluate(FREQS), integration_per_point=1.0)
        fit, residual = fit_double_lorentzian(sp)
        for name in ("baseline", "center1", "fwhm1", "depth1", "center2", "fwhm2", "depth2"):
            assert getattr(fit, name) == pytest.approx(getattr(truth, name), rel=1e-6)
        assert residual < 1e-6 * 1e5

    def test_noiseless_synth_recovers_mapped_truth(self):
        gate = GateWindow(9.2, 50.0)
        sp = synth_odmr(bulk_model(), TRAIN, gate, FREQS, TRUTH, 0.5)
        fit, _ = fit_double_lorentzian(sp)
        want = mapped_truth(gate, 0.5)
        for name, value in want.items():
            assert getattr(fit, name) == pytest.approx(value, rel=1e-6), name

    def test_fit_idempotence(self):
        gate = GateWindow(9.2, 50.0)
        sp = synth_odmr(bulk_model(), TRAIN, gate, FREQS, TRUTH, 0.5)
        first, _ = fit_double_lorentzian(sp)
        refit_input = OdmrSpectrum(
            freqs=FREQS, counts=first.evaluate(FREQS), integration_per_point=0.5
        )
        second, _ = fit_double_lorentzian(refit_input)
        for name in ("baseline", "center1", "fwhm1", "depth1", "center2", "fwhm2", "depth2"):
            assert getattr(second, name) == pytest.approx(getattr(first, name), rel=1e-9)

    def test_linewidth_invariant_under_gating(self):
        gated = synth_odmr(bulk_model(), TRAIN, GateWindow(9.2, 50.0), FREQS, TRUTH, 0.5)
        ungated = synth_odmr(bulk_model(), TRAIN, None, FREQS, TRUTH, 0.5)
        fg, _ = fit_double_lorentzian(gated)
        fu, _ = fit_double_lorentzian(ungated)
        assert fg.fwhm1 == pytest.approx(fu.fwhm1, rel=1e-6)
        assert fg.fwhm2 == pytest.approx(fu.fwhm2, rel=1e-6)

    def test_gating_grows_fitted_contrast(self):
        gated = synth_odmr(bulk_model(), TRAIN, GateWindow(9.2, 50.0), FREQS, TRUTH, 0.5)
        ungated = synth_odmr(bulk_model(), TRAIN, None, FREQS, TRUTH, 0.5)
        fg, _ = fit_double_lorentzian(gated)
        fu, _ = fit_double_lorentzian(ungated)
        assert fg.deeper_dip()[2] / fu.deeper_dip()[2] >= 3.0

    def test_noisy_recovery_within_five_percent(self):
        gate = GateWindow(9.2, 50.0)
        sp = synth_odmr(bulk_model(), TRAIN, gate, FREQS, TRUTH, 0.5, seed=8)
        fit, _ = fit_double_lorentzian(sp)
        want = mapped_truth(gate, 0.5)
        assert fit.depth1 == pytest.approx(want["depth1"], rel=0.05)
        assert fit.depth2 == pytest.approx(want["depth2"], rel=0.05)
        assert fit.fwhm1 == pytest.approx(want["fwhm1"], rel=0.05)
        assert fit.fwhm2 == pytest.approx(want["fwhm2"], rel=0.05)


def readout_spectrum(seed: int):
    """The 100,000-point spectrum of the benchmark's readout workload for a
    seed (two 8 MHz dips 3 % and 2.5 % deep on 1e5 counts, centers jittered
    by up to 1 MHz): (freqs, Poisson counts, true centers)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[0])
    freqs = np.linspace(2.84e9, 2.90e9, 100_000)
    centers = [2.865e9 + rng.uniform(-1e6, 1e6), 2.875e9 + rng.uniform(-1e6, 1e6)]
    dip = sum(d * odmr_mod._lorentz(freqs, c, 8e6) for d, c in zip((0.03, 0.025), centers))
    return freqs, rng.poisson(1e5 * (1.0 - dip)).astype(float), centers


class TestFitGlobalMinimum:
    @pytest.fixture(scope="class")
    def spectra(self):
        return {seed: readout_spectrum(seed) for seed in (1, 6301)}

    # one count far from the dips, near either end of the span; a start
    # taken from the spectrum's minima locked onto that cell
    @pytest.mark.parametrize("seed, index", [(1, 4999), (1, 95_005), (6301, 4), (6301, 95_005)])
    @pytest.mark.parametrize("value", [0.0, 1000.0, 3.0, 1.5])
    def test_single_outlier_keeps_the_centers(self, spectra, seed, index, value):
        freqs, counts, centers = spectra[seed]
        counts = counts.copy()
        counts[index] = value
        fit, _ = fit_double_lorentzian(OdmrSpectrum(freqs, counts, 0.1))
        assert abs(fit.center1 - centers[0]) <= 0.5e6
        assert abs(fit.center2 - centers[1]) <= 0.5e6

    # bulk ungated, 0.1 ms per point: about 1 % contrast, the seeds where a
    # local start failed to converge or settled far off
    @pytest.mark.parametrize("seed", [16, 491, 551, 669, 908, 965, 1258, 1673, 1752])
    def test_low_contrast_fit_reaches_the_truth_started_minimum(self, seed):
        truth = DoubletTruth(2.865e9, 8e6, BULK_C_SAT, 2.875e9, 8e6, BULK_C_SAT)
        sp = synth_odmr(bulk_model(), TRAIN, None, FREQS, truth, 1e-4, seed=seed)
        _, residual_norm = fit_double_lorentzian(sp)
        span = FREQS[-1] - FREQS[0]
        start = np.array([truth.center1 - FREQS[0], truth.fwhm1, truth.center2 - FREQS[0], truth.fwhm2])
        y_scale = np.median(sp.counts)
        *_, cost, failure = odmr_mod._refine((FREQS - FREQS[0]) / span, sp.counts / y_scale, start / span)
        assert failure is None
        assert residual_norm**2 <= (1 + 1e-9) * cost * y_scale**2


class TestFitErrors:
    def test_too_few_points(self):
        sp = OdmrSpectrum(
            freqs=np.linspace(2.86e9, 2.88e9, 6),
            counts=np.full(6, 100.0),
            integration_per_point=1.0,
        )
        with pytest.raises(ValueError, match="at least 7"):
            fit_double_lorentzian(sp)

    def test_degenerate_spectrum(self):
        sp = OdmrSpectrum(
            freqs=FREQS, counts=np.full(FREQS.size, 50.0), integration_per_point=1.0
        )
        with pytest.raises(FitError, match="degenerate spectrum"):
            fit_double_lorentzian(sp)

    def test_non_convergence_carries_last_iterate(self, monkeypatch):
        monkeypatch.setattr(odmr_mod, "MAX_ITERATIONS", 1)
        sp = synth_odmr(bulk_model(), TRAIN, GateWindow(9.2, 50.0), FREQS, TRUTH, 0.5, seed=8)
        with pytest.raises(NonConvergenceError) as err:
            fit_double_lorentzian(sp)
        last = err.value.last_params
        assert isinstance(last, dict)
        # physical units: centres in Hz inside the span, not scaled to [0, 1]
        for name in ("center1", "center2"):
            assert FREQS[0] <= last[name] <= FREQS[-1]
        assert last["center1"] <= last["center2"]
        assert last["baseline"] == pytest.approx(np.median(sp.counts), rel=0.2)
        assert err.value.residual_norm > 0


class TestSensitivity:
    def fitted(self, gate):
        sp = synth_odmr(bulk_model(), TRAIN, gate, FREQS, TRUTH, 0.5)
        fit, _ = fit_double_lorentzian(sp)
        return fit

    def test_uses_deeper_dip_linewidth(self):
        fit = LorentzianDoublet(
            baseline=1e5,
            center1=2.86e9,
            fwhm1=5e6,
            depth1=0.1,
            center2=2.88e9,
            fwhm2=12e6,
            depth2=0.3,
        )
        got = sensitivity_from_fit(fit, (1e6, 0.9e6))
        assert got == sensitivity_cw(12e6, (1e6, 0.9e6))

    def test_equal_depths_tie_to_lower_frequency(self):
        fit = LorentzianDoublet(
            baseline=1e5,
            center1=2.86e9,
            fwhm1=5e6,
            depth1=0.2,
            center2=2.88e9,
            fwhm2=12e6,
            depth2=0.2,
        )
        assert fit.deeper_dip()[0] == 2.86e9
        got = sensitivity_from_fit(fit, (1e6, 0.9e6))
        assert got == sensitivity_cw(5e6, (1e6, 0.9e6))

    def test_quadrupled_counts_halve_eta(self):
        fit = self.fitted(GateWindow(9.2, 50.0))
        base = sensitivity_from_fit(fit, (1e6, 0.9e6))
        quad = sensitivity_from_fit(fit, (4e6, 3.6e6))
        assert quad == pytest.approx(0.5 * base, rel=1e-12)

    def test_gated_eta_improves_about_twofold(self):
        # eta ~ 1/(C sqrt(R0)); with the fitted dip depth standing in for C
        # the bulk numbers give eta_ungated/eta_gated near 2
        gate = GateWindow(9.2, 50.0)
        fg = self.fitted(gate)
        fu = self.fitted(None)
        t = 0.5
        n0g, _ = channel_counts(gate, t)
        n0u, _ = channel_counts(None, t)
        eta_g = sensitivity_from_fit(
            fg, (n0g / t, (n0g / t) * (1 - fg.deeper_dip()[2]))
        )
        eta_u = sensitivity_from_fit(
            fu, (n0u / t, (n0u / t) * (1 - fu.deeper_dip()[2]))
        )
        ratio = eta_u / eta_g
        assert 1.8 <= ratio <= 2.6


class TestDoubletTypes:
    def test_truth_population_peaks_at_center(self):
        p = TRUTH.population(np.array([TRUTH.center1]))
        # overlapping second dip adds its tail on top of depth1
        assert p[0] > TRUTH.depth1

    def test_doublet_validation(self):
        with pytest.raises(ValueError):
            LorentzianDoublet(
                baseline=0.0,
                center1=2.86e9,
                fwhm1=5e6,
                depth1=0.1,
                center2=2.88e9,
                fwhm2=5e6,
                depth2=0.1,
            )
        with pytest.raises(ValueError):
            DoubletTruth(
                center1=2.86e9, fwhm1=0.0, depth1=0.1, center2=2.88e9, fwhm2=5e6, depth2=0.1
            )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("center1", math.inf, "center1 must be finite, got inf"),
            ("center2", -math.inf, "center2 must be finite, got -inf"),
            ("center1", math.nan, "center1 must be finite, got nan"),
            ("fwhm1", math.inf, "fwhm1 must be finite, got inf"),
            ("fwhm2", math.inf, "fwhm2 must be finite, got inf"),
            ("fwhm2", math.nan, "fwhm must be > 0"),
            ("depth1", math.inf, r"population depth must be in \[0, 1\]"),
            ("depth2", math.nan, r"population depth must be in \[0, 1\]"),
        ],
        ids=["center1-inf", "center2--inf", "center1-nan", "fwhm1-inf", "fwhm2-inf", "fwhm2-nan",
             "depth1-inf", "depth2-nan"],
    )
    def test_truth_fields_must_be_finite(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            replace(TRUTH, **{field: value})

    @pytest.mark.parametrize("field", ["fwhm1", "fwhm2"])
    def test_truth_width_whose_square_leaves_float64(self, field):
        # (0.5 * 1e-300)**2 is 0, so the Lorentzian at its center was 0 / 0;
        # (0.5 * 1e200)**2 raised OverflowError, a traceback. Widths whose
        # squares survive, one as a subnormal, still give the full dip depth.
        for width, message in (
            (1e-300, "1e-300 Hz is too narrow: its half-width squared underflows float64 to 0"),
            (1e200, "1e+200 Hz is too wide: its half-width squared overflows float64"),
        ):
            with pytest.raises(ValueError) as err:
                replace(TRUTH, **{field: width})
            assert str(err.value) == f"{field} {message}"
        for width in (1e-161, 1e154):
            truth = replace(TRUTH, **{field: width})
            centers = np.array([truth.center1, truth.center2])
            assert np.all(truth.population(centers) >= [truth.depth1, truth.depth2])

    def test_spectrum_requires_increasing_freqs(self):
        with pytest.raises(ValueError):
            OdmrSpectrum(
                freqs=np.array([2.87e9, 2.86e9]),
                counts=np.array([1.0, 2.0]),
                integration_per_point=1.0,
            )
