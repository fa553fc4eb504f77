"""Contrast / SNR / enhancement / sensitivity formulas.

The perfect-separation identity suite builds both count pairs from decay
closed forms, so the empirical and theoretical enhancement factors must agree
to floating-point accuracy.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spingate.decay import DecayComponent, GateWindow, gated_counts_exponential
from spingate.errors import MetricError
from spingate.metrics import (
    BOHR_MAGNETON,
    ELECTRON_G,
    PLANCK_H,
    CountPair,
    RatePair,
    contrast,
    ef_empirical,
    ef_theoretical,
    sensitivity_cw,
    snr,
    speedup,
)


class TestContrast:
    def test_equal_counts(self):
        assert contrast(CountPair(100.0, 100.0)) == 0.0

    def test_fifteen_percent(self):
        assert contrast(CountPair(100.0, 85.0)) == pytest.approx(0.15, rel=1e-15)

    def test_direct_substitution(self):
        assert contrast(CountPair(1000.0, 900.0)) == pytest.approx(0.10, rel=1e-15)

    def test_negative_contrast_reported(self):
        assert contrast(CountPair(85.0, 100.0)) < 0

    def test_zero_reference_rejected(self):
        with pytest.raises(MetricError, match="reference channel N0 has zero counts"):
            contrast(CountPair(0.0, 5.0))


class TestSnr:
    def test_paper_style_counts(self):
        assert snr(CountPair(100.0, 85.0)) == pytest.approx(15.0 / math.sqrt(185.0), rel=1e-15)

    def test_scaling_by_k_scales_snr_by_sqrt_k(self):
        base = snr(CountPair(100.0, 85.0))
        for k in (4.0, 25.0, 1e6):
            assert snr(CountPair(100.0 * k, 85.0 * k)) == pytest.approx(
                base * math.sqrt(k), rel=1e-12
            )

    def test_antisymmetric_numerator(self):
        assert snr(CountPair(85.0, 100.0)) == pytest.approx(
            -snr(CountPair(100.0, 85.0)), rel=1e-15
        )

    def test_both_zero_rejected(self):
        with pytest.raises(MetricError, match="both channels have zero counts"):
            snr(CountPair(0.0, 0.0))


class TestEfTheoretical:
    def test_no_background(self):
        assert ef_theoretical(0.15, 0.0) == 1.0

    def test_paper_point(self):
        got = ef_theoretical(0.15, 3.0)
        assert got == pytest.approx(math.sqrt(1.0 + (2.0 / 1.85) * 3.0), rel=1e-15)
        assert 2.0 <= got <= 2.1

    def test_zero_contrast_unit_background(self):
        assert ef_theoretical(0.0, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_negative_background_ratio_rejected(self):
        with pytest.raises(MetricError):
            ef_theoretical(0.15, -0.5)

    @given(
        c=st.floats(0.0, 0.99),
        rho=st.floats(0.0, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_speedup_of_ef_is_exact_algebra(self, c, rho):
        assert speedup(ef_theoretical(c, rho)) == pytest.approx(
            1.0 + (2.0 / (2.0 - c)) * rho, rel=1e-14
        )


class TestSpeedup:
    def test_examples(self):
        assert speedup(2.0) == 4.0
        assert speedup(4.0) == 16.0
        assert speedup(1.0) == 1.0


class TestEfEmpirical:
    def test_identity(self):
        p = CountPair(120.0, 80.0)
        assert ef_empirical(p, p) == 1.0

    def test_perfect_separation_identity_randomized(self):
        # Gate past all background: gated pair (n0, n1), ungated pair
        # (n0 + nbg, n1 + nbg) with C and rho from the same closed forms.
        rng = np.random.default_rng(42)
        for _ in range(1000):
            tau0 = rng.uniform(5.0, 40.0)
            tau1 = tau0 * rng.uniform(0.3, 0.95)
            a = rng.uniform(0.1, 10.0)
            n0 = a * tau0
            n1 = a * tau1
            nbg = n0 * rng.uniform(0.0, 20.0)
            gated = CountPair(n0, n1)
            ungated = CountPair(n0 + nbg, n1 + nbg)
            got = ef_empirical(gated, ungated)
            # with C the background-free contrast and rho = nbg/n0 the
            # enhancement collapses to sqrt((n0+n1+2nbg)/(n0+n1)) identically
            want = ef_theoretical(contrast(gated), nbg / n0)
            assert got == pytest.approx(want, rel=1e-12)
            direct = math.sqrt((n0 + n1 + 2 * nbg) / (n0 + n1))
            assert got == pytest.approx(direct, rel=1e-12)

    def test_matches_closed_form_from_decay(self):
        c0 = DecayComponent(1.0, 12.0)
        c1 = DecayComponent(1.0, 8.0)
        bg = DecayComponent(30.0, 1e-6)  # vanishing-lifetime background
        gate = GateWindow(1.0, 50.0)
        full = GateWindow(0.0, 50.0)
        n0 = gated_counts_exponential(c0, gate)
        n1 = gated_counts_exponential(c1, gate)
        u0 = gated_counts_exponential(c0, full) + gated_counts_exponential(bg, full)
        u1 = gated_counts_exponential(c1, full) + gated_counts_exponential(bg, full)
        got = ef_empirical(CountPair(n0, n1), CountPair(u0, u1))
        assert got > 1.0


class TestSensitivity:
    def test_prefactors(self):
        assert 4.0 / (3.0 * math.sqrt(3.0)) == pytest.approx(0.7698, rel=1e-4)
        assert PLANCK_H / (ELECTRON_G * BOHR_MAGNETON) == pytest.approx(3.568e-11, rel=1e-3)

    def test_paper_style_evaluation(self):
        got = sensitivity_cw(10e6, RatePair(1e6, 0.98e6))
        want = (
            (4.0 / (3.0 * math.sqrt(3.0)))
            * (PLANCK_H / (ELECTRON_G * BOHR_MAGNETON))
            * 10e6
            * math.sqrt(1e6)
            / (1e6 - 0.98e6)
        )
        assert got == pytest.approx(want, rel=1e-15)
        assert got == pytest.approx(1.37e-5, rel=1e-2)

    def test_linear_in_linewidth(self):
        r = RatePair(1e6, 0.9e6)
        assert sensitivity_cw(20e6, r) == pytest.approx(
            2.0 * sensitivity_cw(10e6, r), rel=1e-15
        )

    def test_scaling_rates_by_k_scales_eta_by_inverse_sqrt_k(self):
        base = sensitivity_cw(10e6, RatePair(1e6, 0.9e6))
        for k in (4.0, 100.0):
            got = sensitivity_cw(10e6, RatePair(k * 1e6, k * 0.9e6))
            assert got == pytest.approx(base / math.sqrt(k), rel=1e-12)

    def test_non_positive_dip_rejected(self):
        with pytest.raises(MetricError, match="non-positive ODMR dip"):
            sensitivity_cw(10e6, RatePair(1e6, 1e6))

    def test_linewidth_must_be_positive(self):
        with pytest.raises(MetricError):
            sensitivity_cw(0.0, RatePair(1e6, 0.9e6))


class TestValidation:
    def test_count_pair_non_negative(self):
        with pytest.raises(ValueError):
            CountPair(-1.0, 5.0)

    def test_rate_pair_non_negative(self):
        with pytest.raises(ValueError):
            RatePair(5.0, -1.0)
