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

from spingate.decay import DecayComponent, gated_counts_exponential
from spingate.gating import GateWindow
from spingate.errors import MetricError
from spingate.metrics import (
    BOHR_MAGNETON,
    ELECTRON_G,
    PLANCK_H,
    contrast,
    ef_empirical,
    ef_theoretical,
    sensitivity_cw,
    snr,
    speedup,
)


class TestContrast:
    def test_equal_counts(self):
        assert contrast((100.0, 100.0)) == 0.0

    def test_fifteen_percent(self):
        assert contrast((100.0, 85.0)) == pytest.approx(0.15, rel=1e-15)

    def test_direct_substitution(self):
        assert contrast((1000.0, 900.0)) == pytest.approx(0.10, rel=1e-15)

    def test_negative_contrast_reported(self):
        assert contrast((85.0, 100.0)) < 0

    def test_zero_reference_rejected(self):
        with pytest.raises(MetricError, match="reference channel N0 has zero counts"):
            contrast((0.0, 5.0))


class TestSnr:
    def test_paper_style_counts(self):
        assert snr((100.0, 85.0)) == pytest.approx(15.0 / math.sqrt(185.0), rel=1e-15)

    def test_scaling_by_k_scales_snr_by_sqrt_k(self):
        base = snr((100.0, 85.0))
        for k in (4.0, 25.0, 1e6):
            assert snr((100.0 * k, 85.0 * k)) == pytest.approx(
                base * math.sqrt(k), rel=1e-12
            )

    def test_antisymmetric_numerator(self):
        assert snr((85.0, 100.0)) == pytest.approx(
            -snr((100.0, 85.0)), rel=1e-15
        )

    @pytest.mark.filterwarnings("error")
    def test_both_zero_reads_zero(self):
        # a sample with no counts carries no signal: exactly 0, as an
        # snr-map pixel with zero total counts reads, and no RuntimeWarning
        assert snr((0.0, 0.0)) == 0.0
        got = snr(np.array([[0, 3, 0], [0, 1, 2]]))
        assert got.dtype == np.float64
        assert np.array_equal(got, [0.0, 2.0 / 2.0, -2.0 / math.sqrt(2.0)])

    def test_channel_stack_equals_the_pair(self):
        # axis 0 is the channel code, (mw_off, mw_on): a (2, ...) array and
        # a 2-tuple of its rows give the same bits
        stack = np.array([[100.0, 40.0, 7.0], [85.0, 41.0, 0.0]])
        for metric in (snr, contrast):
            assert np.array_equal(metric(stack), metric((stack[0], stack[1])))
            assert metric(stack)[0] == metric((100.0, 85.0))
        assert sensitivity_cw(10e6, stack[:, 0] * 1e4) == sensitivity_cw(10e6, (1e6, 0.85e6))


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
        p = (120.0, 80.0)
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
            gated = (n0, n1)
            ungated = (n0 + nbg, n1 + nbg)
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
        got = ef_empirical((n0, n1), (u0, u1))
        assert got > 1.0


class TestSensitivity:
    def test_prefactors(self):
        assert 4.0 / (3.0 * math.sqrt(3.0)) == pytest.approx(0.7698, rel=1e-4)
        assert PLANCK_H / (ELECTRON_G * BOHR_MAGNETON) == pytest.approx(3.568e-11, rel=1e-3)

    def test_paper_style_evaluation(self):
        got = sensitivity_cw(10e6, (1e6, 0.98e6))
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
        r = (1e6, 0.9e6)
        assert sensitivity_cw(20e6, r) == pytest.approx(
            2.0 * sensitivity_cw(10e6, r), rel=1e-15
        )

    def test_scaling_rates_by_k_scales_eta_by_inverse_sqrt_k(self):
        base = sensitivity_cw(10e6, (1e6, 0.9e6))
        for k in (4.0, 100.0):
            got = sensitivity_cw(10e6, (k * 1e6, k * 0.9e6))
            assert got == pytest.approx(base / math.sqrt(k), rel=1e-12)

    def test_non_positive_dip_rejected(self):
        with pytest.raises(MetricError, match="non-positive ODMR dip"):
            sensitivity_cw(10e6, (1e6, 1e6))

    def test_linewidth_must_be_positive(self):
        with pytest.raises(MetricError):
            sensitivity_cw(0.0, (1e6, 0.9e6))


class TestValidation:
    def test_count_pair_non_negative(self):
        for metric in (contrast, snr):
            with pytest.raises(ValueError, match=r"counts must be non-negative, got \(-1.0, 5.0\)"):
                metric((-1.0, 5.0))
        with pytest.raises(ValueError, match="counts must be non-negative"):
            ef_empirical((5.0, 1.0), (5.0, np.nan))

    def test_rate_pair_non_negative(self):
        with pytest.raises(ValueError, match=r"rates must be non-negative, got \(5.0, -1.0\)"):
            sensitivity_cw(10e6, (5.0, -1.0))
