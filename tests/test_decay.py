"""Decay-model count integrals against independent quadrature and
convolution oracles, plus the closed-form worked examples."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

from spingate.decay import (
    DecayComponent,
    FluorescenceModel,
    PulseTrain,
    folded_model,
    gated_counts,
    gated_counts_exponential,
    histogram_expectation,
    spin_weight,
    steady_rate,
)
from spingate.decay import _erfc, _erfcx, _tail
from spingate.errors import GateError
from spingate.gating import GateWindow
from spingate.quadrature import adaptive_simpson


def two_level(tau0=12.0, tau1=8.0, **kw) -> FluorescenceModel:
    return FluorescenceModel(
        spin0=(DecayComponent(1.0, tau0),),
        spin1=(DecayComponent(1.0, tau1),),
        **kw,
    )


def bulk_like() -> FluorescenceModel:
    return FluorescenceModel(
        spin0=(DecayComponent(1.0, 12.0),),
        spin1=(DecayComponent(1.0, 8.0),),
        background=(DecayComponent(20.0, 1.7),),
    )


class TestExpectedIntensity:
    """The expected intensity, checked through the counts it puts in windows:
    the window-count kernel is the model's one closed form."""

    def test_before_pulse_is_dark_only(self):
        m = two_level(dark_rate=0.25, pulse_time=5.0)
        g = gated_counts(m, "ms0", GateWindow(0.0, 2.0))
        assert g.signal == 0.0
        assert g.total == 0.5

    def test_array_matches_scalars(self):
        m = bulk_like()
        train = PulseTrain(20e6)
        onsets = np.array([0.0, 1.0, 7.5, 30.0])
        ends = np.array([0.5, 9.0, 60.0, np.inf])
        arr = steady_rate(m, "ms1", onsets, train, ends)
        assert arr.shape == onsets.shape
        for i in range(onsets.size):
            assert arr[i] == steady_rate(m, "ms1", float(onsets[i]), train, float(ends[i]))

    def test_emg_matches_numerical_convolution(self):
        # Oracle: the decay exp(-s/tau) times the Gaussian's mass inside the
        # window, summed on a 1 ps grid. The pulse sits at 1 ns, so the
        # first window lies wholly before it.
        from scipy.special import ndtr

        sigma, tau = 0.4, 12.0
        m = two_level(tau0=tau, irf_sigma=sigma, pulse_time=1.0)
        step = 1e-3
        s = np.arange(0.0, tau * 40.0, step)
        for t0, t1 in ((0.5, 1.0), (1.0, 1.3), (1.3, 2.0), (2.0, 7.0), (7.0, 21.0)):
            mass = ndtr((t1 - 1.0 - s) / sigma) - ndtr((t0 - 1.0 - s) / sigma)
            want = np.trapezoid(np.exp(-s / tau) * mass, dx=step)
            got = gated_counts(m, "ms0", GateWindow(t0, t1)).signal
            assert got == pytest.approx(want, rel=1e-5)

    def test_emg_far_tail_no_overflow(self):
        # 4000 sigma past the pulse: naive exp(dt^2) overflows, counts must not.
        m = two_level(irf_sigma=0.05)
        got = gated_counts(m, "ms0", GateWindow(200.0, 201.0)).signal
        assert math.isfinite(got)
        want = 12.0 * (math.exp(-200.0 / 12.0) - math.exp(-201.0 / 12.0))
        assert got == pytest.approx(want, rel=1e-6)

    def test_emg_converges_to_exponential(self):
        sigma = 1e-4
        m = two_level(irf_sigma=sigma)
        m0 = two_level()
        for t in np.linspace(5 * sigma, 40.0, 23):
            gate = GateWindow(float(t), float(t) + 1.0)
            assert gated_counts(m, "ms0", gate).signal == pytest.approx(
                gated_counts(m0, "ms0", gate).signal, rel=1e-3
            )


class TestGatedCountsExponential:
    def test_full_window_equals_amplitude_times_lifetime(self):
        c = DecayComponent(1.0, 12.0)
        assert gated_counts_exponential(c, GateWindow(0.0)) == 12.0

    def test_delayed_unbounded_window(self):
        c = DecayComponent(1.0, 12.0)
        got = gated_counts_exponential(c, GateWindow(6.0))
        assert got == pytest.approx(12.0 * math.exp(-0.5), rel=1e-12)
        assert got == pytest.approx(7.2784, rel=1e-4)

    def test_bounded_window(self):
        c = DecayComponent(1.0, 12.0)
        got = gated_counts_exponential(c, GateWindow(0.0, 50.0))
        assert got == pytest.approx(11.814, rel=1e-4)

    def test_against_quadrature_oracle_randomized(self):
        rng = np.random.default_rng(20260819)
        for _ in range(300):
            amp = rng.uniform(0.01, 50.0)
            tau = rng.uniform(0.2, 40.0)
            t0 = rng.uniform(0.0, 30.0)
            t1 = t0 + rng.uniform(0.05, 60.0)
            c = DecayComponent(amp, tau)
            want, _ = quad(
                lambda t: amp * math.exp(-t / tau), t0, t1, epsabs=0.0, epsrel=1e-13
            )
            got = gated_counts_exponential(c, GateWindow(t0, t1))
            assert got == pytest.approx(want, rel=1e-9)

    @given(
        t0=st.floats(0.0, 20.0),
        dt=st.floats(0.01, 40.0),
        tau=st.floats(0.1, 50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_additivity_exact(self, t0, dt, tau):
        c = DecayComponent(2.0, tau)
        mid = t0 + 0.5 * dt
        whole = gated_counts_exponential(c, GateWindow(t0, t0 + dt))
        parts = gated_counts_exponential(c, GateWindow(t0, mid)) + gated_counts_exponential(
            c, GateWindow(mid, t0 + dt)
        )
        assert parts == pytest.approx(whole, rel=1e-12, abs=1e-300)

    @given(
        t0=st.floats(0.0, 30.0),
        shrink=st.floats(0.0, 5.0),
        tau=st.floats(0.1, 50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_window(self, t0, shrink, tau):
        c = DecayComponent(1.0, tau)
        wide = gated_counts_exponential(c, GateWindow(t0, t0 + 10.0))
        later = gated_counts_exponential(c, GateWindow(t0 + shrink, t0 + 10.0))
        shorter = gated_counts_exponential(c, GateWindow(t0, t0 + 10.0 - shrink))
        assert later <= wide + 1e-15
        assert shorter <= wide + 1e-15


class TestGatedCounts:
    def test_no_background_components(self):
        g = gated_counts(two_level(), "ms0", GateWindow(0.0))
        assert g.background == 0.0
        assert g.dark == 0.0

    def test_split_totals(self):
        m = bulk_like()
        g = gated_counts(m, "ms0", GateWindow(6.0, 50.0))
        want_sig, _ = quad(lambda t: math.exp(-t / 12.0), 6.0, 50.0, epsabs=0.0, epsrel=1e-13)
        want_bg, _ = quad(lambda t: 20.0 * math.exp(-t / 1.7), 6.0, 50.0, epsabs=0.0, epsrel=1e-13)
        assert g.signal == pytest.approx(want_sig, rel=1e-9)
        assert g.background == pytest.approx(want_bg, rel=1e-9)
        assert g.total == g.signal + g.background + g.dark

    def test_shorter_lifetime_gives_fewer_gated_counts(self):
        m = bulk_like()
        for t0 in (0.5, 2.0, 6.0, 10.0):
            s0 = gated_counts(m, "ms0", GateWindow(t0, 50.0)).signal
            s1 = gated_counts(m, "ms1", GateWindow(t0, 50.0)).signal
            assert s1 < s0

    def test_dark_counts_scale_with_gate_length(self):
        m = two_level(dark_rate=0.125)
        g = gated_counts(m, "ms0", GateWindow(4.0, 20.0))
        assert g.dark == 0.125 * 16.0

    def test_mixture_is_linear_in_weight(self):
        m = bulk_like()
        gate = GateWindow(3.0, 50.0)
        s0 = gated_counts(m, "ms0", gate).signal
        s1 = gated_counts(m, "ms1", gate).signal
        mix = gated_counts(m, 0.3, gate).signal
        assert mix == pytest.approx(0.7 * s0 + 0.3 * s1, rel=1e-12)

    def test_emg_gate_matches_quad_oracle(self):
        sigma = 0.4
        m = two_level(irf_sigma=sigma)
        got = gated_counts(m, "ms0", GateWindow(2.0, 50.0)).signal

        def emg(t):
            z = sigma / (math.sqrt(2) * 12.0) - t / (math.sqrt(2) * sigma)
            return 0.5 * math.exp(sigma**2 / (2 * 144.0) - t / 12.0) * math.erfc(z)

        want, _ = quad(emg, 2.0, 50.0, epsabs=0.0, epsrel=1e-12)
        assert got == pytest.approx(want, rel=1e-9)

    def test_emg_unbounded_gate_matches_long_window(self):
        m = two_level(irf_sigma=0.4)
        got = gated_counts(m, "ms0", GateWindow(2.0)).signal
        want = gated_counts(m, "ms0", GateWindow(2.0, 1e4)).signal
        assert got == pytest.approx(want, rel=1e-12)

    def test_pulse_time_shifts_the_decay(self):
        shifted = two_level(pulse_time=3.0)
        base = two_level()
        got = gated_counts(shifted, "ms0", GateWindow(5.0, 40.0)).signal
        want = gated_counts(base, "ms0", GateWindow(2.0, 37.0)).signal
        assert got == pytest.approx(want, rel=1e-12)


def emg_oracle(amplitude, tau, sigma, pulse_time, t0, t1):
    """Integral of the IRF-blurred decay over [t0, t1) by adaptive Simpson.

    The integrand is the erfc form of the EMG, independent of the kernel's
    normal-CDF form. The window is split into pieces of at most 1 ns: the
    integrator's absolute budget is set by the whole interval, so a long
    window over a sharp rise would ask deep panels for more than double
    precision can deliver.
    """
    k = sigma / (math.sqrt(2.0) * tau)
    scale = math.sqrt(2.0) * sigma
    shift = 0.5 * (sigma / tau) ** 2

    def intensity(t):
        dt = t - pulse_time
        return 0.5 * amplitude * math.exp(shift - dt / tau) * math.erfc(k - dt / scale)

    edges = np.append(np.arange(t0, t1, 1.0), t1)
    return sum(
        adaptive_simpson(intensity, float(a), float(b), rel_tol=1e-13)
        for a, b in zip(edges[:-1], edges[1:])
        if b > a
    )


class TestEmgKernel:
    """Closed-form EMG counts against an independent quadrature oracle."""

    @pytest.mark.parametrize("sigma", [0.05, 0.3, 1.0])
    @pytest.mark.parametrize("tau", [1.7, 8.0, 12.0])
    def test_gated_counts_match_oracle(self, tau, sigma):
        worst = 0.0
        for pulse_time in (0.0, 2.5):
            m = FluorescenceModel(
                spin0=(DecayComponent(1.3, tau),),
                spin1=(DecayComponent(1.0, 8.0),),
                irf_sigma=sigma,
                pulse_time=pulse_time,
            )
            # onsets 0-40 ns; with the pulse at 2.5 ns the early windows
            # start before it
            for t0 in (0.0, 0.5, 1.0, 2.0, 2.4, 3.0, 5.0, 9.2, 15.0, 25.0, 40.0):
                for t1 in (t0 + 0.1, t0 + 1.0, 50.0):
                    if t1 <= t0 or t1 < pulse_time + 0.5:
                        continue
                    got = gated_counts(m, "ms0", GateWindow(t0, t1)).signal
                    want = emg_oracle(1.3, tau, sigma, pulse_time, t0, t1)
                    worst = max(worst, abs(got - want) / want)
        assert worst <= 1e-12

    def test_histogram_bins_before_the_pulse(self):
        # bins wholly before the pulse hold only the Gaussian's leading
        # tail: they stay positive and keep their relative accuracy
        m = two_level(irf_sigma=0.3, pulse_time=3.0)
        train = PulseTrain(100e6)
        h = histogram_expectation(m, "ms0", train, 0.5, 1.0)
        assert np.all(h.counts > 0)
        for b in range(h.n_bins):
            want = emg_oracle(1.0, 12.0, 0.3, 3.0, 0.5 * b, 0.5 * (b + 1)) * 1e8
            assert h.counts[b] == pytest.approx(want, rel=1e-11)

    def test_sigma_zero_step_at_the_pulse(self):
        # a window straddling the pulse counts from the pulse on
        m = two_level(pulse_time=4.0)
        got = gated_counts(m, "ms0", GateWindow(1.0, 20.0)).signal
        assert got == pytest.approx(12.0 * -math.expm1(-16.0 / 12.0), rel=1e-14)
        assert gated_counts(m, "ms0", GateWindow(1.0, 4.0)).signal == 0.0


def split_points(signed: bool) -> np.ndarray:
    """The two range splits of Cody's approximations and their neighbours."""
    splits = np.array([0.46875, 4.0])
    points = np.concatenate(
        [np.nextafter(splits, 0.0), splits, np.nextafter(splits, np.inf)]
    )
    return np.concatenate([points, -points]) if signed else points


class TestSpecialFunctions:
    """Cody's erfc and erfcx against scipy.special, a test-only oracle.

    scipy's own erfc and erfcx round x^2 before exponentiating, which costs
    up to about 6e-14 relative near |x| = 26, so the bound is 1e-13.
    """

    @staticmethod
    def assert_matches(got, want):
        tiny = want <= 1e-300
        np.testing.assert_allclose(got[~tiny], want[~tiny], rtol=1e-13, atol=0.0)
        assert np.all(np.abs(got[tiny] - want[tiny]) <= 1e-300)

    def test_erfc_matches_oracle(self):
        x = np.concatenate([np.linspace(-10.0, 27.0, 100_001), split_points(signed=True)])
        self.assert_matches(_erfc(x), special.erfc(x))

    def test_erfcx_matches_oracle(self):
        x = np.concatenate(
            [
                np.linspace(0.0, 30.0, 30_001),
                np.geomspace(1e-12, 1e6, 2_001),
                split_points(signed=False),
            ]
        )
        self.assert_matches(_erfcx(x), special.erfcx(x))
        # 2 exp(x^2) - erfcx(-x) below 0, finite down to x = -26.63
        x = np.linspace(-26.6, 0.0, 10_001)
        self.assert_matches(_erfcx(x), special.erfcx(x))

    def test_range_splits(self):
        x = split_points(signed=True)
        np.testing.assert_allclose(_erfc(x), special.erfc(x), rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(_erfcx(x), special.erfcx(x), rtol=1e-15, atol=0.0)

    def test_zero_d_input_gives_scalar(self):
        for f in (_erfc, _erfcx):
            for x in (0.25, 2.0, 9.0, -1.0):
                got = f(x)
                assert np.ndim(got) == 0
                assert got == f(np.array([x]))[0]
                assert f(np.array(x)) == got

    def test_non_finite(self):
        x = np.array([np.inf, -np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_erfc = _erfc(x)
            got_erfcx = _erfcx(x)
        np.testing.assert_array_equal(got_erfc, [0.0, 2.0, np.nan])
        np.testing.assert_array_equal(got_erfcx, [0.0, np.inf, np.nan])

    @pytest.mark.parametrize("tau, sigma", [(12.0, 0.3), (1.7, 0.05), (0.02, 1.0)])
    def test_tail_matches_log_ndtr_form(self, tau, sigma):
        # The same closed form written with scipy's log_ndtr,
        # exp(sigma^2/(2 tau^2) - x/tau + log Phi(u)), sampled through u = 0
        # at x = sigma^2/tau. At tau = 0.02, sigma = 1 the exponential alone
        # overflows where Phi(u) underflows, so the kernel must cancel them
        # before evaluating either. Before the pulse C(x) is a difference
        # that loses about log10(|z| tau/sigma) digits in both forms, so the
        # grid starts at -3 sigma; below 1e-300 the values are subnormal.
        knee = sigma**2 / tau
        x = np.concatenate(
            [
                np.linspace(-3.0 * sigma, 40.0, 2_001),
                [0.0, knee, np.nextafter(knee, -np.inf), np.nextafter(knee, np.inf)],
            ]
        )
        z = x / sigma
        want = np.where(x < 0.0, 1.0, -1.0) * special.ndtr(-np.abs(z)) - np.exp(
            0.5 * (sigma / tau) ** 2 - x / tau + special.log_ndtr(z - sigma / tau)
        )
        np.testing.assert_allclose(_tail(x, tau, sigma), want, rtol=1e-12, atol=1e-300)


class TestSpinSelector:
    def test_string_selectors(self):
        assert spin_weight("ms0") == 0.0
        assert spin_weight("ms1") == 1.0

    def test_float_selector(self):
        assert spin_weight(0.15) == 0.15

    def test_bad_string(self):
        with pytest.raises(ValueError, match="unknown spin selector"):
            spin_weight("ms2")

    def test_out_of_range_weight(self):
        with pytest.raises(ValueError, match="mixture weight"):
            spin_weight(1.5)


class TestSteadyRate:
    def test_single_component_example(self):
        m = two_level()
        train = PulseTrain(20e6)
        got = steady_rate(m, "ms0", 0.0, train)
        want = 2e7 * 12.0 * (1.0 - math.exp(-50.0 / 12.0))
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(2.363e8, rel=1e-3)

    def test_vanishing_window_limit(self):
        m = two_level()
        train = PulseTrain(20e6)
        assert steady_rate(m, "ms0", 50.0 - 1e-9, train) < 1e-3

    def test_onset_at_period_rejected(self):
        with pytest.raises(GateError, match="gate exceeds pulse period"):
            steady_rate(two_level(), "ms0", 50.0, PulseTrain(20e6))

    def test_gate_end_clipped_to_period(self):
        m = bulk_like()
        train = PulseTrain(20e6)
        bounded = steady_rate(m, "ms0", 6.0, train, 30.0)
        assert bounded == 2e7 * gated_counts(m, "ms0", GateWindow(6.0, 30.0)).total
        for end in (50.0, 75.0, math.inf):
            assert steady_rate(m, "ms0", 6.0, train, end) == steady_rate(m, "ms0", 6.0, train)

    def test_doubling_rate_sublinear_when_period_near_lifetime(self):
        m = two_level()
        low = steady_rate(m, "ms0", 0.0, PulseTrain(20e6))
        high = steady_rate(m, "ms0", 0.0, PulseTrain(40e6))
        assert high < 2.0 * low
        assert high > low


class TestHistogramExpectation:
    def test_dark_only_is_flat(self):
        m = FluorescenceModel(
            spin0=(DecayComponent(0.0, 12.0),),
            spin1=(DecayComponent(0.0, 8.0),),
            dark_rate=0.02,
        )
        h = histogram_expectation(m, "ms0", PulseTrain(20e6), 0.5, 1.0)
        assert np.allclose(h.counts, h.counts[0])

    def test_total_equals_integration_times_rate(self):
        m = bulk_like()
        train = PulseTrain(20e6)
        h = histogram_expectation(m, "ms0", train, 0.1, 2.5)
        want = 2.5 * steady_rate(m, "ms0", 0.0, train)
        assert h.counts.sum() == pytest.approx(want, rel=1e-9)

    def test_paper_scale_total(self):
        m = bulk_like()
        train = PulseTrain(20e6)
        scale = 5e6 / steady_rate(m, "ms0", 0.0, train)
        h = histogram_expectation(m.scaled(scale), "ms0", train, 0.1, 10.0)
        assert h.counts.sum() == pytest.approx(5e7, rel=1e-6)

    def test_hundred_ps_bins_give_500_bins(self):
        h = histogram_expectation(bulk_like(), "ms0", PulseTrain(20e6), 0.1, 1.0)
        assert h.n_bins == 500

    def test_biexponential_shape(self):
        # early bins dominated by the 1.7 ns background, tail by the 12 ns spin
        h = histogram_expectation(bulk_like(), "ms0", PulseTrain(20e6), 0.1, 1.0)
        c = h.counts
        early_slope = math.log(c[0] / c[10])  # over 1 ns
        late_slope = math.log(c[200] / c[210])
        assert early_slope > 3.0 * late_slope
        assert late_slope == pytest.approx(0.1 * 10 / 12.0, rel=0.05)

    def test_non_commensurate_bin_width_rejected(self):
        with pytest.raises(ValueError, match="does not tile"):
            histogram_expectation(bulk_like(), "ms0", PulseTrain(20e6), 0.3, 1.0)

    def test_emg_bins_match_quadrature(self):
        m = two_level(irf_sigma=0.4)
        train = PulseTrain(100e6)  # 10 ns period keeps the bin loop small
        h = histogram_expectation(m, "ms0", train, 1.0, 1.0)

        def emg(t):
            sigma, tau = 0.4, 12.0
            z = sigma / (math.sqrt(2) * tau) - t / (math.sqrt(2) * sigma)
            return 0.5 * math.exp(sigma**2 / (2 * tau**2) - t / tau) * math.erfc(z)

        for b in range(h.n_bins):
            want, _ = quad(emg, b * 1.0, (b + 1) * 1.0, epsabs=0.0, epsrel=1e-12)
            assert h.counts[b] == pytest.approx(want * 1e8, rel=1e-8)


class TestFoldedModel:
    def test_amplitude_lift_factor(self):
        m = bulk_like()
        train = PulseTrain(20e6)
        lifted = folded_model(m, train)
        for base, lift in zip(m.spin0 + m.background, lifted.spin0 + lifted.background):
            want = base.amplitude / (1.0 - math.exp(-50.0 / base.lifetime))
            assert lift.amplitude == pytest.approx(want, rel=1e-15)

    def test_matches_summed_pulse_tails(self):
        # steady-state counts in a window = single-pulse counts in the same
        # window of every later period, summed over all earlier pulses
        m = two_level(tau0=30.0)
        train = PulseTrain(50e6)  # 20 ns period, strong wrap for tau=30
        lifted = folded_model(m, train)
        shifts = np.arange(400) * train.period
        for t0, t1 in ((0.0, 3.0), (3.0, 12.5), (12.5, 19.9), (0.0, 20.0)):
            direct = sum(gated_counts(m, "ms0", GateWindow(t0 + d, t1 + d)).total for d in shifts)
            got = gated_counts(lifted, "ms0", GateWindow(t0, t1)).total
            assert got == pytest.approx(direct, rel=1e-10)


class TestValidation:
    def test_gate_window_ordering(self):
        with pytest.raises(ValueError):
            GateWindow(5.0, 5.0)
        with pytest.raises(ValueError):
            GateWindow(-1.0, 5.0)

    def test_component_validation(self):
        with pytest.raises(ValueError, match="amplitude"):
            DecayComponent(-1.0, 5.0)
        with pytest.raises(ValueError, match="lifetime"):
            DecayComponent(1.0, 0.0)

    def test_model_requires_spin_components(self):
        with pytest.raises(ValueError):
            FluorescenceModel(spin0=(), spin1=(DecayComponent(1.0, 8.0),))

    def test_pulse_train_positive_rate(self):
        with pytest.raises(ValueError):
            PulseTrain(0.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_numbers_must_be_finite(self, value):
        # -inf and nan already fail the sign checks; inf constructed
        spin = (DecayComponent(1.0, 8.0),)
        builds = {
            "amplitude": lambda: DecayComponent(value, 5.0),
            "lifetime": lambda: DecayComponent(1.0, value),
            "rep_rate": lambda: PulseTrain(value),
            "dark_rate": lambda: FluorescenceModel(spin, spin, dark_rate=value),
            "irf_sigma": lambda: FluorescenceModel(spin, spin, irf_sigma=value),
            "pulse_time": lambda: FluorescenceModel(spin, spin, pulse_time=value),
        }
        for name, build in builds.items():
            with pytest.raises(ValueError, match=f"^{name} must be"):
                build()

    def test_gate_may_run_to_the_period(self):
        assert GateWindow(2.0).t_end == math.inf
