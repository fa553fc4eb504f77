"""Acceptance gate: ten end-to-end checks, one test (and one verdict line) each.

Every test prints `criterion NN [name]: PASS|FAIL` and enforces its stated
tolerance and runtime budget. Criterion 06 checks the SNR curve of the
repetition-rate sweep against a quadrature oracle that does not use the
package's count kernel, and the curve's grid optimum against the oracle's
stationary point.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import brentq

from spingate.acquisition import (
    hw_gate,
    mc_snr_distribution,
    offline_gate,
    simulate_events,
)
from spingate.config import SweepConfig
from spingate.decay import (
    DecayComponent,
    FluorescenceModel,
    PulseTrain,
    gated_counts,
    gated_counts_exponential,
    steady_rate,
)
from spingate.gating import GateWindow
from spingate.mapping import catmull_rom_upsample, snr_map, ScanMap
from spingate.metrics import (
    contrast,
    ef_empirical,
    ef_theoretical,
    snr,
    speedup,
)
from spingate.odmr import (
    DoubletTruth,
    LorentzianDoublet,
    OdmrSpectrum,
    fit_double_lorentzian,
    synth_odmr,
)
from spingate.presets import (
    BULK_C_SAT,
    BULK_REP_RATE,
    FND_C_SAT,
    FND_REP_RATE,
    background_amplitude,
    bulk_model,
    fnd_model,
)
from spingate.quadrature import adaptive_simpson
from spingate.sweep import optimal_gate, sweep_gate


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} [{name}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget_s else "FAIL (over time budget)"
    print(f"criterion {number:02d} [{name}]: {verdict} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds {budget_s}s budget"


def test_criterion_01_enhancement_factor_value():
    with criterion(1, "enhancement-factor value", 1.0):
        value = ef_theoretical(0.15, 3.0)
        assert 2.0 <= value <= 2.1
        assert value == pytest.approx(2.06, abs=0.005)


def test_criterion_02_enhancement_identities():
    with criterion(2, "perfect-separation identities", 1.0):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n0 = rng.uniform(10.0, 1e6)
            n1 = n0 * rng.uniform(0.0, 1.0)
            nbg = n0 * rng.uniform(0.0, 10.0)
            gated = (n0, n1)
            ungated = (n0 + nbg, n1 + nbg)
            got = ef_empirical(gated, ungated)
            want = ef_theoretical(contrast(gated), nbg / n0)
            assert abs(got - want) <= 1e-12 * want
            assert speedup(got) == got * got


def test_criterion_03_closed_form_vs_quadrature():
    with criterion(3, "gated counts vs quadrature", 10.0):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            amp = 10.0 ** rng.uniform(-3, 3)
            tau = 10.0 ** rng.uniform(-1, 2)
            t0 = rng.uniform(0.0, 5.0 * tau)
            t1 = t0 + rng.uniform(1e-3 * tau, 10.0 * tau)
            comp = DecayComponent(amp, tau)
            got = gated_counts_exponential(comp, GateWindow(t0, t1))
            want = adaptive_simpson(lambda t: amp * math.exp(-t / tau), t0, t1)
            assert abs(got - want) <= 1e-9 * abs(want)


def test_criterion_04_bulk_gate_sweep():
    with criterion(4, "bulk sweep: unimodal, EF ~2, eta tracks", 5.0):
        report = sweep_gate(
            bulk_model(),
            PulseTrain(BULK_REP_RATE),
            SweepConfig(integration_time=10.0, linewidth=1e7, c_sat=BULK_C_SAT),
        )
        opt = report.optimum
        assert 0 < opt < report.tau_c_grid.size - 1
        diffs = np.diff(report.snr)
        assert np.all(diffs[:opt] > 0)
        assert np.all(diffs[opt:] < 0)
        ef_opt = report.ef[opt]
        assert 1.7 <= ef_opt <= 2.3
        eta_gain = report.eta[0] / report.eta[opt]
        assert abs(eta_gain - ef_opt) <= 0.05 * ef_opt


def test_criterion_05_fnd_gate_sweep():
    with criterion(5, "FND sweep: late optimum, EF ~4", 5.0):
        bulk_report = sweep_gate(
            bulk_model(),
            PulseTrain(BULK_REP_RATE),
            SweepConfig(integration_time=10.0, c_sat=BULK_C_SAT),
        )
        fnd_report = sweep_gate(
            fnd_model(),
            PulseTrain(FND_REP_RATE),
            SweepConfig(integration_time=10.0, c_sat=FND_C_SAT),
        )
        assert fnd_report.contrast[0] == pytest.approx(0.012, abs=0.002)
        tau_bulk = optimal_gate(bulk_report)
        tau_fnd = optimal_gate(fnd_report)
        assert tau_fnd > 2.0 * tau_bulk
        ef_opt = fnd_report.ef[fnd_report.optimum]
        assert 3.0 <= ef_opt <= 5.0
        assert 9.0 <= speedup(ef_opt) <= 25.0


def _oracle(model, c_sat, onset, seconds):
    """Shot-noise SNR of a fixed-pulse-energy model against the pulse period
    T (ns), and d ln SNR / dT, from adaptive_simpson instead of the package's
    count kernel.

    Per pulse, n(T) is the intensity integrated over [onset, T), so
    dn/dT = I(T). With D = n0 - n1 and S = n0 + n1 per pulse and
    seconds * 1e9 / T pulses per channel, SNR = D sqrt(pulses / S) and
    d ln SNR / dT = -1/(2T) + D'/D - S'/(2S).
    """

    def intensity(comps, t):
        return sum(c.amplitude * math.exp(-t / c.lifetime) for c in comps)

    def diff(t):
        # n0 - n1: the background cancels, the spin mixture leaves c_sat of it
        return c_sat * (intensity(model.spin0, t) - intensity(model.spin1, t))

    def total(t):
        mixed = (1.0 - c_sat) * intensity(model.spin0, t) + c_sat * intensity(model.spin1, t)
        return intensity(model.spin0, t) + mixed + 2.0 * intensity(model.background, t)

    def counts(period):
        return adaptive_simpson(diff, onset, period), adaptive_simpson(total, onset, period)

    def snr_at(period):
        d, s = counts(period)
        return d * math.sqrt(seconds * 1e9 / period / s)

    def slope(period):
        d, s = counts(period)
        return -0.5 / period + diff(period) / d - 0.5 * total(period) / s

    return snr_at, slope


def test_criterion_06_repetition_rate_optimum():
    with criterion(6, "rep-rate optimum at the SNR stationary point", 10.0):
        # two-exponential channels (12 / 11 ns) over a fast 1.5 ns background,
        # fixed 10 ns gate onset, fixed pulse energy, 1 ns period grid; the
        # SNR curve must match the quadrature oracle and its argmax must sit
        # within one step of the oracle's stationary point
        spin0 = (DecayComponent(1.0, 12.0),)
        bg_amp = background_amplitude(3.0, 1.5, spin0, 50.0, "integrated")
        model = FluorescenceModel(
            spin0=spin0,
            spin1=(DecayComponent(1.0, 11.0),),
            background=(DecayComponent(bg_amp, 1.5),),
        )
        periods = np.arange(20.0, 101.0, 1.0)
        snrs = []
        for period in periods:
            train = PulseTrain(1e9 / period)
            r0 = steady_rate(model, "ms0", 10.0, train)
            r1 = steady_rate(model, 0.15, 10.0, train)
            snrs.append(snr((r0 * 5.0, r1 * 5.0)))
        opt = int(np.argmax(snrs))
        best = periods[opt]

        snr_at, slope = _oracle(model, 0.15, 10.0, 5.0)
        oracle = np.array([snr_at(p) for p in periods])
        assert np.allclose(snrs, oracle, rtol=1e-9, atol=0.0)
        assert int(np.argmax(oracle)) == opt
        assert slope(periods[0]) > 0 > slope(periods[-1]), "no interior stationary point"
        t_star = brentq(slope, periods[0], periods[-1], xtol=1e-9)
        assert abs(best - t_star) < 1.0, f"grid optimum {best} ns, stationary point {t_star:.2f} ns"
        diffs = np.diff(snrs)
        assert np.all(diffs[:opt] > 0)
        assert np.all(diffs[opt:] < 0)


def test_criterion_07_monte_carlo_shot_noise():
    with criterion(7, "Monte-Carlo shot noise", 60.0):
        train = PulseTrain(BULK_REP_RATE)
        base = bulk_model()
        rate_ungated = steady_rate(base, "ms0", 0.0, train)
        model = base.scaled(5e6 / rate_ungated)
        gate = GateWindow(9.2, train.period)
        trials = 1000
        result = mc_snr_distribution(
            model, gate, train, 5.0, trials, seed=2026, c_sat=BULK_C_SAT
        )
        r0 = steady_rate(model, "ms0", 9.2, train)
        r1 = steady_rate(model, BULK_C_SAT, 9.2, train)
        analytic = snr((r0 * 5.0, r1 * 5.0))
        margin = 3.0 * result.std / math.sqrt(trials)
        assert abs(result.mean - analytic) <= margin


def test_criterion_08_hardware_gate_equivalence():
    with criterion(8, "hardware gate == offline filter", 5.0):
        train = PulseTrain(BULK_REP_RATE)
        events = simulate_events(bulk_model(), train, 0.00125, 50.0, seed=99, c_sat=BULK_C_SAT)
        assert len(events) >= 1_000_000
        delay = 9.2
        gate = GateWindow(delay, train.period)
        kept_hw = hw_gate(events, train, gate)
        kept_off = offline_gate(events, train, gate)
        assert len(kept_hw) == len(kept_off)
        assert np.array_equal(kept_hw.timestamps, kept_off.timestamps)
        assert np.array_equal(kept_hw.channels, kept_off.channels)


def test_criterion_09_fit_round_trip():
    with criterion(9, "ODMR fit round trip", 10.0):
        train = PulseTrain(BULK_REP_RATE)
        freqs = np.linspace(2.84e9, 2.90e9, 121)
        truth = DoubletTruth(
            center1=2.865e9, fwhm1=8e6, depth1=0.3, center2=2.875e9, fwhm2=8e6, depth2=0.3
        )
        gate = GateWindow(9.2, train.period)

        def mapped(window):
            n0 = gated_counts(bulk_model(), "ms0", window).total
            n1 = gated_counts(bulk_model(), "ms1", window).total
            c = (n0 - n1) / n0
            scale = train.rep_rate * 0.5 * n0
            return scale, c

        # noiseless synthetic spectra: every parameter to < 1e-6 relative
        noiseless = synth_odmr(bulk_model(), train, gate, freqs, truth, 0.5)
        fit, _ = fit_double_lorentzian(noiseless)
        baseline, c_gate = mapped(gate)
        assert fit.baseline == pytest.approx(baseline, rel=1e-6)
        assert fit.center1 == pytest.approx(2.865e9, rel=1e-6)
        assert fit.center2 == pytest.approx(2.875e9, rel=1e-6)
        assert fit.fwhm1 == pytest.approx(8e6, rel=1e-6)
        assert fit.fwhm2 == pytest.approx(8e6, rel=1e-6)
        assert fit.depth1 == pytest.approx(0.3 * c_gate, rel=1e-6)
        assert fit.depth2 == pytest.approx(0.3 * c_gate, rel=1e-6)

        # Poisson noise at gated bulk counts: contrast and linewidth within 5%
        noisy = synth_odmr(bulk_model(), train, gate, freqs, truth, 0.5, seed=31)
        nfit, _ = fit_double_lorentzian(noisy)
        assert nfit.depth1 == pytest.approx(0.3 * c_gate, rel=0.05)
        assert nfit.fwhm1 == pytest.approx(8e6, rel=0.05)
        assert nfit.depth2 == pytest.approx(0.3 * c_gate, rel=0.05)
        assert nfit.fwhm2 == pytest.approx(8e6, rel=0.05)

        # one truth, gated vs ungated: linewidth moves < 2%, contrast >= 3x
        ungated = synth_odmr(bulk_model(), train, None, freqs, truth, 0.5)
        ufit, _ = fit_double_lorentzian(ungated)
        assert abs(fit.fwhm1 - ufit.fwhm1) < 0.02 * ufit.fwhm1
        assert abs(fit.fwhm2 - ufit.fwhm2) < 0.02 * ufit.fwhm2
        assert fit.depth1 / ufit.depth1 >= 3.0
        assert fit.depth2 / ufit.depth2 >= 3.0


def test_criterion_10_map_properties():
    with criterion(10, "SNR map properties", 10.0):
        rng = np.random.default_rng(5)
        arr = rng.uniform(0, 10, (6, 8))
        up = catmull_rom_upsample(arr, 4)
        assert np.array_equal(up[::4, ::4], arr)
        const = catmull_rom_upsample(np.full((5, 5), 3.7), 4)
        assert np.all(const == 3.7)

        plane = rng.poisson(500, (4, 4)).astype(float)
        flat = snr_map(
            ScanMap(
                pitch=1.0,
                dwell=1.0,
                mw_off_gated=plane,
                mw_on_gated=plane,
                mw_off_ungated=plane,
                mw_on_ungated=plane,
            ),
            "gated",
            4,
        )
        assert np.all(flat.values == 0.0)

        # weak-emitter blob: visible through the gate, buried without it
        model = fnd_model()
        train = PulseTrain(FND_REP_RATE)
        gate = GateWindow(24.4, train.period)
        full = GateWindow(0.0, train.period)
        off_g = gated_counts(model, "ms0", gate).total
        on_g = gated_counts(model, FND_C_SAT, gate).total
        off_u = gated_counts(model, "ms0", full).total
        on_u = gated_counts(model, FND_C_SAT, full).total
        snr1_u = (off_u - on_u) / math.sqrt(off_u + on_u)
        pulses = (0.9 / snr1_u) ** 2
        bg_g = gated_counts(model, "ms0", gate).background * pulses
        bg_u = gated_counts(model, "ms0", full).background * pulses
        blob = (2, 3)
        values = {
            "mw_off_gated": (off_g, bg_g),
            "mw_on_gated": (on_g, bg_g),
            "mw_off_ungated": (off_u, bg_u),
            "mw_on_ungated": (on_u, bg_u),
        }
        planes = {}
        for name, (peak, bg) in values.items():
            p = np.full((5, 6), bg)
            p[blob] = peak * pulses
            planes[name] = p
        scan = ScanMap(pitch=0.5, dwell=pulses / train.rep_rate, **planes)
        gated_map = snr_map(scan, "gated", 4)
        ungated_map = snr_map(scan, "ungated", 4)
        node = (blob[0] * 4, blob[1] * 4)
        assert gated_map.values[node] > 3.0
        assert ungated_map.values[node] < 1.0
