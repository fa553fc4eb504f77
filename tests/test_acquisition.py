"""Stochastic layer: Poisson histogram sampling, photon event streams,
hardware vs offline gating, and the Monte-Carlo SNR distribution.

Statistical assertions use conservative tail bounds (4-5 sigma or an
in-test Monte-Carlo oracle) so seed churn cannot flake them.
"""

import math

import numpy as np
import pytest
from scipy.stats import chi2

from spingate.acquisition import (
    CHANNEL_OFF,
    CHANNEL_ON,
    EventStream,
    HwGateConfig,
    hw_gate,
    mc_snr_distribution,
    offline_gate,
    sample_histogram,
    simulate_events,
)
from spingate.decay import (
    DecayComponent,
    FluorescenceModel,
    GateWindow,
    PulseTrain,
    histogram_expectation,
    steady_rate,
)
from spingate.histogram import TcspcHistogram
from spingate.metrics import CountPair, snr


def small_model() -> FluorescenceModel:
    return FluorescenceModel(
        spin0=(DecayComponent(0.2, 12.0),),
        spin1=(DecayComponent(0.2, 8.0),),
        background=(DecayComponent(1.0, 1.7),),
    )


TRAIN = PulseTrain(20e6)


class TestSampleHistogram:
    def test_deterministic_for_fixed_seed(self):
        expected = histogram_expectation(small_model(), "ms0", TRAIN, 0.5, 1e-3)
        a = sample_histogram(expected, 11)
        b = sample_histogram(expected, 11)
        assert np.array_equal(a.counts, b.counts)

    def test_zero_expectation_samples_zero(self):
        h = TcspcHistogram(
            bin_width=1.0,
            counts=np.zeros(50),
            channel="mw_off",
            integration_time=1.0,
            rep_rate=20e6,
        )
        assert np.all(sample_histogram(h, 3).counts == 0)

    def test_negative_expectation_rejected(self):
        h = TcspcHistogram(
            bin_width=1.0,
            counts=np.zeros(50),
            channel="mw_off",
            integration_time=1.0,
            rep_rate=20e6,
        )
        bad = TcspcHistogram(
            bin_width=1.0,
            counts=h.counts,
            channel="mw_off",
            integration_time=1.0,
            rep_rate=20e6,
        )
        # histograms themselves refuse negative bins, so patch the array
        # bypassing validation to reach sample_histogram's own check
        object.__setattr__(bad, "counts", np.full(50, -1.0))
        with pytest.raises(ValueError, match="negative expectation"):
            sample_histogram(bad, 3)

    def test_large_mean_within_five_sigma(self):
        mean = 1e6
        h = TcspcHistogram(
            bin_width=1.0,
            counts=np.full(50, mean),
            channel="mw_off",
            integration_time=1.0,
            rep_rate=20e6,
        )
        s = sample_histogram(h, 123).counts
        assert np.all(np.abs(s - mean) < 5.0 * math.sqrt(mean))

    def test_integer_output(self):
        expected = histogram_expectation(small_model(), "ms0", TRAIN, 0.5, 1e-3)
        s = sample_histogram(expected, 7)
        assert np.issubdtype(s.counts.dtype, np.integer)


class TestSimulateEvents:
    def test_zero_amplitude_model_is_empty(self):
        m = FluorescenceModel(
            spin0=(DecayComponent(0.0, 12.0),),
            spin1=(DecayComponent(0.0, 8.0),),
        )
        ev = simulate_events(m, TRAIN, 1e-3, 50.0, 5)
        assert len(ev) == 0

    def test_deterministic_for_fixed_seed(self):
        a = simulate_events(small_model(), TRAIN, 2e-4, 50.0, 9)
        b = simulate_events(small_model(), TRAIN, 2e-4, 50.0, 9)
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.channels, b.channels)

    def test_timestamps_sorted_and_in_range(self):
        ev = simulate_events(small_model(), TRAIN, 2e-4, 50.0, 9)
        assert np.all(np.diff(ev.timestamps) >= 0)
        assert ev.timestamps[0] >= 0
        assert ev.timestamps[-1] < 2e-4 * 1e9

    def test_first_half_toggle_is_mw_off(self):
        # square wave starts MW-off; 0.2 ms < 10 ms half-toggle at 50 Hz
        ev = simulate_events(small_model(), TRAIN, 2e-4, 50.0, 9)
        assert np.all(ev.channels == CHANNEL_OFF)

    def test_channel_durations_balance(self):
        # 200 Hz toggle -> 2.5 ms half period; 10 ms covers 4 half cycles
        ev = simulate_events(small_model(), TRAIN, 10e-3, 200.0, 21)
        on = int(np.count_nonzero(ev.channels == CHANNEL_ON))
        off = len(ev) - on
        # equal expected counts per channel (same model both channels would
        # need c_sat=0; here just require the on fraction within a few sigma)
        frac = on / len(ev)
        assert 0.4 < frac < 0.6

    def test_histogram_matches_expectation_chi_square(self):
        m = small_model()
        integration = 2e-3  # 40k pulses, all MW-off at 50 Hz toggle
        ev = simulate_events(m, TRAIN, integration, 50.0, 31)
        assert np.all(ev.channels == CHANNEL_OFF)
        phase = ev.timestamps % TRAIN.period
        obs, _ = np.histogram(phase, bins=50, range=(0.0, TRAIN.period))
        want = histogram_expectation(m, "ms0", TRAIN, 1.0, integration).counts
        assert np.all(want > 10)
        stat = float(np.sum((obs - want) ** 2 / want))
        assert stat < chi2.ppf(0.999, 50)

    def test_grand_total_within_four_sigma(self):
        m = small_model()
        integration = 2e-3
        ev = simulate_events(m, TRAIN, integration, 50.0, 17)
        want = integration * steady_rate(m, "ms0", 0.0, TRAIN)
        assert abs(len(ev) - want) < 4.0 * math.sqrt(want)

    def test_emg_model_sampling_runs(self):
        m = FluorescenceModel(
            spin0=(DecayComponent(0.2, 12.0),),
            spin1=(DecayComponent(0.2, 8.0),),
            irf_sigma=0.4,
        )
        ev = simulate_events(m, TRAIN, 1e-4, 50.0, 3)
        assert len(ev) > 0
        assert np.all(np.diff(ev.timestamps) >= 0)


@pytest.fixture(scope="module")
def stream():
    return simulate_events(small_model(), TRAIN, 1e-3, 200.0, 77)


class TestGating:
    def test_full_period_gate_keeps_everything(self, stream):
        cfg = HwGateConfig(trigger_delay=0.0, gate_length=TRAIN.period)
        kept = hw_gate(stream, TRAIN, cfg)
        assert len(kept) == len(stream)

    def test_jitter_free_equals_inline_modular_filter(self, stream):
        delay, length = 6.0, 30.0
        cfg = HwGateConfig(trigger_delay=delay, gate_length=length)
        kept = hw_gate(stream, TRAIN, cfg)
        # independently written reference predicate
        t = stream.timestamps
        phase = t - np.floor(t / TRAIN.period) * TRAIN.period
        mask = (phase >= delay) & (phase < delay + length)
        assert np.array_equal(kept.timestamps, t[mask])
        assert np.array_equal(kept.channels, stream.channels[mask])

    def test_jitter_free_matches_offline_gate(self, stream):
        cfg = HwGateConfig(trigger_delay=9.2, gate_length=TRAIN.period - 9.2)
        hw = hw_gate(stream, TRAIN, cfg)
        off = offline_gate(stream, TRAIN, GateWindow(9.2, TRAIN.period))
        assert np.array_equal(hw.timestamps, off.timestamps)
        assert np.array_equal(hw.channels, off.channels)

    def test_jitter_requires_seed(self, stream):
        cfg = HwGateConfig(trigger_delay=6.0, gate_length=30.0, jitter_sigma=0.5)
        with pytest.raises(ValueError, match="requires a seed"):
            hw_gate(stream, TRAIN, cfg)

    def test_jittered_kept_count_within_mc_envelope(self, stream):
        # Monte-Carlo oracle: rerun the jittered gate with fresh seeds to
        # estimate the kept-count spread, then place one more draw inside it.
        cfg = HwGateConfig(trigger_delay=6.0, gate_length=30.0, jitter_sigma=0.5)
        counts = np.array(
            [len(hw_gate(stream, TRAIN, cfg, seed=1000 + k)) for k in range(30)]
        )
        probe = len(hw_gate(stream, TRAIN, cfg, seed=4))
        center = counts.mean()
        spread = max(counts.std(ddof=1), 1.0)
        assert abs(probe - center) < 5.0 * spread
        # no-jitter count sits inside the same envelope (zero-mean jitter)
        no_jitter = len(
            hw_gate(stream, TRAIN, HwGateConfig(trigger_delay=6.0, gate_length=30.0))
        )
        assert abs(no_jitter - center) < 5.0 * spread

    def test_gate_beyond_period_rejected(self, stream):
        with pytest.raises(ValueError, match="exceeds the pulse period"):
            hw_gate(stream, TRAIN, HwGateConfig(trigger_delay=30.0, gate_length=30.0))

    def test_offline_gate_bounded_window(self, stream):
        kept = offline_gate(stream, TRAIN, GateWindow(5.0, 20.0))
        phase = kept.timestamps % TRAIN.period
        assert np.all((phase >= 5.0) & (phase < 20.0))


class TestMcSnr:
    def test_reproducible_pair(self):
        m = small_model()
        gate = GateWindow(5.0, 50.0)
        a = mc_snr_distribution(m, gate, TRAIN, 1e-2, 2, 99)
        b = mc_snr_distribution(m, gate, TRAIN, 1e-2, 2, 99)
        assert np.array_equal(a.samples, b.samples)
        assert a.mean == b.mean and a.std == b.std

    def test_infinite_count_limit_matches_analytic(self):
        m = small_model().scaled(500.0)
        gate = GateWindow(9.2, 50.0)
        res = mc_snr_distribution(m, gate, TRAIN, 1.0, 5, 12345)
        per_channel = 1.0 * 0.5
        n0 = steady_rate(m, "ms0", 9.2, TRAIN) * per_channel
        n1 = steady_rate(m, 0.15, 9.2, TRAIN) * per_channel
        analytic = snr(CountPair(n0, n1))
        assert res.mean == pytest.approx(analytic, rel=1e-3)

    def test_mean_within_central_limit_band(self):
        m = small_model().scaled(20.0)
        gate = GateWindow(9.2, 50.0)
        trials = 100
        res = mc_snr_distribution(m, gate, TRAIN, 0.1, trials, 2026)
        per_channel = 0.1 * 0.5
        n0 = steady_rate(m, "ms0", 9.2, TRAIN) * per_channel
        n1 = steady_rate(m, 0.15, 9.2, TRAIN) * per_channel
        analytic = snr(CountPair(n0, n1))
        assert abs(res.mean - analytic) < 5.0 * res.std / math.sqrt(trials)

    def test_duty_sets_both_channel_times(self):
        # At mw_duty = 0.3 each channel integrates for 0.3 of the time, as the
        # analytic SNR of the sweeps assumes.
        m = small_model().scaled(20.0)
        gate = GateWindow(9.2, 50.0)
        trials = 100
        res = mc_snr_distribution(m, gate, TRAIN, 0.1, trials, 2026, mw_duty=0.3)
        per_channel = 0.1 * 0.3
        n0 = steady_rate(m, "ms0", 9.2, TRAIN) * per_channel
        n1 = steady_rate(m, 0.15, 9.2, TRAIN) * per_channel
        analytic = snr(CountPair(n0, n1))
        assert abs(res.mean - analytic) < 5.0 * res.std / math.sqrt(trials)

    def test_single_trial_has_zero_std(self):
        res = mc_snr_distribution(small_model(), GateWindow(5.0, 50.0), TRAIN, 1e-2, 1, 5)
        assert res.std == 0.0
        assert res.samples.size == 1


class TestEventTypes:
    def test_stream_must_be_sorted(self):
        with pytest.raises(ValueError):
            EventStream(np.array([2.0, 1.0]), np.array([0, 0], dtype=np.uint8))

    def test_hw_gate_config_validation(self):
        with pytest.raises(ValueError):
            HwGateConfig(trigger_delay=-1.0, gate_length=10.0)
        with pytest.raises(ValueError):
            HwGateConfig(trigger_delay=0.0, gate_length=0.0)
