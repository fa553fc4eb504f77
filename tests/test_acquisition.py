"""Stochastic layer: Poisson histogram sampling, photon event streams,
hardware vs offline gating, and the Monte-Carlo SNR distribution.

Statistical assertions use conservative tail bounds (4-5 sigma or an
in-test Monte-Carlo oracle) so seed churn cannot flake them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, ks_2samp

from spingate import acquisition
from spingate.acquisition import (
    BLOCK_PULSES,
    EventStream,
    block_count,
    block_seed,
    hw_gate,
    hw_gate_expectation,
    hw_gate_window,
    mc_snr_distribution,
    offline_gate,
    sample_histogram,
    simulate_events,
)
from spingate.decay import (
    CHANNELS,
    DecayComponent,
    FluorescenceModel,
    GateWindow,
    PulseTrain,
    histogram_expectation,
    steady_rate,
)
from spingate.histogram import TcspcHistogram
from spingate.metrics import CountPair, snr
from spingate.sweep import SweepConfig, sweep_gate


def small_model() -> FluorescenceModel:
    return FluorescenceModel(
        spin0=(DecayComponent(0.2, 12.0),),
        spin1=(DecayComponent(0.2, 8.0),),
        background=(DecayComponent(1.0, 1.7),),
    )


TRAIN = PulseTrain(20e6)
C_SAT = 0.15  # MW-on mixture weight
CHANNEL_OFF, CHANNEL_ON = CHANNELS.index("mw_off"), CHANNELS.index("mw_on")


class TestSampleHistogram:
    def test_deterministic_for_fixed_seed(self):
        expected = histogram_expectation(small_model(), "ms0", TRAIN, 0.5, 1e-3)
        a = sample_histogram(expected, 11)
        b = sample_histogram(expected, 11)
        assert np.array_equal(a.counts, b.counts)

    def test_requires_seed(self):
        # a None seed would draw from the operating system's entropy
        expected = histogram_expectation(small_model(), "ms0", TRAIN, 0.5, 1e-3)
        with pytest.raises(ValueError, match="sample_histogram requires a seed"):
            sample_histogram(expected, None)

    def test_zero_expectation_samples_zero(self):
        h = TcspcHistogram(
            bin_width=1.0,
            counts=np.zeros(50),
            channel="mw_off",
            channel_time=1.0,
            rep_rate=20e6,
        )
        assert np.all(sample_histogram(h, 3).counts == 0)

    def test_negative_expectation_rejected(self):
        h = TcspcHistogram(
            bin_width=1.0,
            counts=np.zeros(50),
            channel="mw_off",
            channel_time=1.0,
            rep_rate=20e6,
        )
        bad = TcspcHistogram(
            bin_width=1.0,
            counts=h.counts,
            channel="mw_off",
            channel_time=1.0,
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
            channel_time=1.0,
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
        ev = simulate_events(m, TRAIN, 1e-3, 50.0, 5, C_SAT)
        assert len(ev) == 0

    def test_deterministic_for_fixed_seed(self):
        a = simulate_events(small_model(), TRAIN, 2e-4, 50.0, 9, C_SAT)
        b = simulate_events(small_model(), TRAIN, 2e-4, 50.0, 9, C_SAT)
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.channels, b.channels)

    @pytest.mark.parametrize("block", [None, 0])
    def test_requires_seed(self, block):
        with pytest.raises(ValueError, match="simulate_events requires a seed"):
            simulate_events(small_model(), TRAIN, 2e-4, 50.0, None, C_SAT, block=block)

    @pytest.mark.parametrize(
        "rate, message",
        [(math.inf, "must be finite, got inf"), (math.nan, "must be > 0"), (0.0, "must be > 0")],
    )
    def test_toggle_rate_must_be_finite_and_positive(self, rate, message):
        with pytest.raises(ValueError, match=f"mw_toggle_rate {message}"):
            simulate_events(small_model(), TRAIN, 2e-4, rate, 9, C_SAT)

    def test_timestamps_sorted_and_in_range(self):
        ev = simulate_events(small_model(), TRAIN, 2e-4, 50.0, 9, C_SAT)
        assert np.all(np.diff(ev.timestamps) >= 0)
        assert ev.timestamps[0] >= 0
        assert ev.timestamps[-1] < 2e-4 * 1e9

    def test_first_half_toggle_is_mw_off(self):
        # square wave starts MW-off; 0.2 ms < 10 ms half-toggle at 50 Hz
        ev = simulate_events(small_model(), TRAIN, 2e-4, 50.0, 9, C_SAT)
        assert np.all(ev.channels == CHANNEL_OFF)

    def test_channel_durations_balance(self):
        # 200 Hz toggle -> 2.5 ms half period; 10 ms covers 4 half cycles
        ev = simulate_events(small_model(), TRAIN, 10e-3, 200.0, 21, C_SAT)
        on = int(np.count_nonzero(ev.channels == CHANNEL_ON))
        off = len(ev) - on
        # equal expected counts per channel (same model both channels would
        # need c_sat=0; here just require the on fraction within a few sigma)
        frac = on / len(ev)
        assert 0.4 < frac < 0.6

    def test_histogram_matches_expectation_chi_square(self):
        m = small_model()
        integration = 2e-3  # 40k pulses, all MW-off at 50 Hz toggle
        ev = simulate_events(m, TRAIN, integration, 50.0, 31, C_SAT)
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
        ev = simulate_events(m, TRAIN, integration, 50.0, 17, C_SAT)
        want = integration * steady_rate(m, "ms0", 0.0, TRAIN)
        assert abs(len(ev) - want) < 4.0 * math.sqrt(want)

    def test_irf_dark_channels_match_expectation_chi_square(self):
        # Gaussian IRF, a dark rate and a pulse 2.5 ns into the period: the
        # phases of each channel follow that channel's expected histogram.
        m = FluorescenceModel(
            spin0=(DecayComponent(0.2, 12.0),),
            spin1=(DecayComponent(0.2, 8.0),),
            background=(DecayComponent(1.0, 1.7),),
            dark_rate=0.002,
            irf_sigma=0.3,
            pulse_time=2.5,
        )
        integration = 2e-3  # 40k pulses
        # a 1 kHz toggle gives 10k-pulse half cycles: 20k pulses per channel
        ev = simulate_events(m, TRAIN, integration, 1000.0, 31, C_SAT)
        phase = ev.timestamps % TRAIN.period
        for code, spin in ((CHANNEL_OFF, "ms0"), (CHANNEL_ON, C_SAT)):
            obs, _ = np.histogram(phase[ev.channels == code], bins=50, range=(0.0, TRAIN.period))
            want = histogram_expectation(m, spin, TRAIN, 1.0, integration / 2).counts
            assert np.all(want > 10)
            stat = float(np.sum((obs - want) ** 2 / want))
            assert stat < chi2.ppf(0.999, 50)

    def test_emg_model_sampling_runs(self):
        m = FluorescenceModel(
            spin0=(DecayComponent(0.2, 12.0),),
            spin1=(DecayComponent(0.2, 8.0),),
            irf_sigma=0.4,
        )
        ev = simulate_events(m, TRAIN, 1e-4, 50.0, 3, C_SAT)
        assert len(ev) > 0
        assert np.all(np.diff(ev.timestamps) >= 0)


class TestEventBlocks:
    # 2.5 blocks of pulses, with a 1 kHz toggle so both channels occur
    INTEGRATION = 2.5 * BLOCK_PULSES / TRAIN.rep_rate

    def test_blocks_concatenate_to_the_stream(self):
        whole = simulate_events(small_model(), TRAIN, self.INTEGRATION, 1000.0, 12, C_SAT)
        n_blocks = block_count(TRAIN, self.INTEGRATION)
        assert n_blocks == 3
        blocks = [
            simulate_events(small_model(), TRAIN, self.INTEGRATION, 1000.0, 12, C_SAT, block=k)
            for k in range(n_blocks)
        ]
        assert all(len(b) > 0 for b in blocks)
        assert np.array_equal(np.concatenate([b.timestamps for b in blocks]), whole.timestamps)
        assert np.array_equal(np.concatenate([b.channels for b in blocks]), whole.channels)
        assert set(whole.channels.tolist()) == {CHANNEL_OFF, CHANNEL_ON}

    def test_first_block_is_the_one_block_acquisition(self):
        first = simulate_events(
            small_model(), TRAIN, self.INTEGRATION, 1000.0, 12, C_SAT, block=0
        )
        one = simulate_events(
            small_model(), TRAIN, BLOCK_PULSES / TRAIN.rep_rate, 1000.0, 12, C_SAT
        )
        assert block_count(TRAIN, BLOCK_PULSES / TRAIN.rep_rate) == 1
        assert np.array_equal(first.timestamps, one.timestamps)
        assert np.array_equal(first.channels, one.channels)

    def test_block_lies_in_its_own_pulses(self):
        ev = simulate_events(small_model(), TRAIN, self.INTEGRATION, 1000.0, 12, C_SAT, block=2)
        pulse = np.floor_divide(ev.timestamps, TRAIN.period)
        assert pulse.min() >= 2 * BLOCK_PULSES
        assert pulse.max() < self.INTEGRATION * TRAIN.rep_rate

    def test_block_out_of_range(self):
        for block in (-1, 3):
            with pytest.raises(ValueError, match="block"):
                simulate_events(
                    small_model(), TRAIN, self.INTEGRATION, 1000.0, 12, C_SAT, block=block
                )

    def test_source_means_computed_once_per_stream(self, monkeypatch):
        # drawing a stream block by block evaluates the per-source window
        # masses (EMG tails under an IRF) once, not once per block
        calls = []
        window_counts = acquisition._window_counts
        monkeypatch.setattr(
            acquisition, "_window_counts", lambda *a: calls.append(1) or window_counts(*a)
        )
        acquisition._source_means.cache_clear()
        window = GateWindow(2.0, 22.0)
        model = irf_model(0.3)
        for k in range(block_count(TRAIN, self.INTEGRATION)):
            simulate_events(
                model, TRAIN, self.INTEGRATION, 1000.0, 12, C_SAT, block=k, window=window
            )
            assert len(calls) == 2 * 3  # two mass evaluations per decay component

    def test_no_pulses_is_one_empty_block(self):
        assert block_count(TRAIN, 0.0) == 1
        assert len(simulate_events(small_model(), TRAIN, 0.0, 50.0, 1, C_SAT, block=0)) == 0

    @pytest.mark.parametrize(
        "integration, message",
        [(math.inf, "must be finite, got inf"), (math.nan, "must be >= 0"), (-1.0, "must be >= 0")],
    )
    def test_block_count_needs_a_finite_acquisition(self, integration, message):
        with pytest.raises(ValueError, match=f"stream_time {message}"):
            block_count(TRAIN, integration)

    def test_block_count_on_both_sides_of_the_timestamp_limit(self):
        # below the limit a float64 timestamp resolves 1 ps; at it, no longer
        limit = acquisition.TIMESTAMP_LIMIT_NS
        assert (acquisition.PHASE_RESOLUTION_NS, limit) == (1e-3, 2.0**43)
        assert np.spacing(np.nextafter(limit, 0.0)) <= 1e-3 < np.spacing(limit)
        # counted, never drawn: just under the limit is about 4.3e7 blocks
        below = limit * (1 - 1e-12) / 1e9
        assert block_count(TRAIN, below) == -(-int(below * TRAIN.rep_rate) // BLOCK_PULSES)
        above = limit * (1 + 1e-12) / 1e9
        for integration in (above, 1e300, 1e308):
            with pytest.raises(ValueError) as err:
                block_count(TRAIN, integration)
            assert str(err.value) == (
                f"stream_time {integration:g} s runs timestamps past 8.79609e+12 ns, "
                "where float64 no longer resolves 0.001 ns of phase"
            )
        with pytest.raises(ValueError, match="runs timestamps past"):
            simulate_events(small_model(), TRAIN, 1e300, 50.0, 1, C_SAT)


def irf_model(sigma: float) -> FluorescenceModel:
    """small_model with a dark rate and the pulse 2.5 ns into the period."""
    return FluorescenceModel(
        spin0=(DecayComponent(0.2, 12.0),),
        spin1=(DecayComponent(0.2, 8.0),),
        background=(DecayComponent(1.0, 1.7),),
        dark_rate=0.02,
        irf_sigma=sigma,
        pulse_time=2.5,
    )


# None is the full period; [2, 22) opens before the pulse, [9, 29) after it
WINDOWS = [None, GateWindow(2.0, 22.0), GateWindow(9.0, 29.0)]


class TestWindowedDraw:
    # 40k pulses with a 1 kHz toggle: 20k pulses per channel
    INTEGRATION = 2e-3
    TOGGLE = 1000.0

    def draw(self, sigma, window, seed):
        return simulate_events(
            irf_model(sigma), TRAIN, self.INTEGRATION, self.TOGGLE, seed, C_SAT, window=window
        )

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_phases_match_expectation_chi_square(self, sigma, window):
        start, end = (0, 50) if window is None else (int(window.t_start), int(window.t_end))
        ev = self.draw(sigma, window, 31)
        phase = ev.timestamps % TRAIN.period
        assert np.all((phase >= start) & (phase < end))
        for code, spin in ((CHANNEL_OFF, "ms0"), (CHANNEL_ON, C_SAT)):
            obs, _ = np.histogram(phase[ev.channels == code], bins=end - start, range=(start, end))
            full = histogram_expectation(irf_model(sigma), spin, TRAIN, 1.0, self.INTEGRATION / 2)
            want = full.counts[start:end]
            assert np.all(want > 10)
            stat = float(np.sum((obs - want) ** 2 / want))
            assert stat < chi2.ppf(0.999, end - start)

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_drawn_plus_outside_is_the_full_period_count(self, sigma, window):
        ev = self.draw(sigma, window, 17)
        want = sum(
            steady_rate(irf_model(sigma), spin, 0.0, TRAIN) * self.INTEGRATION / 2
            for spin in ("ms0", C_SAT)
        )
        assert abs(len(ev) + ev.n_outside - want) < 4.0 * math.sqrt(want)
        assert (ev.n_outside == 0) == (window is None)

    @pytest.mark.parametrize("window", WINDOWS[1:])
    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_windowed_and_full_draws_agree_inside_the_window(self, sigma, window):
        full = self.draw(sigma, None, 41)
        windowed = self.draw(sigma, window, 42)
        inside = offline_gate(full, TRAIN, window)
        for code in (CHANNEL_OFF, CHANNEL_ON):
            a = inside.timestamps[inside.channels == code] % TRAIN.period
            b = windowed.timestamps[windowed.channels == code] % TRAIN.period
            assert abs(a.size - b.size) < 4.0 * math.sqrt(a.size + b.size)
            assert ks_2samp(a, b).pvalue > 1e-3

    def test_blocks_with_a_window_concatenate_to_the_stream(self):
        integration = 2.5 * BLOCK_PULSES / TRAIN.rep_rate
        window = GateWindow(2.0, 22.0)
        whole = simulate_events(
            irf_model(0.3), TRAIN, integration, 1000.0, 12, C_SAT, window=window
        )
        blocks = [
            simulate_events(
                irf_model(0.3), TRAIN, integration, 1000.0, 12, C_SAT, block=k, window=window
            )
            for k in range(block_count(TRAIN, integration))
        ]
        assert np.array_equal(np.concatenate([b.timestamps for b in blocks]), whole.timestamps)
        assert np.array_equal(np.concatenate([b.channels for b in blocks]), whole.channels)
        assert sum(b.n_outside for b in blocks) == whole.n_outside
        assert set(whole.channels.tolist()) == {CHANNEL_OFF, CHANNEL_ON}

    def test_window_must_start_inside_the_period(self):
        with pytest.raises(ValueError, match="window must start inside"):
            self.draw(0.0, GateWindow(50.0, 60.0), 1)

    def test_selection_keeps_the_acquisition_count(self):
        ev = self.draw(0.0, GateWindow(2.0, 22.0), 5)
        kept = offline_gate(ev, TRAIN, GateWindow(9.0, 29.0))
        assert 0 < len(kept) < len(ev)
        assert len(kept) + kept.n_outside == len(ev) + ev.n_outside


@pytest.fixture(scope="module")
def stream():
    return simulate_events(small_model(), TRAIN, 1e-3, 200.0, 77, C_SAT)


class TestGating:
    def test_full_period_gate_keeps_everything(self, stream):
        kept = hw_gate(stream, TRAIN, GateWindow(0.0, TRAIN.period))
        assert len(kept) == len(stream)

    def test_jitter_free_equals_inline_modular_filter(self, stream):
        delay, length = 6.0, 30.0
        kept = hw_gate(stream, TRAIN, GateWindow(delay, delay + length))
        # independently written reference predicate
        t = stream.timestamps
        phase = t - np.floor(t / TRAIN.period) * TRAIN.period
        mask = (phase >= delay) & (phase < delay + length)
        assert np.array_equal(kept.timestamps, t[mask])
        assert np.array_equal(kept.channels, stream.channels[mask])

    def test_jitter_free_matches_offline_gate(self, stream):
        gate = GateWindow(9.2, TRAIN.period)
        hw = hw_gate(stream, TRAIN, gate)
        off = offline_gate(stream, TRAIN, gate)
        assert np.array_equal(hw.timestamps, off.timestamps)
        assert np.array_equal(hw.channels, off.channels)

    def test_jitter_requires_seed(self, stream):
        with pytest.raises(ValueError, match="requires a seed"):
            hw_gate(stream, TRAIN, GateWindow(6.0, 36.0), jitter_sigma=0.5)

    def test_jittered_kept_count_within_mc_envelope(self, stream):
        # Monte-Carlo oracle: rerun the jittered gate with fresh seeds to
        # estimate the kept-count spread, then place one more draw inside it.
        gate = GateWindow(6.0, 36.0)
        counts = np.array(
            [len(hw_gate(stream, TRAIN, gate, 0.5, seed=1000 + k)) for k in range(30)]
        )
        probe = len(hw_gate(stream, TRAIN, gate, 0.5, seed=4))
        center = counts.mean()
        spread = max(counts.std(ddof=1), 1.0)
        assert abs(probe - center) < 5.0 * spread
        # no-jitter count sits inside the same envelope (zero-mean jitter)
        no_jitter = len(hw_gate(stream, TRAIN, gate))
        assert abs(no_jitter - center) < 5.0 * spread

    @pytest.mark.parametrize("jitter", [0.5, 2.0])
    def test_jittered_kept_counts_match_closed_form(self, jitter):
        # The MW square wave toggles every BLOCK_PULSES pulses, so the blocks
        # alternate channel and each channel's blocks are independent draws of
        # one distribution: their spread gives the standard error, which the
        # per-pulse shift shared by a pulse's events widens beyond Poisson.
        gate = GateWindow(9.2, 29.2)
        n_blocks = 40
        integration = n_blocks * BLOCK_PULSES / TRAIN.rep_rate
        toggle = TRAIN.rep_rate / (2 * BLOCK_PULSES)
        window = hw_gate_window(gate, TRAIN, jitter)
        stream_seed, gate_seed = np.random.SeedSequence(2026).spawn(2)
        kept = []
        for k in range(n_blocks):
            events = simulate_events(
                small_model(), TRAIN, integration, toggle, stream_seed, C_SAT,
                block=k, window=window,
            )
            assert np.all(events.channels == k % 2)
            kept.append(len(hw_gate(events, TRAIN, gate, jitter, block_seed(gate_seed, k))))
        per_pulse = hw_gate_expectation(small_model(), TRAIN, gate, jitter, C_SAT)
        for code in (CHANNEL_OFF, CHANNEL_ON):
            blocks = np.array(kept[code::2])
            error = blocks.std(ddof=1) * math.sqrt(blocks.size)
            assert abs(blocks.sum() - per_pulse[code] * BLOCK_PULSES * blocks.size) < 5.0 * error

    def test_jittered_edges_neither_wrap_nor_clip(self, stream):
        # A gate within 2 sigma_j of 0 and of the period, where
        # hw_gate_expectation (which integrates the intensity past the period
        # edge) and the truncated stream part ways. Independently written
        # reference: each event is compared with its own pulse's edges,
        # shifted by that pulse's draw, even when they leave [0, period).
        jitter, seed, period = 2.0, 8, TRAIN.period
        gate = GateWindow(1.0, period - 1.0)
        kept = hw_gate(stream, TRAIN, gate, jitter, seed=seed)
        t = stream.timestamps
        pulse = np.floor(t / period).astype(np.int64)
        phase = t - pulse * period
        pulse -= pulse[0]
        shift = np.random.default_rng(seed).standard_normal(pulse[-1] + 1) * jitter
        start, end = gate.t_start + shift, gate.t_end + shift
        own = (phase >= start[pulse]) & (phase < end[pulse])
        assert np.array_equal(kept.timestamps, t[own])
        assert np.array_equal(kept.channels, stream.channels[own])
        # both edges leave the period in pulses that keep events
        assert np.any(own & (start[pulse] < 0.0))
        assert np.any(own & (end[pulse] > period))
        # a wrapping gate would also keep the next period's phases below an
        # end past the period, and the previous period's phases above a start
        # below 0; a gate held inside the period would clip the shift
        prev_end = np.r_[-np.inf, end[:-1] - period][pulse]
        next_start = np.r_[start[1:] + period, np.inf][pulse]
        wrapped = own | (phase < prev_end) | (phase >= next_start)
        assert np.any(wrapped & ~own)
        held = np.clip(shift, -gate.t_start, period - gate.t_end)[pulse]
        clipped = (phase >= gate.t_start + held) & (phase < gate.t_end + held)
        assert np.any(clipped != own)

    def test_gate_beyond_period_rejected(self, stream):
        with pytest.raises(ValueError, match="exceeds the pulse period"):
            hw_gate(stream, TRAIN, GateWindow(30.0, 60.0))

    def test_offline_gate_bounded_window(self, stream):
        kept = offline_gate(stream, TRAIN, GateWindow(5.0, 20.0))
        phase = kept.timestamps % TRAIN.period
        assert np.all((phase >= 5.0) & (phase < 20.0))


class TestMcSnr:
    def test_reproducible_pair(self):
        m = small_model()
        gate = GateWindow(5.0, 50.0)
        a = mc_snr_distribution(m, gate, TRAIN, 1e-2, 2, 99, C_SAT)
        b = mc_snr_distribution(m, gate, TRAIN, 1e-2, 2, 99, C_SAT)
        assert np.array_equal(a.samples, b.samples)
        assert a.mean == b.mean and a.std == b.std

    def test_requires_seed(self):
        with pytest.raises(ValueError, match="mc_snr_distribution requires a seed"):
            mc_snr_distribution(small_model(), GateWindow(5.0, 50.0), TRAIN, 1e-2, 2, None, C_SAT)

    def test_infinite_count_limit_matches_analytic(self):
        m = small_model().scaled(500.0)
        gate = GateWindow(9.2, 50.0)
        per_channel = 0.5
        res = mc_snr_distribution(m, gate, TRAIN, per_channel, 5, 12345, C_SAT)
        n0 = steady_rate(m, "ms0", 9.2, TRAIN) * per_channel
        n1 = steady_rate(m, C_SAT, 9.2, TRAIN) * per_channel
        analytic = snr(CountPair(n0, n1))
        assert res.mean == pytest.approx(analytic, rel=1e-3)

    def test_mean_within_central_limit_band(self):
        m = small_model().scaled(20.0)
        gate = GateWindow(9.2, 50.0)
        trials = 100
        per_channel = 0.05
        res = mc_snr_distribution(m, gate, TRAIN, per_channel, trials, 2026, C_SAT)
        n0 = steady_rate(m, "ms0", 9.2, TRAIN) * per_channel
        n1 = steady_rate(m, C_SAT, 9.2, TRAIN) * per_channel
        analytic = snr(CountPair(n0, n1))
        assert abs(res.mean - analytic) < 5.0 * res.std / math.sqrt(trials)

    def test_duty_sets_both_channel_times(self):
        # At mw_duty = 0.3 each channel integrates for cfg.channel_time, the
        # time the analytic SNR of the gate sweep uses.
        m = small_model().scaled(20.0)
        cfg = SweepConfig(integration_time=0.1, mw_duty=0.3)
        assert cfg.channel_time == pytest.approx(0.03)
        trials = 100
        res = mc_snr_distribution(m, GateWindow(9.2, 50.0), TRAIN, cfg.channel_time, trials, 2026,
                                  cfg.c_sat)
        report = sweep_gate(m, TRAIN, cfg)
        analytic = report.snr[np.isclose(report.tau_c_grid, 9.2)][0]
        assert abs(res.mean - analytic) < 5.0 * res.std / math.sqrt(trials)

    # a duty above 0.5 is invalid; one far below 0.01 leaves trials with no
    # counts in either channel, where the SNR is undefined
    @given(duty=st.floats(0.01, 0.5), index=st.integers(0, 200), seed=st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_analytic_is_the_sweep_snr_for_any_duty(self, duty, index, seed):
        m = small_model().scaled(20.0)
        cfg = SweepConfig(integration_time=0.1, mw_duty=duty, tau_c_max=20.0)
        report = sweep_gate(m, TRAIN, cfg)
        onset = float(report.tau_c_grid[index])
        trials = 200
        res = mc_snr_distribution(m, GateWindow(onset), TRAIN, cfg.channel_time, trials, seed,
                                  cfg.c_sat)
        assert res.analytic == pytest.approx(report.snr[index], rel=1e-12)
        assert abs(res.mean - res.analytic) < 5.0 * res.std / math.sqrt(trials)

    def test_shot_noise_std_is_one(self):
        # Var(N0 - N1) = N0 + N1, so at high counts the SNR scatters with
        # unit standard deviation; 1000 trials pin it to about 2 %.
        m = small_model().scaled(500.0)
        res = mc_snr_distribution(m, GateWindow(9.2, 50.0), TRAIN, 0.5, 1000, 77, C_SAT)
        assert abs(res.std - 1.0) < 0.1

    def test_trials_are_stable_by_prefix(self):
        gate = GateWindow(5.0, 50.0)
        short = mc_snr_distribution(small_model(), gate, TRAIN, 1e-2, 50, 8, C_SAT)
        long = mc_snr_distribution(small_model(), gate, TRAIN, 1e-2, 100, 8, C_SAT)
        assert np.array_equal(long.samples[:50], short.samples)

    def test_single_trial_has_zero_std(self):
        res = mc_snr_distribution(small_model(), GateWindow(5.0, 50.0), TRAIN, 1e-2, 1, 5, C_SAT)
        assert res.std == 0.0
        assert res.samples.size == 1


class TestEventTypes:
    def test_stream_must_be_sorted(self):
        with pytest.raises(ValueError):
            EventStream(np.array([2.0, 1.0]), np.array([0, 0], dtype=np.uint8))

    @pytest.mark.parametrize(
        "timestamps",
        [[math.nan], [1.0, math.nan, 2.0], [math.nan, 1.0], [1.0, math.nan],
         [math.inf], [1.0, math.inf], [-math.inf, 1.0], [-0.5, 1.0]],
    )
    def test_stream_timestamps_must_be_finite_and_non_negative(self, timestamps):
        # a NaN passes both a "< 0" check and an np.diff order check
        with pytest.raises(ValueError, match="finite, non-negative and sorted"):
            EventStream(np.array(timestamps), np.zeros(len(timestamps), np.uint8))

    @pytest.mark.parametrize("n_outside", [1.5, 2.0, -1, np.int64(-3), "2", None])
    def test_stream_n_outside_must_be_a_non_negative_integer(self, n_outside):
        with pytest.raises(ValueError, match="n_outside"):
            EventStream(np.array([1.0]), np.array([0], np.uint8), n_outside)

    def test_stream_n_outside_stored_as_int(self):
        stream = EventStream(np.array([1.0]), np.array([0], np.uint8), np.int64(4))
        assert type(stream.n_outside) is int and stream.n_outside == 4
        assert stream.select(np.array([False])).n_outside == 5

    def test_hw_gate_config_validation(self):
        # the gate is a GateWindow, which rejects a negative delay and an
        # empty window; hw_gate itself rejects a negative jitter
        with pytest.raises(ValueError):
            GateWindow(-1.0, 9.0)
        with pytest.raises(ValueError):
            GateWindow(0.0, 0.0)
        stream = EventStream(np.array([1.0]), np.array([0], dtype=np.uint8))
        with pytest.raises(ValueError, match="jitter_sigma"):
            hw_gate(stream, TRAIN, GateWindow(0.0, 10.0), jitter_sigma=-0.5, seed=1)

    @pytest.mark.parametrize(
        "jitter, message",
        [(math.inf, "must be finite, got inf"), (math.nan, "must be >= 0"), (-math.inf, "must be >= 0")],
    )
    def test_hw_gate_jitter_must_be_finite(self, jitter, message):
        stream = EventStream(np.array([1.0]), np.array([0], dtype=np.uint8))
        with pytest.raises(ValueError, match=f"jitter_sigma {message}"):
            hw_gate(stream, TRAIN, GateWindow(0.0, 10.0), jitter_sigma=jitter, seed=1)
