"""Gate / repetition-rate sweeps on the two preset models.

Numbers frozen here were produced by exhaustive fine-grid evaluation of the
closed-form count model and are treated as regression anchors.
"""

import math

import numpy as np
import pytest

from spingate.config import SweepConfig
from spingate.decay import DecayComponent, FluorescenceModel, PulseTrain, steady_rate
from spingate.metrics import contrast, sensitivity_cw, snr
from spingate.presets import (
    BULK_C_SAT,
    BULK_REP_RATE,
    FND_C_SAT,
    FND_REP_RATE,
    bulk_model,
    fnd_model,
)
from spingate.sweep import (
    GateSweepReport,
    RepRateSweepReport,
    joint_optimum,
    optimal_gate,
    optimal_point,
    sweep_gate,
    sweep_rep_rate,
)


@pytest.fixture(scope="module")
def bulk_report():
    return sweep_gate(bulk_model(), PulseTrain(BULK_REP_RATE), SweepConfig(c_sat=BULK_C_SAT))


@pytest.fixture(scope="module")
def fnd_report():
    return sweep_gate(fnd_model(), PulseTrain(FND_REP_RATE), SweepConfig(c_sat=FND_C_SAT))


def no_background() -> FluorescenceModel:
    return FluorescenceModel(
        spin0=(DecayComponent(1.0, 12.0),),
        spin1=(DecayComponent(1.0, 8.0),),
    )


class TestBulkSweep:
    def test_interior_unimodal_optimum(self, bulk_report):
        r = bulk_report
        assert 0 < r.optimum < r.tau_c_grid.size - 1
        # unimodal: SNR rises to the optimum and falls after it
        d = np.diff(r.snr)
        assert np.all(d[: r.optimum] > 0)
        assert np.all(d[r.optimum :] < 0)

    def test_frozen_optimum(self, bulk_report):
        assert optimal_gate(bulk_report) == pytest.approx(9.2, abs=1e-9)
        assert bulk_report.ef[bulk_report.optimum] == pytest.approx(
            2.225266410694647, rel=1e-12
        )

    def test_enhancement_in_paper_band(self, bulk_report):
        assert 1.7 <= bulk_report.ef[bulk_report.optimum] <= 2.3

    def test_ungated_contrast(self, bulk_report):
        assert bulk_report.contrast[0] == pytest.approx(0.012155321163206, rel=1e-9)

    def test_gated_contrast_at_optimum(self, bulk_report):
        assert bulk_report.contrast[bulk_report.optimum] == pytest.approx(
            0.077638748725206, rel=1e-9
        )

    def test_ef_at_six_ns_near_two(self, bulk_report):
        r = bulk_report
        j = int(np.argmin(np.abs(r.tau_c_grid - 6.0)))
        assert r.ef[j] == pytest.approx(2.12, abs=0.01)

    def test_ef_baseline_is_exactly_one(self, bulk_report):
        assert bulk_report.ef[0] == 1.0

    def test_contrast_monotone_for_fast_background(self, bulk_report):
        d = np.diff(bulk_report.contrast)
        assert np.all(d >= -1e-15)

    def test_report_consistency_with_direct_metrics(self, bulk_report):
        model = bulk_model()
        train = PulseTrain(BULK_REP_RATE)
        cfg = SweepConfig(c_sat=BULK_C_SAT)
        per_channel = cfg.integration_time * cfg.mw_duty
        for i in (0, 37, bulk_report.optimum, bulk_report.tau_c_grid.size - 1):
            tau = float(bulk_report.tau_c_grid[i])
            n0 = steady_rate(model, "ms0", tau, train) * per_channel
            n1 = steady_rate(model, cfg.c_sat, tau, train) * per_channel
            pair = (n0, n1)
            assert bulk_report.snr[i] == pytest.approx(snr(pair), rel=1e-12)
            assert bulk_report.shot_noise[i] == pytest.approx(
                math.sqrt(n0 + n1), rel=1e-12
            )


class TestFndSweep:
    def test_optimum_beyond_twice_bulk(self, bulk_report, fnd_report):
        assert optimal_gate(fnd_report) > 2.0 * optimal_gate(bulk_report)

    def test_frozen_optimum(self, fnd_report):
        assert optimal_gate(fnd_report) == pytest.approx(24.4, abs=1e-9)
        assert fnd_report.ef[fnd_report.optimum] == pytest.approx(
            3.990070071744083, rel=1e-12
        )

    def test_enhancement_and_speedup_bands(self, fnd_report):
        ef = fnd_report.ef[fnd_report.optimum]
        assert 3.0 <= ef <= 5.0
        assert 9.0 <= ef * ef <= 25.0

    def test_ungated_contrast_targets_specified_value(self, fnd_report):
        assert fnd_report.contrast[0] == pytest.approx(0.012, rel=1e-9)

    def test_ef_at_paper_gate(self, fnd_report):
        j = int(np.argmin(np.abs(fnd_report.tau_c_grid - 16.6)))
        assert fnd_report.ef[j] == pytest.approx(3.6149, abs=0.001)


class TestSweepMechanics:
    def test_background_free_shared_shape_optimum_at_zero(self):
        # when both spin channels decay with one shared shape, gating can
        # only discard signal, so the SNR maximum sits at the grid start
        m = FluorescenceModel(
            spin0=(DecayComponent(2.0, 10.0),),
            spin1=(DecayComponent(1.0, 10.0),),
        )
        r = sweep_gate(m, PulseTrain(20e6), SweepConfig())
        assert np.all(np.diff(r.snr) < 0)
        assert r.optimum == 0
        assert optimal_gate(r) == 0.0

    def test_background_free_lifetime_contrast_has_interior_optimum(self):
        # with distinct spin lifetimes the mixed MW-on channel decays faster,
        # so delaying the gate trades counts for contrast even without any
        # background component; the optimum moves off zero
        r = sweep_gate(no_background(), PulseTrain(20e6), SweepConfig())
        assert r.optimum > 0
        d = np.diff(r.contrast)
        assert np.all(d >= -1e-15)

    def test_zero_contrast_plateau_breaks_to_smallest(self):
        # c_sat = 0 sends both channels through the identical count path, so
        # the SNR plateau is exact zeros and argmax must pick the first entry
        r = sweep_gate(no_background(), PulseTrain(20e6), SweepConfig(c_sat=0.0))
        assert np.all(r.snr == 0.0)
        assert r.optimum == 0
        # enhancement over a zero-SNR baseline is undefined
        assert np.all(np.isnan(r.ef))

    def test_optimum_invariant_under_integration_scaling(self):
        m = bulk_model()
        train = PulseTrain(BULK_REP_RATE)
        a = sweep_gate(m, train, SweepConfig(integration_time=1.0, c_sat=BULK_C_SAT))
        b = sweep_gate(m, train, SweepConfig(integration_time=7.3, c_sat=BULK_C_SAT))
        assert a.optimum == b.optimum

    def test_eta_requires_linewidth(self, bulk_report):
        assert bulk_report.eta is None
        r = sweep_gate(
            bulk_model(),
            PulseTrain(BULK_REP_RATE),
            SweepConfig(c_sat=BULK_C_SAT, linewidth=10e6),
        )
        assert r.eta is not None
        assert np.all(r.eta > 0)

    def test_snr_eta_rank_inversely_for_gate_invariant_contrast(self):
        # shared lifetime across all components makes every channel scale by
        # the same gate factor, so contrast is gate-invariant and the SNR
        # argmax must coincide with the sensitivity argmin
        m = FluorescenceModel(
            spin0=(DecayComponent(2.0, 9.0),),
            spin1=(DecayComponent(1.5, 9.0),),
            background=(DecayComponent(4.0, 9.0),),
        )
        r = sweep_gate(m, PulseTrain(20e6), SweepConfig(linewidth=10e6))
        assert r.optimum == int(np.argmin(r.eta))

    def test_custom_grid_bounds(self):
        cfg = SweepConfig(tau_c_resolution=0.5, tau_c_max=20.0)
        r = sweep_gate(bulk_model(), PulseTrain(BULK_REP_RATE), cfg)
        assert r.tau_c_grid[0] == 0.0
        assert r.tau_c_grid[-1] == pytest.approx(20.0)
        assert np.allclose(np.diff(r.tau_c_grid), 0.5)

    def test_grid_must_stay_inside_period(self):
        with pytest.raises(ValueError):
            sweep_gate(
                bulk_model(),
                PulseTrain(BULK_REP_RATE),
                SweepConfig(tau_c_max=50.0),
            )


def per_onset_sweep(model, train, cfg, grid):
    """Reference sweep: scalar steady_rate and metrics at one onset at a time."""
    per_channel = cfg.integration_time * cfg.mw_duty
    columns = {"contrast": [], "snr": [], "eta": []}
    for tau in grid:
        r0 = steady_rate(model, "ms0", float(tau), train)
        r1 = steady_rate(model, cfg.c_sat, float(tau), train)
        pair = (r0 * per_channel, r1 * per_channel)
        columns["contrast"].append(contrast(pair))
        columns["snr"].append(snr(pair))
        if cfg.linewidth is not None:
            columns["eta"].append(sensitivity_cw(cfg.linewidth, (r0, r1)))
    return {k: np.array(v) for k, v in columns.items()}


class TestVectorizedSweep:
    """The whole-grid sweep against a per-onset loop over the same grid."""

    @pytest.mark.parametrize(
        "irf_sigma, linewidth", [(0.0, None), (0.0, 10e6), (0.3, None), (0.3, 10e6)]
    )
    def test_matches_per_onset_loop(self, irf_sigma, linewidth):
        base = bulk_model()
        model = FluorescenceModel(
            base.spin0, base.spin1, base.background, irf_sigma=irf_sigma
        )
        train = PulseTrain(BULK_REP_RATE)
        cfg = SweepConfig(c_sat=BULK_C_SAT, tau_c_resolution=0.25, linewidth=linewidth)
        report = sweep_gate(model, train, cfg)
        want = per_onset_sweep(model, train, cfg, report.tau_c_grid)
        np.testing.assert_allclose(report.snr, want["snr"], rtol=1e-12, atol=0)
        np.testing.assert_allclose(report.contrast, want["contrast"], rtol=1e-12, atol=0)
        if linewidth is None:
            assert report.eta is None
        else:
            np.testing.assert_allclose(report.eta, want["eta"], rtol=1e-12, atol=0)
        assert report.optimum == int(np.argmax(want["snr"]))

    def test_flat_plateau_breaks_to_smallest_onset(self):
        # Without an IRF or dark counts every onset up to the pulse at 5 ns
        # gates nothing away, so the SNR is exactly flat there; with one
        # shared lifetime it only falls afterwards. The maximum is the whole
        # plateau and the optimum must be its first onset.
        m = FluorescenceModel(
            spin0=(DecayComponent(2.0, 10.0),),
            spin1=(DecayComponent(1.0, 10.0),),
            pulse_time=5.0,
        )
        train = PulseTrain(20e6)
        cfg = SweepConfig(linewidth=10e6)
        report = sweep_gate(m, train, cfg)
        plateau = report.tau_c_grid <= 5.0
        assert np.all(report.snr[plateau] == report.snr[0])
        assert np.all(report.snr[~plateau] < report.snr[0])
        want = per_onset_sweep(m, train, cfg, report.tau_c_grid)
        assert report.optimum == int(np.argmax(want["snr"])) == 0
        np.testing.assert_allclose(report.snr, want["snr"], rtol=1e-12, atol=0)


class TestRepRateSweep:
    def test_sqrt_rate_scaling_at_low_rates(self):
        # constant pulse energy, period >> lifetime: per-pulse counts fixed,
        # SNR grows with the square root of the pulse count
        m = bulk_model()
        cfg = SweepConfig(
            c_sat=BULK_C_SAT,
            rate_grid=(1e6, 2e6, 4e6),
            power_mode="constant-pulse-energy",
        )
        r = sweep_rep_rate(m, cfg)
        assert r.snr_gated[1] / r.snr_gated[0] == pytest.approx(math.sqrt(2.0), rel=1e-2)
        assert r.snr_gated[2] / r.snr_gated[1] == pytest.approx(math.sqrt(2.0), rel=1e-2)

    def test_reference_rate_identical_across_modes(self):
        m = bulk_model()
        common = dict(c_sat=BULK_C_SAT, rate_grid=(40e6,), reference_rate=40e6)
        a = sweep_rep_rate(m, SweepConfig(power_mode="constant-pulse-energy", **common))
        b = sweep_rep_rate(m, SweepConfig(power_mode="constant-mean-power", **common))
        assert a.snr_gated[0] == pytest.approx(b.snr_gated[0], rel=1e-14)
        assert a.snr_ungated[0] == pytest.approx(b.snr_ungated[0], rel=1e-14)

    def test_per_rate_gate_below_period(self):
        m = bulk_model()
        cfg = SweepConfig(c_sat=BULK_C_SAT, rate_grid=(10e6, 20e6, 40e6))
        r = sweep_rep_rate(m, cfg)
        for rate, tau in zip(r.rate_grid, r.tau_c_opt):
            assert tau < 1e9 / rate

    def test_mode_recorded(self):
        m = bulk_model()
        r = sweep_rep_rate(m, SweepConfig(c_sat=BULK_C_SAT, rate_grid=(20e6,)))
        assert r.mode == "constant-pulse-energy"

    def test_mean_power_mode_scales_amplitudes(self):
        # halving the rate doubles per-pulse amplitude: per-pulse counts
        # double, pulse count halves, so total counts stay put while
        # truncation losses shrink
        m = no_background()
        cfg = SweepConfig(
            rate_grid=(20e6, 40e6),
            power_mode="constant-mean-power",
            reference_rate=40e6,
        )
        r = sweep_rep_rate(m, cfg)
        n_slow = steady_rate(m.scaled(2.0), "ms0", 0.0, PulseTrain(20e6))
        n_fast = steady_rate(m, "ms0", 0.0, PulseTrain(40e6))
        assert r.snr_ungated[0] / r.snr_ungated[1] == pytest.approx(
            math.sqrt(n_slow / n_fast) * (n_slow / n_fast) ** 0 * 1.0, rel=0.2
        )
        assert n_slow > n_fast


class TestJointOptimum:
    def test_single_point_grids(self):
        m = bulk_model()
        cfg = SweepConfig(
            c_sat=BULK_C_SAT,
            rate_grid=(20e6,),
            tau_c_resolution=0.1,
        )
        tau, rate = joint_optimum(m, cfg)
        assert rate == 20e6
        r = sweep_gate(m, PulseTrain(20e6), SweepConfig(c_sat=BULK_C_SAT))
        assert tau == pytest.approx(optimal_gate(r), abs=1e-12)

    def test_shared_shape_pairs_zero_gate_with_max_yield_rate(self):
        m = FluorescenceModel(
            spin0=(DecayComponent(2.0, 10.0),),
            spin1=(DecayComponent(1.0, 10.0),),
        )
        cfg = SweepConfig(rate_grid=(5e6, 10e6, 20e6), power_mode="constant-pulse-energy")
        tau, rate = joint_optimum(m, cfg)
        assert tau == 0.0
        assert rate == 20e6


    def test_ties_go_to_the_smallest_rate_in_any_grid_order(self):
        report = RepRateSweepReport(
            rate_grid=np.array([40e6, 10e6, 20e6, 10e6]),
            mode="constant-pulse-energy",
            snr_ungated=np.array([1.0, 1.0, 1.0, 1.0]),
            snr_gated=np.array([2.0, 2.0, 1.5, 2.0]),
            eta_ungated=None,
            eta_gated=None,
            tau_c_opt=np.array([3.0, 7.0, 5.0, 9.0]),
        )
        assert optimal_point(report) == (7.0, 10e6)

    def test_wrapper_matches_the_report(self):
        cfg = SweepConfig(
            c_sat=BULK_C_SAT,
            rate_grid=(40e6, 10e6, 25e6, 20e6),
            power_mode="constant-mean-power",
        )
        got = joint_optimum(bulk_model(), cfg)
        assert got == optimal_point(sweep_rep_rate(bulk_model(), cfg))
        # ascending-rate search over separate sweeps, as a loop
        best, best_snr = None, -np.inf
        for rate in sorted(cfg.rate_grid):
            model = bulk_model().scaled(cfg.reference_rate / rate)
            r = sweep_gate(model, PulseTrain(rate), cfg)
            if r.snr[r.optimum] > best_snr:
                best, best_snr = (optimal_gate(r), rate), r.snr[r.optimum]
        assert got == best


class TestReportValidation:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GateSweepReport(
                tau_c_grid=np.array([0.0, 1.0]),
                contrast=np.array([0.1]),
                shot_noise=np.array([1.0, 1.0]),
                snr=np.array([1.0, 2.0]),
                ef=np.array([1.0, 1.1]),
                eta=None,
                optimum=1,
            )

    def test_optimum_must_attain_max(self):
        with pytest.raises(ValueError):
            GateSweepReport(
                tau_c_grid=np.array([0.0, 1.0]),
                contrast=np.array([0.1, 0.2]),
                shot_noise=np.array([1.0, 1.0]),
                snr=np.array([2.0, 1.0]),
                ef=np.array([1.0, 1.1]),
                eta=None,
                optimum=1,
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(mw_duty=0.0)
        with pytest.raises(ValueError):
            SweepConfig(tau_c_resolution=0.0)
        with pytest.raises(ValueError):
            SweepConfig(power_mode="free-running")

    @pytest.mark.parametrize(
        "field",
        ["integration_time", "tau_c_resolution", "tau_c_max", "linewidth", "reference_rate"],
    )
    def test_config_numbers_must_be_finite(self, field):
        # integration_time = inf once failed late, in the sweep, with a
        # RuntimeWarning; the others constructed
        with pytest.raises(ValueError, match=f"^{field} must be finite, got inf$"):
            SweepConfig(**{field: math.inf})

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rate_grid_entries_must_be_finite(self, value):
        with pytest.raises(ValueError, match="rate_grid entries must be finite"):
            SweepConfig(rate_grid=(2e7, value))

    def test_reports_copy_the_callers_arrays(self):
        # a report once froze the array it was given and shared its memory
        names = ("tau_c_grid", "contrast", "shot_noise", "ef", "eta")
        cols = {name: np.array([0.0, 1.0]) for name in names}
        cols["snr"] = np.array([1.0, 2.0])
        gate = GateSweepReport(**cols, optimum=1)
        names = ("rate_grid", "snr_ungated", "snr_gated", "eta_ungated", "eta_gated")
        per_rate = {name: np.array([1e7, 2e7]) for name in names}
        per_rate["tau_c_opt"] = np.array([3.0, 4.0])
        rep = RepRateSweepReport(mode="constant-pulse-energy", **per_rate)
        for report, given in ((gate, cols), (rep, per_rate)):
            for name, array in given.items():
                assert array.flags.writeable, name
                assert not np.shares_memory(getattr(report, name), array), name
                assert not getattr(report, name).flags.writeable, name
