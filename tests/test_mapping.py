"""Scan SNR maps and Catmull-Rom upsampling.

The interpolation oracle below uses the classic cubic-polynomial form of the
Catmull-Rom segment, written independently of the production weight-stack
code, with the same edge clamping.
"""

import math

import numpy as np
import pytest

from spingate.decay import PulseTrain, gated_counts
from spingate.gating import GateWindow
from spingate.mapping import ScanMap, SnrMap, catmull_rom_upsample, snr_map
from spingate.metrics import snr
from spingate.presets import FND_C_SAT, FND_REP_RATE, fnd_model


def ref_catmull_rom_1d(values: np.ndarray, x: float) -> float:
    i = math.floor(x)
    s = x - i
    n = len(values)
    p0, p1, p2, p3 = (values[min(max(i + k, 0), n - 1)] for k in (-1, 0, 1, 2))
    return 0.5 * (
        2.0 * p1
        + (-p0 + p2) * s
        + (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) * s * s
        + (-p0 + 3.0 * p1 - 3.0 * p2 + p3) * s * s * s
    )


def ref_upsample_2d(arr: np.ndarray, factor: int) -> np.ndarray:
    ny, nx = arr.shape
    step = np.empty((ny, nx * factor))
    for j in range(ny):
        for i in range(nx * factor):
            step[j, i] = ref_catmull_rom_1d(arr[j], i / factor)
    out = np.empty((ny * factor, nx * factor))
    for i in range(nx * factor):
        for j in range(ny * factor):
            out[j, i] = ref_catmull_rom_1d(step[:, i], j / factor)
    return out


class TestCatmullRom:
    def test_constant_is_bit_exact(self):
        arr = np.full((4, 5), 7.25)
        out = catmull_rom_upsample(arr, 4)
        assert out.shape == (16, 20)
        assert np.all(out == 7.25)

    def test_nodes_are_bit_exact(self):
        rng = np.random.default_rng(3)
        arr = rng.uniform(-5, 5, (6, 7))
        out = catmull_rom_upsample(arr, 3)
        assert np.array_equal(out[::3, ::3], arr)

    def test_matches_polynomial_reference(self):
        rng = np.random.default_rng(11)
        arr = rng.uniform(0, 100, (5, 7))
        got = catmull_rom_upsample(arr, 3)
        want = ref_upsample_2d(arr, 3)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_reproduces_linear_data_in_interior(self):
        x = np.arange(8.0)
        y = np.arange(6.0)
        arr = 2.0 + 3.0 * x[None, :] + 0.5 * y[:, None]
        f = 4
        out = catmull_rom_upsample(arr, f)
        jj = np.arange(f, (6 - 2) * f + 1)
        ii = np.arange(f, (8 - 2) * f + 1)
        want = 2.0 + 3.0 * (ii[None, :] / f) + 0.5 * (jj[:, None] / f)
        assert np.allclose(out[np.ix_(jj, ii)], want, rtol=1e-12, atol=1e-12)

    def test_factor_one_is_a_copy(self):
        arr = np.arange(12.0).reshape(3, 4)
        out = catmull_rom_upsample(arr, 1)
        assert np.array_equal(out, arr)
        assert out is not arr

    @pytest.mark.parametrize("factor", [0, -2, 2.5])
    def test_bad_factor(self, factor):
        with pytest.raises(ValueError, match="positive integer"):
            catmull_rom_upsample(np.ones((3, 3)), factor)

    def test_requires_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            catmull_rom_upsample(np.ones(5), 2)


def make_scan(off_g, on_g, off_u, on_u, pitch=0.5, dwell=0.01):
    return ScanMap(
        pitch=pitch,
        dwell=dwell,
        mw_off_gated=off_g,
        mw_on_gated=on_g,
        mw_off_ungated=off_u,
        mw_on_ungated=on_u,
    )


class TestSnrMap:
    def test_equal_channels_give_zero_everywhere(self):
        plane = np.full((3, 4), 200.0)
        m = snr_map(make_scan(plane, plane, plane, plane), "gated", 4)
        assert np.all(m.values == 0.0)
        assert not m.zero_flags.any()

    def test_shape_and_flags_resolution(self):
        plane = np.full((3, 4), 50.0)
        m = snr_map(make_scan(plane, plane, plane, plane), "ungated", 5)
        assert m.values.shape == (15, 20)
        assert m.zero_flags.shape == (3, 4)
        assert m.factor == 5

    def test_zero_total_pixel_flagged_not_nan(self):
        off = np.array([[100.0, 0.0], [64.0, 25.0]])
        on = np.array([[80.0, 0.0], [36.0, 16.0]])
        m = snr_map(make_scan(off, on, off, on), "gated", 1)
        assert m.zero_flags[0, 1]
        assert m.zero_flags.sum() == 1
        assert m.values[0, 1] == 0.0
        assert np.all(np.isfinite(m.values))

    def test_factor_one_matches_direct_formula(self):
        rng = np.random.default_rng(7)
        off = rng.poisson(400, (4, 4)).astype(float)
        on = rng.poisson(300, (4, 4)).astype(float)
        m = snr_map(make_scan(off, on, off * 2, on * 2), "gated", 1)
        want = (off - on) / np.sqrt(off + on)
        assert np.allclose(m.values, want, rtol=1e-15)
        for j in range(4):
            for i in range(4):
                assert m.values[j, i] == pytest.approx(
                    snr((off[j, i], on[j, i])), rel=1e-12
                )

    def test_channel_kind_validation(self):
        plane = np.ones((2, 2))
        scan = make_scan(plane, plane, plane, plane)
        with pytest.raises(ValueError, match="unknown channel kind"):
            snr_map(scan, "raw", 2)

    def test_scan_validation(self):
        good = np.ones((2, 3))
        with pytest.raises(ValueError, match="disagree in shape"):
            make_scan(good, good, good, np.ones((3, 2)))
        with pytest.raises(ValueError, match="non-negative"):
            make_scan(good, -good, good, good)
        with pytest.raises(ValueError, match="pitch"):
            make_scan(good, good, good, good, pitch=0.0)
        with pytest.raises(ValueError, match="dwell"):
            make_scan(good, good, good, good, dwell=-1.0)
        with pytest.raises(ValueError, match="2-D"):
            make_scan(np.ones(3), np.ones(3), np.ones(3), np.ones(3))

    def test_snr_map_type_validation(self):
        with pytest.raises(ValueError, match="factor"):
            SnrMap(values=np.zeros((2, 2)), factor=0, zero_flags=np.zeros((2, 2), bool))
        with pytest.raises(ValueError, match="times factor"):
            SnrMap(values=np.zeros((3, 2)), factor=2, zero_flags=np.zeros((2, 2), bool))
        with pytest.raises(ValueError, match="finite"):
            SnrMap(
                values=np.full((2, 2), np.nan), factor=1, zero_flags=np.zeros((2, 2), bool)
            )


class TestEmitterBlob:
    """A dim emitter visible through the gate but buried without it."""

    def test_gated_map_reveals_what_ungated_hides(self):
        model = fnd_model()
        train = PulseTrain(FND_REP_RATE)
        period = train.period
        gate = GateWindow(24.4, period)
        full = GateWindow(0.0, period)

        per_pulse = {
            "off_g": gated_counts(model, "ms0", gate).total,
            "on_g": gated_counts(model, FND_C_SAT, gate).total,
            "off_u": gated_counts(model, "ms0", full).total,
            "on_u": gated_counts(model, FND_C_SAT, full).total,
        }
        # dwell chosen so the ungated pixel SNR sits at 0.9; the gate's
        # enhancement factor (about 4 here) lifts the gated SNR past 3
        snr1_u = (per_pulse["off_u"] - per_pulse["on_u"]) / math.sqrt(
            per_pulse["off_u"] + per_pulse["on_u"]
        )
        pulses = (0.9 / snr1_u) ** 2
        dwell = pulses / train.rep_rate

        bg_g = gated_counts(model, "ms0", gate).background * pulses
        bg_u = gated_counts(model, "ms0", full).background * pulses
        ny, nx = 5, 6
        blob = (2, 3)
        planes = {}
        for key, bg in (("off_g", bg_g), ("on_g", bg_g), ("off_u", bg_u), ("on_u", bg_u)):
            plane = np.full((ny, nx), bg)
            plane[blob] = per_pulse[key] * pulses
            planes[key] = plane
        scan = make_scan(
            planes["off_g"], planes["on_g"], planes["off_u"], planes["on_u"], dwell=dwell
        )

        gated = snr_map(scan, "gated", 4)
        ungated = snr_map(scan, "ungated", 4)
        node = (blob[0] * 4, blob[1] * 4)
        assert ungated.values[node] < 1.0
        assert gated.values[node] > 3.0
        # background pixels carry identical off/on counts, so they sit at 0
        off_blob = np.ones((ny, nx), bool)
        off_blob[blob] = False
        assert np.all(gated.values[::4, ::4][off_blob] == 0.0)
        assert gated.values[node] / max(ungated.values[node], 1e-300) > 3.0