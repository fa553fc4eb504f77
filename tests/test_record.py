"""Frozen records: every record class keeps the frozen-dataclass interface."""

import inspect

import numpy as np
import pytest

from spingate.acquisition import EventStream, McSnrResult
from spingate.config import RunConfig
from spingate.config import SweepConfig
from spingate.decay import DecayComponent, FluorescenceModel, GatedCounts, PulseTrain
from spingate.histogram import TcspcHistogram
from spingate.mapping import ScanMap, SnrMap
from spingate.odmr import DoubletTruth, LorentzianDoublet, OdmrSpectrum
from spingate.record import (
    POISSON_MEAN_MAX,
    FrozenRecordError,
    Record,
    replace,
    require_finite_means,
    require_poisson_means,
)
from spingate.report import ColumnarReport
from spingate.gating import GateWindow
from spingate.sweep import GateSweepReport, RepRateSweepReport

MODEL = FluorescenceModel((DecayComponent(1.0, 12.0),), (DecayComponent(1.0, 8.0),))
MODEL_REPR = (
    "FluorescenceModel(spin0=(DecayComponent(amplitude=1.0, lifetime=12.0, label=''),), "
    "spin1=(DecayComponent(amplitude=1.0, lifetime=8.0, label=''),), background=(), "
    "dark_rate=0.0, irf_sigma=0.0, pulse_time=0.0)"
)
SWEEP_DEFAULTS = (
    "integration_time=1.0, mw_duty=0.5, tau_c_resolution=0.1, tau_c_max=None, "
    "rate_grid=None, linewidth=None, c_sat=0.15, power_mode='constant-pulse-energy', "
    "reference_rate=40000000.0"
)

# (class, required arguments, a valid change, a change __post_init__ rejects
# or None, the repr a frozen dataclass gave, the signature). Array fields hold
# one element, so that == on the field tuples has a truth value.
CASES = [
    (
        DecayComponent, (1.0, 12.0), {"label": "ms0"}, {"lifetime": 0.0},
        "DecayComponent(amplitude=1.0, lifetime=12.0, label='')",
        "(amplitude, lifetime, label='')",
    ),
    (
        GateWindow, (9.2,), {"t_end": 50.0}, {"t_end": 1.0},
        "GateWindow(t_start=9.2, t_end=inf)",
        "(t_start, t_end=inf)",
    ),
    (
        PulseTrain, (20e6,), {"rep_rate": 40e6}, {"rep_rate": 0.0},
        "PulseTrain(rep_rate=20000000.0)",
        "(rep_rate)",
    ),
    (
        FluorescenceModel, (MODEL.spin0, MODEL.spin1), {"dark_rate": 0.5}, {"irf_sigma": -1.0},
        MODEL_REPR,
        "(spin0, spin1, background=(), dark_rate=0.0, irf_sigma=0.0, pulse_time=0.0)",
    ),
    (
        GatedCounts, (2.0, 1.0, 0.5), {"dark": 0.0}, None,
        "GatedCounts(signal=2.0, background=1.0, dark=0.5)",
        "(signal, background, dark)",
    ),
    (
        TcspcHistogram, (50.0, np.array([3]), "mw_off", 1.0, 20e6),
        {"channel": "mw_on"}, {"channel": "x"},
        "TcspcHistogram(bin_width=50.0, counts=array([3]), channel='mw_off', "
        "channel_time=1.0, rep_rate=20000000.0)",
        "(bin_width, counts, channel, channel_time, rep_rate)",
    ),
    (
        ScanMap, (0.5, 1e-3, [[4.0]], [[3.0]], [[2.0]], [[1.0]]), {"pitch": 1.0}, {"dwell": 0.0},
        "ScanMap(pitch=0.5, dwell=0.001, mw_off_gated=array([[4.]]), mw_on_gated=array([[3.]]), "
        "mw_off_ungated=array([[2.]]), mw_on_ungated=array([[1.]]))",
        "(pitch, dwell, mw_off_gated, mw_on_gated, mw_off_ungated, mw_on_ungated)",
    ),
    (
        SnrMap, ([[1.5]], 1, [[False]]), {"values": [[2.5]]}, {"factor": 0},
        "SnrMap(values=array([[1.5]]), factor=1, zero_flags=array([[False]]))",
        "(values, factor, zero_flags)",
    ),
    (
        SweepConfig, (), {"c_sat": 0.2}, {"mw_duty": 1.0},
        f"SweepConfig({SWEEP_DEFAULTS})",
        f"({SWEEP_DEFAULTS})",
    ),
    (
        GateSweepReport, ([0.0], [0.1], [10.0], [1.0], [1.0], None, 0),
        {"eta": [1e-6]}, {"optimum": 1},
        "GateSweepReport(tau_c_grid=array([0.]), contrast=array([0.1]), "
        "shot_noise=array([10.]), snr=array([1.]), ef=array([1.]), eta=None, optimum=0)",
        "(tau_c_grid, contrast, shot_noise, snr, ef, eta, optimum)",
    ),
    (
        RepRateSweepReport, ([20e6], "constant-pulse-energy", [10.0], [20.0], None, None, [9.2]),
        {"snr_gated": [25.0]}, {"mode": "x"},
        "RepRateSweepReport(rate_grid=array([20000000.]), mode='constant-pulse-energy', "
        "snr_ungated=array([10.]), snr_gated=array([20.]), eta_ungated=None, eta_gated=None, "
        "tau_c_opt=array([9.2]))",
        "(rate_grid, mode, snr_ungated, snr_gated, eta_ungated, eta_gated, tau_c_opt)",
    ),
    (
        OdmrSpectrum, ([2.87e9], [1000.0], 1e-3),
        {"gate": GateWindow(9.2)}, {"integration_per_point": 0.0},
        "OdmrSpectrum(freqs=array([2.87e+09]), counts=array([1000.]), "
        "integration_per_point=0.001, gate=None)",
        "(freqs, counts, integration_per_point, gate=None)",
    ),
    (
        DoubletTruth, (2.865e9, 8e6, 0.15, 2.875e9, 8e6, 0.15), {"depth2": 0.1}, {"depth1": 2.0},
        "DoubletTruth(center1=2865000000.0, fwhm1=8000000.0, depth1=0.15, "
        "center2=2875000000.0, fwhm2=8000000.0, depth2=0.15)",
        "(center1, fwhm1, depth1, center2, fwhm2, depth2)",
    ),
    (
        LorentzianDoublet, (1000.0, 2.865e9, 8e6, 0.02, 2.875e9, 8e6, 0.02),
        {"baseline": 900.0}, {"baseline": 0.0},
        "LorentzianDoublet(baseline=1000.0, center1=2865000000.0, fwhm1=8000000.0, "
        "depth1=0.02, center2=2875000000.0, fwhm2=8000000.0, depth2=0.02)",
        "(baseline, center1, fwhm1, depth1, center2, fwhm2, depth2)",
    ),
    (
        EventStream, ([5.0], [1]), {"n_outside": 3}, {"n_outside": -1},
        "EventStream(timestamps=array([5.]), channels=array([1], dtype=uint8), n_outside=0)",
        "(timestamps, channels, n_outside=0)",
    ),
    (
        McSnrResult, (1.0, 0.5, [1.0], 1.1), {"analytic": 1.2}, None,
        "McSnrResult(mean=1.0, std=0.5, samples=array([1.]), analytic=1.1)",
        "(mean, std, samples, analytic)",
    ),
    (
        RunConfig, (MODEL, PulseTrain(20e6), SweepConfig()), {"train": PulseTrain(40e6)}, None,
        f"RunConfig(model={MODEL_REPR}, train=PulseTrain(rep_rate=20000000.0), "
        f"sweep=SweepConfig({SWEEP_DEFAULTS}))",
        "(model, train, sweep)",
    ),
    (
        ColumnarReport, ({"k": "v"}, {"a": [1]}), {"metadata": {"k": "w"}},
        {"metadata": {"a=b": "c"}},
        "ColumnarReport(metadata={'k': 'v'}, data={'a': array([1])}, labels={})",
        "(metadata, data, labels={})",
    ),
]


def test_cases_cover_every_record_class():
    assert {case[0] for case in CASES} == set(Record.__subclasses__())


@pytest.mark.parametrize(
    "cls, args, change, invalid, text, signature", CASES, ids=[case[0].__name__ for case in CASES]
)
class TestRecord:
    def test_signature_lists_fields_and_defaults(self, cls, args, change, invalid, text, signature):
        assert str(inspect.signature(cls)) == signature

    def test_construction(self, cls, args, change, invalid, text, signature):
        # required fields by position or keyword, the rest from defaults;
        # every field by position or keyword
        names = list(inspect.signature(cls).parameters)
        record = cls(*args)
        values = {name: getattr(record, name) for name in names}
        for built in (record, cls(**dict(zip(names, args))), cls(*values.values()), cls(**values)):
            assert repr(built) == text
        if args:
            with pytest.raises(TypeError, match="missing"):
                cls(*args[:-1])
        with pytest.raises(TypeError, match="unexpected"):
            cls(*args, bogus=1)
        with pytest.raises(TypeError, match="multiple values"):
            cls(*(args or (1.0,)), **{names[0]: 1.0})
        with pytest.raises(TypeError, match="takes"):
            cls(*values.values(), 1.0)

    def test_frozen(self, cls, args, change, invalid, text, signature):
        record = cls(*args)
        name = next(iter(inspect.signature(cls).parameters))
        for attempt in (
            lambda: setattr(record, name, 1.0),
            lambda: setattr(record, "extra", 1.0),
            lambda: delattr(record, name),
        ):
            with pytest.raises(FrozenRecordError):
                attempt()
        assert issubclass(FrozenRecordError, AttributeError)
        assert repr(record) == text

    def test_equality_and_hash(self, cls, args, change, invalid, text, signature):
        record, same = cls(*args), cls(*args)
        assert record == same and not record != same
        assert record != replace(record, **change)
        fields = tuple(getattr(record, name) for name in inspect.signature(cls).parameters)
        assert record.__eq__(fields) is NotImplemented
        try:
            expected = hash(fields)
        except TypeError:  # an array or dict field, as with a frozen dataclass
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(same) == expected

    def test_replace_runs_validation(self, cls, args, change, invalid, text, signature):
        record = cls(*args)
        assert repr(replace(record)) == text
        changed = replace(record, **change)
        assert type(changed) is cls
        assert repr(changed) != text and repr(record) == text
        with pytest.raises(TypeError):
            replace(record, bogus=1)
        if invalid is not None:
            with pytest.raises(ValueError):
                replace(record, **invalid)


def test_poisson_limit_is_numpys():
    # numpy draws from a mean of POISSON_MEAN_MAX and refuses the next double
    # with a message that names neither; require_poisson_means names both
    rng = np.random.default_rng(1)
    rng.poisson(POISSON_MEAN_MAX)
    above = np.nextafter(POISSON_MEAN_MAX, np.inf)
    with pytest.raises(ValueError, match="^lam value too large$"):
        rng.poisson(above)
    require_poisson_means(np.array([0.0, POISSON_MEAN_MAX]), "counts")
    require_poisson_means(np.array([]), "counts")
    with pytest.raises(ValueError, match=r"^counts reach 2e\+19, above numpy's Poisson limit of"):
        require_poisson_means([1.0, 2e19], "counts")


def test_finite_means_name_the_overflow():
    # the same message shape as the Poisson limit's, at float64's largest value
    require_finite_means(np.array([0.0, np.finfo(float).max]), "counts")
    with pytest.raises(ValueError) as err:
        require_finite_means([1.0, np.inf], "counts")
    assert str(err.value) == "counts reach inf, above float64's limit of 1.79769e+308"
    # a nan mean is not above a limit: the message says it is nan
    for require in (require_finite_means, require_poisson_means):
        with pytest.raises(ValueError) as err:
            require([1.0, np.nan, np.inf], "counts")
        assert str(err.value) == "counts include nan"
