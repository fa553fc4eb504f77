"""Time-gated photon counting for spin-dependent fluorescence readout.

Models multi-exponential TCSPC decays with background and detector effects,
computes gated count/contrast/SNR figures of merit, optimizes the gate window
and pulse repetition rate, and validates the analytic shot-noise predictions
against event-level Monte-Carlo sampling.

Importing the package runs none of its submodules. Each one is registered
lazily (``find_spec``, ``importlib.util.LazyLoader``, ``module_from_spec``):
it is put into ``sys.modules`` and onto the package at once, and compiled and
executed on the first access to one of its attributes. So a command loads
only the modules it runs. ``spingate.cli`` is left to the normal import
system, so that ``python -m spingate.cli`` finds it unloaded. The names in
``__all__`` resolve through the module-level ``__getattr__`` (PEP 562) from
the one table below. LazyLoader is not thread-safe before Python 3.12, so
the package assumes that one thread triggers the loads.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Every submodule but cli, with the names the package re-exports from it.
_EXPORTS = {
    "acquisition": "EventStream McSnrResult hw_gate mc_snr_distribution offline_gate "
    "sample_histogram simulate_events",
    "config": "",
    "decay": "DecayComponent FluorescenceModel GatedCounts GateWindow PulseTrain folded_model "
    "gated_counts gated_counts_exponential histogram_expectation spin_weight steady_rate",
    "errors": "ConfigError FitError GateError MetricError NonConvergenceError ParseError "
    "SpingateError",
    "histogram": "TcspcHistogram",
    "mapping": "ScanMap SnrMap catmull_rom_upsample snr_map",
    "metrics": "CountPair PhysicalConstants RatePair contrast ef_empirical ef_theoretical "
    "sensitivity_cw snr speedup",
    "odmr": "DoubletTruth LorentzianDoublet OdmrSpectrum fit_double_lorentzian "
    "gate_measured_odmr sensitivity_from_fit synth_odmr",
    "presets": "bulk_model fnd_model",
    "quadrature": "adaptive_simpson",
    "reader": "",
    "record": "",
    "report": "ColumnarReport read_histogram read_report write_histogram write_report",
    "sweep": "GateSweepReport RepRateSweepReport SweepConfig joint_optimum optimal_gate "
    "optimal_point sweep_gate sweep_rep_rate",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)

for _name in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
