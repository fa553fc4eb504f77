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
system, so that ``python -m spingate.cli`` finds it unloaded. The eight
names in ``__all__``, those of the README's Library example, resolve through
the module-level ``__getattr__`` (PEP 562) from the table below; every other
name is imported from its submodule. LazyLoader is not thread-safe before
Python 3.12, so the package assumes that one thread triggers the loads.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Every submodule but cli.
_SUBMODULES = (
    "acquisition config decay errors gating histogram mapping metrics odmr presets quadrature "
    "reader record report sweep"
).split()
# The names the package re-exports, by module.
_EXPORTS = {
    "config": "SweepConfig",
    "decay": "DecayComponent FluorescenceModel PulseTrain",
    "gating": "GateWindow",
    "presets": "bulk_model",
    "sweep": "optimal_gate sweep_gate",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)

for _name in _SUBMODULES:
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
