"""Time-gated photon counting for spin-dependent fluorescence readout.

Models multi-exponential TCSPC decays with background and detector effects,
computes gated count/contrast/SNR figures of merit, optimizes the gate window
and pulse repetition rate, and validates the analytic shot-noise predictions
against event-level Monte-Carlo sampling.
"""

from .acquisition import (
    EventStream,
    McSnrResult,
    hw_gate,
    mc_snr_distribution,
    offline_gate,
    sample_histogram,
    simulate_events,
)
from .decay import (
    DecayComponent,
    FluorescenceModel,
    GatedCounts,
    GateWindow,
    PulseTrain,
    folded_model,
    gated_counts,
    gated_counts_exponential,
    histogram_expectation,
    spin_weight,
    steady_rate,
)
from .errors import (
    ConfigError,
    FitError,
    GateError,
    MetricError,
    NonConvergenceError,
    ParseError,
    SpingateError,
)
from .histogram import TcspcHistogram
from .mapping import ScanMap, SnrMap, catmull_rom_upsample, snr_map
from .metrics import (
    CountPair,
    PhysicalConstants,
    RatePair,
    contrast,
    ef_empirical,
    ef_theoretical,
    sensitivity_cw,
    snr,
    speedup,
)
from .odmr import (
    DoubletTruth,
    LorentzianDoublet,
    OdmrSpectrum,
    fit_double_lorentzian,
    gate_measured_odmr,
    sensitivity_from_fit,
    synth_odmr,
)
from .presets import bulk_model, fnd_model
from .quadrature import adaptive_simpson
from .report import ColumnarReport, read_histogram, read_report, write_histogram, write_report
from .sweep import (
    GateSweepReport,
    RepRateSweepReport,
    SweepConfig,
    joint_optimum,
    optimal_gate,
    optimal_point,
    sweep_gate,
    sweep_rep_rate,
)

__version__ = "0.1.0"

__all__ = [
    "ColumnarReport",
    "ConfigError",
    "CountPair",
    "DecayComponent",
    "DoubletTruth",
    "EventStream",
    "FitError",
    "FluorescenceModel",
    "GateError",
    "GateSweepReport",
    "GateWindow",
    "GatedCounts",
    "LorentzianDoublet",
    "McSnrResult",
    "MetricError",
    "NonConvergenceError",
    "OdmrSpectrum",
    "ParseError",
    "PhysicalConstants",
    "PulseTrain",
    "RatePair",
    "RepRateSweepReport",
    "ScanMap",
    "SnrMap",
    "SpingateError",
    "SweepConfig",
    "TcspcHistogram",
    "adaptive_simpson",
    "bulk_model",
    "catmull_rom_upsample",
    "contrast",
    "ef_empirical",
    "ef_theoretical",
    "fit_double_lorentzian",
    "fnd_model",
    "folded_model",
    "gate_measured_odmr",
    "gated_counts",
    "gated_counts_exponential",
    "histogram_expectation",
    "hw_gate",
    "joint_optimum",
    "mc_snr_distribution",
    "offline_gate",
    "optimal_gate",
    "optimal_point",
    "read_histogram",
    "read_report",
    "sample_histogram",
    "sensitivity_cw",
    "sensitivity_from_fit",
    "simulate_events",
    "snr",
    "snr_map",
    "speedup",
    "spin_weight",
    "steady_rate",
    "sweep_gate",
    "sweep_rep_rate",
    "synth_odmr",
    "write_histogram",
    "write_report",
]
