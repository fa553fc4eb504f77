"""Command-line surface.

Subcommands: simulate, gate-sweep, rep-sweep, joint-opt, mc, odmr-synth,
odmr-fit, gate-apply, hw-sim, snr-map. Every command accepts --config,
--seed and --out; --seed overrides the [io] seed, --out overrides [io] out.

Exit codes: 0 success, 2 validation/config/parse error, 3 numeric failure
(fit non-convergence and similar). Identical config and seed give
byte-identical output files.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .acquisition import (
    HwGateConfig,
    hw_gate,
    mc_snr_distribution,
    offline_gate,
    sample_histogram,
    simulate_events,
)
from .config import RunConfig, load_config
from .decay import GateWindow, histogram_expectation, steady_rate
from .errors import ConfigError, FitError, ParseError, SpingateError
from .histogram import CHANNELS
from .mapping import ScanMap, snr_map
from .metrics import CountPair, snr
from .odmr import DoubletTruth, fit_double_lorentzian, gate_measured_odmr, synth_odmr
from .report import (
    ColumnarReport,
    read_histogram,
    read_report,
    write_histogram,
    write_report,
)
from .sweep import optimal_gate, optimal_point, sweep_gate, sweep_rep_rate

_FLOAT_FMT = ".17g"


def _fmt(value: float) -> str:
    return format(float(value), _FLOAT_FMT)


def _base_metadata(command: str, seed) -> dict:
    return {
        "tool": "spingate",
        "version": __version__,
        "command": command,
        "seed": "none" if seed is None else str(seed),
    }


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except (ConfigError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FitError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spingate",
        description="Time-gated photon counting toolkit for spin-dependent fluorescence readout.",
    )
    parser.add_argument("--version", action="version", version=f"spingate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="INI run configuration")
        p.add_argument("--seed", type=int, help="master seed, overrides [io] seed")
        p.add_argument("--out", help="output path, overrides [io] out")
        p.set_defaults(handler=handler)
        return p

    p = add("simulate", _cmd_simulate, "expected or sampled TCSPC histogram")
    p.add_argument("--channel", choices=CHANNELS, default="mw_off")
    p.add_argument("--bin-width", type=float, default=0.1, help="ns")
    p.add_argument("--integration", type=float, help="s, defaults to [sweep] integration_time")
    p.add_argument("--sample", action="store_true", help="Poisson-sample the expectation")

    add("gate-sweep", _cmd_gate_sweep, "figure-of-merit sweep over gate onset")

    add("rep-sweep", _cmd_rep_sweep, "sweep over repetition rates, gate re-optimized per rate")

    add("joint-opt", _cmd_rep_sweep, "joint gate/repetition-rate optimum on the product grid")

    p = add("mc", _cmd_mc, "Monte-Carlo SNR distribution of a gated measurement")
    p.add_argument("--tau-c", type=float, required=True, help="gate onset, ns")
    p.add_argument("--t-end", type=float, help="gate end, ns (default: period)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--bin-width", type=float, default=0.1, help="ns")

    p = add("odmr-synth", _cmd_odmr_synth, "synthesize a CW-ODMR spectrum")
    p.add_argument("--f-start", type=float, default=2.84e9, help="Hz")
    p.add_argument("--f-stop", type=float, default=2.90e9, help="Hz")
    p.add_argument("--points", type=int, default=121)
    p.add_argument("--center1", type=float, default=2.865e9, help="Hz")
    p.add_argument("--fwhm1", type=float, default=8e6, help="Hz")
    p.add_argument("--depth1", type=float, default=0.3, help="population fraction")
    p.add_argument("--center2", type=float, default=2.875e9, help="Hz")
    p.add_argument("--fwhm2", type=float, default=8e6, help="Hz")
    p.add_argument("--depth2", type=float, default=0.3, help="population fraction")
    p.add_argument("--tau-c", type=float, default=0.0, help="gate onset, ns")
    p.add_argument("--t-end", type=float, help="gate end, ns (default: period)")
    p.add_argument("--integration-per-point", type=float, default=0.1, help="s")

    p = add("odmr-fit", _cmd_odmr_fit, "double-Lorentzian fit of a spectrum file")
    p.add_argument("--input", required=True, help="spectrum report (freq_hz,counts)")

    p = add("gate-apply", _cmd_gate_apply, "offline gate applied to a histogram file")
    p.add_argument("--input", required=True, help="histogram file")
    p.add_argument("--tau-c", type=float, required=True, help="gate onset, ns")
    p.add_argument("--t-end", type=float, help="gate end, ns (default: period)")

    p = add("hw-sim", _cmd_hw_sim, "event-level hardware gating vs offline filtering")
    p.add_argument("--integration", type=float, default=0.01, help="s")
    p.add_argument("--toggle-rate", type=float, default=50.0, help="Hz MW square wave")
    p.add_argument("--delay", type=float, required=True, help="gate-on delay after trigger, ns")
    p.add_argument("--length", type=float, help="gate-on duration, ns (default: period - delay)")
    p.add_argument("--jitter", type=float, default=0.0, help="per-pulse edge jitter sigma, ns")

    p = add("snr-map", _cmd_snr_map, "per-pixel SNR map with bicubic upsampling")
    p.add_argument("--input", required=True, help="scan report (ix,iy + four count planes)")
    p.add_argument("--channel", choices=("gated", "ungated"), required=True)
    p.add_argument("--factor", type=int, default=4)

    return parser


def _require_config(args) -> RunConfig:
    if not args.config:
        raise ConfigError("--config is required for this command")
    return load_config(args.config)


def _resolve_seed(args, run: RunConfig | None):
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be non-negative")
        return args.seed
    return run.seed if run is not None else None


def _resolve_out(args, run: RunConfig | None) -> str:
    out = args.out or (run.out if run is not None else None)
    if not out:
        raise ConfigError("no output path: pass --out or set [io] out")
    return out


def _cmd_simulate(args) -> int:
    run = _require_config(args)
    seed = _resolve_seed(args, run)
    out = _resolve_out(args, run)
    integration = args.integration
    if integration is None:
        integration = run.sweep.integration_time * run.sweep.mw_duty
    spin = "ms0" if args.channel == "mw_off" else run.c_sat
    expected = histogram_expectation(
        run.model, spin, run.train, args.bin_width, integration, channel=args.channel
    )
    if args.sample:
        if seed is None:
            raise ConfigError("--sample requires a seed (--seed or [io] seed)")
        expected = sample_histogram(expected, seed)
    write_histogram(out, expected)
    return 0


def _cmd_gate_sweep(args) -> int:
    run = _require_config(args)
    seed = _resolve_seed(args, run)
    out = _resolve_out(args, run)
    report = sweep_gate(run.model, run.train, run.sweep)
    data = {
        "tau_c_ns": report.tau_c_grid,
        "contrast": report.contrast,
        "shot_noise": report.shot_noise,
        "snr": report.snr,
        "ef": report.ef,
    }
    if report.eta is not None:
        data["eta"] = report.eta
    meta = _base_metadata("gate-sweep", seed)
    meta["rep_rate_hz"] = _fmt(run.train.rep_rate)
    meta["c_sat"] = _fmt(run.sweep.c_sat)
    meta["optimal_tau_c_ns"] = _fmt(optimal_gate(report))
    meta["optimal_snr"] = _fmt(report.snr[report.optimum])
    write_report(out, ColumnarReport(metadata=meta, data=data))
    return 0


def _cmd_rep_sweep(args) -> int:
    """rep-sweep, and joint-opt: the same report plus the joint optimum."""
    run = _require_config(args)
    seed = _resolve_seed(args, run)
    out = _resolve_out(args, run)
    if not run.sweep.rate_grid:
        raise ConfigError(f"{args.command} needs [sweep] rate_grid or period_grid")
    report = sweep_rep_rate(run.model, run.sweep)
    data = {
        "rate_hz": report.rate_grid,
        "period_ns": 1e9 / report.rate_grid,
        "tau_c_opt_ns": report.tau_c_opt,
        "snr_ungated": report.snr_ungated,
        "snr_gated": report.snr_gated,
    }
    if report.eta_ungated is not None:
        data["eta_ungated"] = report.eta_ungated
        data["eta_gated"] = report.eta_gated
    meta = _base_metadata(args.command, seed)
    meta["mode"] = report.mode
    if args.command == "joint-opt":
        tau_c, rate = optimal_point(report)
        meta["optimal_tau_c_ns"] = _fmt(tau_c)
        meta["optimal_rate_hz"] = _fmt(rate)
        meta["optimal_period_ns"] = _fmt(1e9 / rate)
    write_report(out, ColumnarReport(metadata=meta, data=data))
    return 0


def _cmd_mc(args) -> int:
    run = _require_config(args)
    seed = _resolve_seed(args, run)
    out = _resolve_out(args, run)
    if seed is None:
        raise ConfigError("mc requires a seed (--seed or [io] seed)")
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    t_end = args.t_end if args.t_end is not None else math.inf
    gate = GateWindow(args.tau_c, t_end)
    result = mc_snr_distribution(
        run.model,
        gate,
        run.train,
        run.sweep.integration_time,
        args.trials,
        seed,
        c_sat=run.c_sat,
        mw_duty=run.sweep.mw_duty,
        bin_width=args.bin_width,
    )
    per_channel = run.sweep.integration_time * run.sweep.mw_duty
    n0 = steady_rate(run.model, "ms0", args.tau_c, run.train) * per_channel
    n1 = steady_rate(run.model, run.c_sat, args.tau_c, run.train) * per_channel
    analytic = snr(CountPair(n0, n1))
    meta = _base_metadata("mc", seed)
    meta.update(
        trials=str(args.trials),
        tau_c_ns=_fmt(args.tau_c),
        mean_snr=_fmt(result.mean),
        std_snr=_fmt(result.std),
        analytic_snr=_fmt(analytic),
    )
    data = {"trial": np.arange(args.trials), "snr": result.samples}
    write_report(out, ColumnarReport(metadata=meta, data=data))
    return 0


def _cmd_odmr_synth(args) -> int:
    run = _require_config(args)
    seed = _resolve_seed(args, run)
    out = _resolve_out(args, run)
    if args.points < 2:
        raise ConfigError("--points must be >= 2")
    freqs = np.linspace(args.f_start, args.f_stop, args.points)
    truth = DoubletTruth(
        center1=args.center1,
        fwhm1=args.fwhm1,
        depth1=args.depth1,
        center2=args.center2,
        fwhm2=args.fwhm2,
        depth2=args.depth2,
    )
    t_end = args.t_end if args.t_end is not None else math.inf
    gate = GateWindow(args.tau_c, t_end) if (args.tau_c > 0 or args.t_end is not None) else None
    spectrum = synth_odmr(
        run.model, run.train, gate, freqs, truth, args.integration_per_point, seed=seed
    )
    meta = _base_metadata("odmr-synth", seed)
    meta.update(
        integration_per_point_s=_fmt(args.integration_per_point),
        gate_start_ns="none" if gate is None else _fmt(gate.t_start),
        gate_end_ns="none" if gate is None else _fmt(gate.t_end),
        rep_rate_hz=_fmt(run.train.rep_rate),
    )
    data = {"freq_hz": spectrum.freqs, "counts": spectrum.counts}
    write_report(out, ColumnarReport(metadata=meta, data=data))
    return 0


def _cmd_odmr_fit(args) -> int:
    run = load_config(args.config) if args.config else None
    seed = _resolve_seed(args, run)
    out = _resolve_out(args, run)
    table = read_report(args.input)
    if tuple(table.columns[:2]) != ("freq_hz", "counts"):
        raise ParseError(f"{args.input}: expected columns freq_hz,counts")
    integration = float(table.metadata.get("integration_per_point_s", 1.0))
    gate = None
    if table.metadata.get("gate_start_ns", "none") != "none":
        gate = GateWindow(
            float(table.metadata["gate_start_ns"]), float(table.metadata["gate_end_ns"])
        )
    from .odmr import OdmrSpectrum

    spectrum = OdmrSpectrum(
        freqs=table.data["freq_hz"],
        counts=table.data["counts"],
        integration_per_point=integration,
        gate=gate,
    )
    doublet, residual_norm = fit_double_lorentzian(spectrum)
    meta = _base_metadata("odmr-fit", seed)
    meta["input"] = args.input
    meta["residual_norm"] = _fmt(residual_norm)
    data = {
        "baseline": [doublet.baseline],
        "center1_hz": [doublet.center1],
        "fwhm1_hz": [doublet.fwhm1],
        "depth1": [doublet.depth1],
        "center2_hz": [doublet.center2],
        "fwhm2_hz": [doublet.fwhm2],
        "depth2": [doublet.depth2],
    }
    write_report(out, ColumnarReport(metadata=meta, data=data))
    return 0


def _cmd_gate_apply(args) -> int:
    run = load_config(args.config) if args.config else None
    seed = _resolve_seed(args, run)
    out = _resolve_out(args, run)
    hist = read_histogram(args.input)
    t_end = args.t_end if args.t_end is not None else math.inf
    window = hist.aligned_slice(args.tau_c, t_end)
    data = {"bin_start_ns": hist.bin_starts[window], "counts": hist.counts[window]}
    meta = _base_metadata("gate-apply", seed)
    meta.update(
        tau_c_ns=_fmt(args.tau_c),
        t_end_ns="period" if args.t_end is None else _fmt(args.t_end),
        bin_width_ns=_fmt(hist.bin_width),
        rep_rate_hz=_fmt(hist.rep_rate),
        integration_s=_fmt(hist.integration_time),
        channel=hist.channel,
        gated_counts=_fmt(float(data["counts"].sum())),
    )
    write_report(out, ColumnarReport(metadata=meta, data=data))
    return 0


def _cmd_hw_sim(args) -> int:
    run = _require_config(args)
    seed = _resolve_seed(args, run)
    out = _resolve_out(args, run)
    if seed is None:
        raise ConfigError("hw-sim requires a seed (--seed or [io] seed)")
    period = run.train.period
    length = args.length if args.length is not None else period - args.delay
    cfg = HwGateConfig(trigger_delay=args.delay, gate_length=length, jitter_sigma=args.jitter)
    stream_seed, gate_seed = np.random.SeedSequence(seed).spawn(2)
    events = simulate_events(
        run.model, run.train, args.integration, args.toggle_rate, stream_seed, c_sat=run.c_sat
    )
    kept = hw_gate(events, run.train, cfg, gate_seed)
    offline = offline_gate(events, run.train, GateWindow(args.delay, args.delay + length))
    identical = len(kept) == len(offline) and bool(
        np.array_equal(kept.timestamps, offline.timestamps)
        and np.array_equal(kept.channels, offline.channels)
    )
    meta = _base_metadata("hw-sim", seed)
    meta.update(
        n_events=str(len(events)),
        n_kept_hw=str(len(kept)),
        n_kept_offline=str(len(offline)),
        identical_to_offline=str(int(identical)),
        trigger_delay_ns=_fmt(args.delay),
        gate_length_ns=_fmt(length),
        jitter_sigma_ns=_fmt(args.jitter),
    )
    data = {"timestamp_ns": kept.timestamps, "channel": np.asarray(CHANNELS)[kept.channels]}
    write_report(out, ColumnarReport(metadata=meta, data=data))
    return 0


def _cmd_snr_map(args) -> int:
    run = load_config(args.config) if args.config else None
    seed = _resolve_seed(args, run)
    out = _resolve_out(args, run)
    scan = _read_scan(args.input)
    result = snr_map(scan, args.channel, args.factor)
    meta = _base_metadata("snr-map", seed)
    meta.update(
        channel=args.channel,
        factor=str(result.factor),
        method=result.method,
        zero_pixels=str(int(result.zero_flags.sum())),
        pitch_um=_fmt(scan.pitch / result.factor),
    )
    iy, ix = np.indices(result.values.shape)
    data = {"ix": ix.ravel(), "iy": iy.ravel(), "snr": result.values.ravel()}
    write_report(out, ColumnarReport(metadata=meta, data=data))
    return 0


_SCAN_PLANES = ("mw_off_gated", "mw_on_gated", "mw_off_ungated", "mw_on_ungated")


def _read_scan(path: str) -> ScanMap:
    table = read_report(path)
    expected = ("ix", "iy") + _SCAN_PLANES
    if tuple(table.columns) != expected:
        raise ParseError(f"{path}: expected columns {','.join(expected)}")
    try:
        nx = int(table.metadata["nx"])
        ny = int(table.metadata["ny"])
        pitch = float(table.metadata.get("pitch_um", 1.0))
        dwell = float(table.metadata.get("dwell_s", 1.0))
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{path}: bad or missing scan metadata ({exc})") from exc
    ix = table.data["ix"].astype(np.int64)
    iy = table.data["iy"].astype(np.int64)
    outside = np.flatnonzero((ix < 0) | (ix >= nx) | (iy < 0) | (iy >= ny))
    if outside.size:
        i = outside[0]
        raise ParseError(f"{path}: pixel ({ix[i]}, {iy[i]}) outside the {nx}x{ny} grid")
    planes = {}
    for name in _SCAN_PLANES:
        planes[name] = np.full((ny, nx), np.nan)
        planes[name][iy, ix] = table.data[name]
    for name, plane in planes.items():
        if np.any(np.isnan(plane)):
            raise ParseError(f"{path}: plane {name} has missing pixels")
    return ScanMap(pitch=pitch, dwell=dwell, **planes)


if __name__ == "__main__":
    sys.exit(main())
