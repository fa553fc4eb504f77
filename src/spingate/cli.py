"""Command-line surface.

Subcommands: simulate, gate-sweep, rep-sweep, joint-opt, mc, odmr-synth,
odmr-fit, gate-apply, hw-sim, snr-map. Every command accepts --config,
--seed and --out; --seed overrides the [io] seed, --out overrides [io] out.

One runner takes every command through the same steps: load the config,
resolve the seed and the output path, call the command's handler and write
what it returns, a TcspcHistogram (simulate) or (metadata, columns) with
tool, version, command and seed put ahead of the metadata. Whether a command
needs a config or a seed is declared where the parser registers it.

Exit codes: 0 success, 2 validation/config/parse error, 3 numeric failure
(fit non-convergence and similar). Identical config and seed give
byte-identical output files.
"""

from __future__ import annotations

import argparse
import array
import math
import sys

import numpy as np

# errors, histogram and report serve every command. The handlers' modules
# are registered lazily by the package, so each loads on a handler's first
# call into it: a command loads only the modules it runs.
from . import __version__, acquisition, config, decay, mapping, odmr, sweep
from .errors import ConfigError, FitError, NonConvergenceError, ParseError
from .histogram import CHANNELS, TcspcHistogram
from .report import (
    ColumnarReport,
    format_value,
    read_histogram,
    read_report,
    write_histogram,
    write_report,
)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code) if exc.code is not None else 0
    try:
        _run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        last = ", ".join(f"{k}={format_value(v)}" for k, v in exc.last_params.items())
        print(f"last iterate: {last}", file=sys.stderr)
        print(f"residual_norm: {format_value(exc.residual_norm)}", file=sys.stderr)
        return 3
    except FitError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spingate",
        description="Time-gated photon counting toolkit for spin-dependent fluorescence readout.",
    )
    parser.add_argument("--version", action="version", version=f"spingate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, config=True, seed=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="INI run configuration")
        p.add_argument("--seed", type=int, help="master seed, overrides [io] seed")
        p.add_argument("--out", help="output path, overrides [io] out")
        p.set_defaults(handler=handler, needs_config=config, needs_seed=seed)
        return p

    p = add("simulate", _cmd_simulate, "expected or sampled TCSPC histogram")
    p.add_argument("--channel", choices=CHANNELS, default="mw_off")
    p.add_argument("--bin-width", type=float, default=0.1, help="ns")
    p.add_argument("--integration", type=float, help="s, defaults to [sweep] integration_time")
    p.add_argument("--sample", action="store_true", help="Poisson-sample the expectation")

    add("gate-sweep", _cmd_gate_sweep, "figure-of-merit sweep over gate onset")

    add("rep-sweep", _cmd_rep_sweep, "sweep over repetition rates, gate re-optimized per rate")

    add("joint-opt", _cmd_rep_sweep, "joint gate/repetition-rate optimum on the product grid")

    p = add("mc", _cmd_mc, "Monte-Carlo SNR distribution of a gated measurement", seed=True)
    p.add_argument("--tau-c", type=float, required=True, help="gate onset, ns")
    p.add_argument("--t-end", type=float, help="gate end, ns (default: period)")
    p.add_argument("--trials", type=int, default=1000)

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

    p = add("odmr-fit", _cmd_odmr_fit, "double-Lorentzian fit of a spectrum file", config=False)
    p.add_argument("--input", required=True, help="spectrum report (freq_hz,counts)")

    p = add("gate-apply", _cmd_gate_apply, "offline gate applied to a histogram file", config=False)
    p.add_argument("--input", required=True, help="histogram file")
    p.add_argument("--tau-c", type=float, required=True, help="gate onset, ns")
    p.add_argument("--t-end", type=float, help="gate end, ns (default: period)")

    p = add("hw-sim", _cmd_hw_sim, "event-level hardware gating vs offline filtering", seed=True)
    p.add_argument("--integration", type=float, default=0.01, help="s")
    p.add_argument("--toggle-rate", type=float, default=50.0, help="Hz MW square wave")
    p.add_argument("--delay", type=float, required=True, help="gate-on delay after trigger, ns")
    p.add_argument("--length", type=float, help="gate-on duration, ns (default: period - delay)")
    p.add_argument("--jitter", type=float, default=0.0, help="per-pulse edge jitter sigma, ns")

    p = add("snr-map", _cmd_snr_map, "per-pixel SNR map with bicubic upsampling", config=False)
    p.add_argument("--input", required=True, help="scan report (ix,iy + four count planes)")
    p.add_argument("--channel", choices=("gated", "ungated"), required=True)
    p.add_argument("--factor", type=int, default=4)

    return parser


def _run(args) -> None:
    """Resolve the config, seed and output path, run the handler, write its result."""
    if args.needs_config and not args.config:
        raise ConfigError("--config is required for this command")
    run = config.load_config(args.config) if args.config else None
    io_seed, io_out = (run.seed, run.out) if run is not None else (None, None)
    if args.seed is not None and args.seed < 0:
        raise ConfigError("--seed must be non-negative")
    seed = io_seed if args.seed is None else args.seed
    out = args.out or io_out
    if not out:
        raise ConfigError("no output path: pass --out or set [io] out")
    if args.needs_seed and seed is None:
        raise ConfigError(f"{args.command} requires a seed (--seed or [io] seed)")
    result = args.handler(args, run, seed)
    if isinstance(result, TcspcHistogram):
        write_histogram(out, result)
        return
    metadata, data = result
    header = dict(tool="spingate", version=__version__, command=args.command,
                  seed="none" if seed is None else seed)
    write_report(out, ColumnarReport(metadata={**header, **metadata}, data=data))


def _gate(args) -> decay.GateWindow:
    """Gate from --tau-c and --t-end; without --t-end it runs to the period."""
    return decay.GateWindow(args.tau_c, math.inf if args.t_end is None else args.t_end)


def _cmd_simulate(args, run: config.RunConfig, seed) -> TcspcHistogram:
    integration = run.sweep.channel_time if args.integration is None else args.integration
    spin = "ms0" if args.channel == "mw_off" else run.c_sat
    expected = decay.histogram_expectation(
        run.model, spin, run.train, args.bin_width, integration, channel=args.channel
    )
    if not args.sample:
        return expected
    if seed is None:
        raise ConfigError("--sample requires a seed (--seed or [io] seed)")
    return acquisition.sample_histogram(expected, seed)


def _cmd_gate_sweep(args, run: config.RunConfig, seed):
    report = sweep.sweep_gate(run.model, run.train, run.sweep)
    data = {
        "tau_c_ns": report.tau_c_grid,
        "contrast": report.contrast,
        "shot_noise": report.shot_noise,
        "snr": report.snr,
        "ef": report.ef,
    }
    if report.eta is not None:
        data["eta"] = report.eta
    meta = dict(
        rep_rate_hz=run.train.rep_rate,
        c_sat=run.sweep.c_sat,
        optimal_tau_c_ns=sweep.optimal_gate(report),
        optimal_snr=report.snr[report.optimum],
    )
    return meta, data


def _cmd_rep_sweep(args, run: config.RunConfig, seed):
    """rep-sweep, and joint-opt: the same report plus the joint optimum."""
    if not run.sweep.rate_grid:
        raise ConfigError(f"{args.command} needs [sweep] rate_grid or period_grid")
    report = sweep.sweep_rep_rate(run.model, run.sweep)
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
    meta = {"mode": report.mode}
    if args.command == "joint-opt":
        tau_c, rate = sweep.optimal_point(report)
        meta.update(optimal_tau_c_ns=tau_c, optimal_rate_hz=rate, optimal_period_ns=1e9 / rate)
    return meta, data


def _cmd_mc(args, run: config.RunConfig, seed):
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    result = acquisition.mc_snr_distribution(
        run.model, _gate(args), run.train, run.sweep.channel_time, args.trials, seed,
        c_sat=run.c_sat,
    )
    meta = dict(
        trials=args.trials,
        tau_c_ns=args.tau_c,
        mean_snr=result.mean,
        std_snr=result.std,
        analytic_snr=result.analytic,
    )
    return meta, {"trial": np.arange(args.trials), "snr": result.samples}


def _cmd_odmr_synth(args, run: config.RunConfig, seed):
    if args.points < 2:
        raise ConfigError("--points must be >= 2")
    freqs = np.linspace(args.f_start, args.f_stop, args.points)
    truth = odmr.DoubletTruth(
        args.center1, args.fwhm1, args.depth1, args.center2, args.fwhm2, args.depth2
    )
    gate = _gate(args) if (args.tau_c > 0 or args.t_end is not None) else None
    spectrum = odmr.synth_odmr(
        run.model, run.train, gate, freqs, truth, args.integration_per_point, seed=seed
    )
    meta = dict(
        integration_per_point_s=args.integration_per_point,
        gate_start_ns="none" if gate is None else gate.t_start,
        gate_end_ns="none" if gate is None else gate.t_end,
        rep_rate_hz=run.train.rep_rate,
    )
    return meta, {"freq_hz": spectrum.freqs, "counts": spectrum.counts}


def _cmd_odmr_fit(args, run, seed):
    table = read_report(args.input, ("freq_hz", "counts"))
    meta = table.metadata

    def number(key: str, default=None) -> float:
        value = meta.get(key, default)
        if value is None:
            raise ParseError(f"{args.input}: missing metadata key {key}")
        try:
            return float(value)
        except ValueError:
            raise ParseError(f"{args.input}: metadata {key}={value!r} is not a number") from None

    integration = number("integration_per_point_s", 1.0)
    gate = None
    if meta.get("gate_start_ns", "none") != "none":
        gate = decay.GateWindow(number("gate_start_ns"), number("gate_end_ns"))
    spectrum = odmr.OdmrSpectrum(
        freqs=table.data["freq_hz"],
        counts=table.data["counts"],
        integration_per_point=integration,
        gate=gate,
    )
    doublet, residual_norm = odmr.fit_double_lorentzian(spectrum)
    data = {
        "baseline": [doublet.baseline],
        "center1_hz": [doublet.center1],
        "fwhm1_hz": [doublet.fwhm1],
        "depth1": [doublet.depth1],
        "center2_hz": [doublet.center2],
        "fwhm2_hz": [doublet.fwhm2],
        "depth2": [doublet.depth2],
    }
    return {"input": args.input, "residual_norm": residual_norm}, data


def _cmd_gate_apply(args, run, seed):
    hist = read_histogram(args.input)
    gate = _gate(args)
    window = hist.aligned_slice(gate.t_start, gate.t_end)
    counts = hist.counts[window]
    meta = dict(
        tau_c_ns=args.tau_c,
        t_end_ns="period" if args.t_end is None else args.t_end,
        bin_width_ns=hist.bin_width,
        rep_rate_hz=hist.rep_rate,
        integration_s=hist.integration_time,
        channel=hist.channel,
        gated_counts=float(counts.sum()),
    )
    return meta, {"bin_start_ns": hist.bin_starts[window], "counts": counts}


def _cmd_hw_sim(args, run: config.RunConfig, seed):
    period = run.train.period
    length = args.length if args.length is not None else period - args.delay
    gate = decay.GateWindow(args.delay, args.delay + length)
    if not args.jitter >= 0:
        raise ConfigError("--jitter must be >= 0")
    window = acquisition.hw_gate_window(gate, run.train, args.jitter)
    stream_seed, gate_seed = np.random.SeedSequence(seed).spawn(2)
    n_events = n_offline = 0
    identical = True
    # block by block, so only the kept events of the stream are ever whole;
    # they collect in two growing buffers, since small per-block arrays
    # left between the blocks' large ones would fragment the heap
    stamps, codes = array.array("d"), array.array("B")
    for k in range(acquisition.block_count(run.train, args.integration)):
        events = acquisition.simulate_events(
            run.model, run.train, args.integration, args.toggle_rate, stream_seed,
            c_sat=run.c_sat, block=k, window=window,
        )
        kept = acquisition.hw_gate(
            events, run.train, gate, args.jitter, acquisition.block_seed(gate_seed, k)
        )
        offline = acquisition.offline_gate(events, run.train, gate)
        identical &= bool(
            np.array_equal(kept.timestamps, offline.timestamps)
            and np.array_equal(kept.channels, offline.channels)
        )
        n_events += len(events) + events.n_outside
        n_offline += len(offline)
        stamps.frombytes(kept.timestamps.tobytes())
        codes.frombytes(kept.channels.tobytes())
        del events, kept, offline
    timestamps = np.frombuffer(stamps)
    meta = dict(
        n_events=n_events,
        n_kept_hw=timestamps.size,
        n_kept_offline=n_offline,
        identical_to_offline=int(identical),
        trigger_delay_ns=args.delay,
        gate_length_ns=length,
        jitter_sigma_ns=args.jitter,
    )
    # one pointer per row to the two shared label strings
    channels = np.array(CHANNELS, dtype=object)[np.frombuffer(codes, np.uint8)]
    return meta, {"timestamp_ns": timestamps, "channel": channels}


def _cmd_snr_map(args, run, seed):
    scan = _read_scan(args.input)
    result = mapping.snr_map(scan, args.channel, args.factor)
    meta = dict(
        channel=args.channel,
        factor=result.factor,
        method=result.method,
        zero_pixels=int(result.zero_flags.sum()),
        pitch_um=scan.pitch / result.factor,
    )
    iy, ix = np.indices(result.values.shape)
    return meta, {"ix": ix.ravel(), "iy": iy.ravel(), "snr": result.values.ravel()}


_SCAN_PLANES = ("mw_off_gated", "mw_on_gated", "mw_off_ungated", "mw_on_ungated")


def _read_scan(path: str) -> mapping.ScanMap:
    table = read_report(path, ("ix", "iy") + _SCAN_PLANES)
    try:
        nx = int(table.metadata["nx"])
        ny = int(table.metadata["ny"])
        pitch = float(table.metadata.get("pitch_um", 1.0))
        dwell = float(table.metadata.get("dwell_s", 1.0))
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{path}: bad or missing scan metadata ({exc})") from exc
    ix, iy = table.data["ix"], table.data["iy"]

    def pixel(i: int) -> str:
        return f"{path}: pixel ({format_value(ix[i])}, {format_value(iy[i])})"

    # checked as floats, before the cast to ints, so nan and +-inf fail too
    fractional = np.flatnonzero((ix != np.floor(ix)) | (iy != np.floor(iy)))
    if fractional.size:
        raise ParseError(f"{pixel(fractional[0])} is not an integer index")
    outside = np.flatnonzero(~((ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)))
    if outside.size:
        raise ParseError(f"{pixel(outside[0])} outside the {nx}x{ny} grid")
    # sorted by pixel, so nothing is allocated by the header's nx * ny: a
    # repeat sits next to its pixel's first row, and without repeats only
    # nx * ny rows fill the grid
    flat = iy.astype(np.int64) * nx + ix.astype(np.int64)
    order = np.argsort(flat, kind="stable")
    repeats = flat[order[1:]] == flat[order[:-1]]
    if repeats.any():
        raise ParseError(f"{pixel(order[:-1][repeats].min())} appears in more than one row")
    if flat.size < nx * ny:
        raise ParseError(f"{path}: plane {_SCAN_PLANES[0]} has missing pixels")
    planes = {name: table.data[name][order].reshape(ny, nx) for name in _SCAN_PLANES}
    for name, plane in planes.items():
        if np.any(np.isnan(plane)):
            raise ParseError(f"{path}: plane {name} has missing pixels")
    return mapping.ScanMap(pitch=pitch, dwell=dwell, **planes)


if __name__ == "__main__":
    sys.exit(main())
