"""Command-line surface.

Subcommands: simulate, gate-sweep, rep-sweep, joint-opt, mc, odmr-synth,
odmr-fit, gate-apply, hw-sim, snr-map. Each run setting has one source:
the seed comes only from --seed and the output path only from --out, which
every command requires. --config is a required argument of the commands
that compute from a model, and the others do not take it; mc and hw-sim
require --seed as well.

One table, COMMANDS, declares every command: its help text, its handler's
module and name, whether it needs a config and a seed, and its arguments.
The parser states what each command needs from that table. Each handler
lives in the module it drives and is called as handler(args, run, seed),
run being the loaded RunConfig or None and seed --seed or None. A run
whose first argument names a command builds only that command's subparser
and loads only the handler's module; any other (--help, --version, an
unknown command, none) builds the full tree. Both print the same usage.

One runner takes every command through the same steps: load the config,
call the command's handler and write what it returns to --out: a
TcspcHistogram (simulate), or (metadata, columns) or (metadata, columns,
labels) as a ColumnarReport's fields, with tool, version, command and seed
put ahead of the metadata.

Exit codes: 0 success, 2 validation/config/parse error or a request too
large for the memory available, 3 numeric failure (fit non-convergence and
similar). Identical config and seed give byte-identical output files.
"""

from __future__ import annotations

import argparse
import importlib
import sys

# registered lazily by the package: each loads on the first use of one of
# its names, so a command loads only the modules it runs
from . import __version__, config, errors, report


def _command(help_text, handler, *arguments, config=True, seed=False):
    """A COMMANDS entry; each argument is (flag, add_argument keywords)."""
    return dict(help=help_text, handler=handler, arguments=arguments, config=config, seed=seed)


_T_END = ("--t-end", dict(type=float, help="gate end, ns (default: period)"))
_TAU_C = ("--tau-c", dict(type=float, required=True, help="gate onset, ns"))

# In the order of the usage line; a handler is "module.name".
COMMANDS = {
    "simulate": _command(
        "expected or sampled TCSPC histogram", "decay.cmd_simulate",
        # gating.CHANNELS, spelled out so that building the parser loads no module
        ("--channel", dict(choices=("mw_off", "mw_on"), default="mw_off")),
        ("--bin-width", dict(type=float, default=0.1, help="ns")),
        ("--sample", dict(action="store_true", help="Poisson-sample the expectation")),
    ),
    "gate-sweep": _command("figure-of-merit sweep over gate onset", "sweep.cmd_gate_sweep"),
    "rep-sweep": _command(
        "sweep over repetition rates, gate re-optimized per rate", "sweep.cmd_rep_sweep"
    ),
    "joint-opt": _command(
        "joint gate/repetition-rate optimum on the product grid", "sweep.cmd_rep_sweep"
    ),
    "mc": _command(
        "Monte-Carlo SNR distribution of a gated measurement", "acquisition.cmd_mc",
        _TAU_C,
        _T_END,
        ("--trials", dict(type=int, default=1000)),
        seed=True,
    ),
    "odmr-synth": _command(
        "synthesize a CW-ODMR spectrum", "odmr.cmd_odmr_synth",
        ("--f-start", dict(type=float, default=2.84e9, help="Hz")),
        ("--f-stop", dict(type=float, default=2.90e9, help="Hz")),
        ("--points", dict(type=int, default=121)),
        ("--center1", dict(type=float, default=2.865e9, help="Hz")),
        ("--fwhm1", dict(type=float, default=8e6, help="Hz")),
        ("--depth1", dict(type=float, default=0.3, help="population fraction")),
        ("--center2", dict(type=float, default=2.875e9, help="Hz")),
        ("--fwhm2", dict(type=float, default=8e6, help="Hz")),
        ("--depth2", dict(type=float, default=0.3, help="population fraction")),
        ("--tau-c", dict(type=float, default=0.0, help="gate onset, ns")),
        _T_END,
        ("--integration-per-point", dict(type=float, default=0.1, help="s")),
    ),
    "odmr-fit": _command(
        "double-Lorentzian fit of a spectrum file", "odmr.cmd_odmr_fit",
        ("--input", dict(required=True, help="spectrum report (freq_hz,counts)")),
        config=False,
    ),
    "gate-apply": _command(
        "offline gate applied to a histogram file", "histogram.cmd_gate_apply",
        ("--input", dict(required=True, help="histogram file")),
        _TAU_C,
        _T_END,
        config=False,
    ),
    "hw-sim": _command(
        "event-level hardware gating vs offline filtering", "acquisition.cmd_hw_sim",
        ("--integration", dict(type=float, default=0.01, help="s, total acquisition time")),
        ("--toggle-rate", dict(type=float, default=50.0, help="Hz MW square wave")),
        ("--delay", dict(type=float, required=True, help="gate-on delay after trigger, ns")),
        ("--length", dict(type=float, help="gate-on duration, ns (default: period - delay)")),
        ("--jitter", dict(type=float, default=0.0, help="per-pulse edge jitter sigma, ns")),
        seed=True,
    ),
    "snr-map": _command(
        "per-pixel SNR map with bicubic upsampling", "mapping.cmd_snr_map",
        ("--input", dict(required=True, help="scan report (ix,iy + four count planes)")),
        ("--channel", dict(choices=("gated", "ungated"), required=True)),
        ("--factor", dict(type=int, default=4)),
        config=False,
    ),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code) if exc.code is not None else 0
    try:
        _run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's names the allocation; a bare one is empty
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except errors.NonConvergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        last = ", ".join(f"{k}={report.format_value(v)}" for k, v in exc.last_params.items())
        print(f"last iterate: {last}", file=sys.stderr)
        print(f"residual_norm: {report.format_value(exc.residual_norm)}", file=sys.stderr)
        return 3
    except errors.FitError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with only command's subparser, or with every command's
    when command is None."""
    parser = argparse.ArgumentParser(
        prog="spingate",
        description="Time-gated photon counting toolkit for spin-dependent fluorescence readout.",
    )
    parser.add_argument("--version", action="version", version=f"spingate {__version__}")
    # one command's parser still lists every command in its usage line;
    # the full tree's metavar stays unset, so its errors name "command"
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        spec = COMMANDS[name]
        p = sub.add_parser(name, help=spec["help"])
        if spec["config"]:
            p.add_argument("--config", required=True, help="INI run configuration")
        p.add_argument("--seed", type=int, required=spec["seed"], help="master seed")
        p.add_argument("--out", required=True, help="output path")
        for flag, options in spec["arguments"]:
            p.add_argument(flag, **options)
    return parser


def _run(args) -> None:
    """Load the config, run the handler, write its result to --out."""
    spec = COMMANDS[args.command]
    run = config.load_config(args.config) if spec["config"] else None
    seed = args.seed
    if seed is not None and seed < 0:  # a value check: argparse checks presence
        raise errors.ConfigError("--seed must be non-negative")
    module, name = spec["handler"].split(".")
    result = getattr(importlib.import_module(f"{__package__}.{module}"), name)(args, run, seed)
    if not isinstance(result, tuple):  # simulate's TcspcHistogram
        report.write_histogram(args.out, result)
        return
    metadata, *columns = result  # the data, then the labels where a handler gives them
    header = dict(tool="spingate", version=__version__, command=args.command,
                  seed="none" if seed is None else seed)
    report.write_report(args.out, report.ColumnarReport({**header, **metadata}, *columns))


if __name__ == "__main__":
    sys.exit(main())
