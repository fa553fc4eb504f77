"""Command-line surface.

Subcommands: simulate, gate-sweep, rep-sweep, joint-opt, mc, odmr-synth,
odmr-fit, gate-apply, hw-sim, snr-map. Each run setting has one source:
the seed comes only from --seed and the output path only from --out, which
every command requires. --config is a required argument of the commands
that compute from a model, and the others do not take it; mc and hw-sim
require --seed as well.

One table, COMMANDS, declares every command: its help text, its handler's
module and name, whether it needs a config and a seed, and its arguments.
_flags turns an entry into the command's flags, and both readers of a
command line take them from there. Each handler lives in the module it
drives and is called as handler(args, run, seed), run being the loaded
RunConfig or None and seed --seed or None; a run loads only the handler's
module.

A well-formed command line builds no parser: _read takes it straight from
the table. It is well formed when its first word names a command and the
rest are that command's exact long flags, each required one present and
none twice, every flag but a store_true one followed by a value that does
not start with "-" and that the flag's type and choices accept. _read
returns the namespace argparse would, and --version on its own prints
argparse's version line. Every other command line (--help, a usage error,
an abbreviated flag, --flag=value, a value starting with "-") goes to
argparse's full tree, so help, usage and error texts are argparse's own.

One runner takes every command through the same steps: load the config,
call the command's handler and write what it returns to --out: a
TcspcHistogram (simulate), or (metadata, columns) or (metadata, columns,
labels) as a ColumnarReport's fields, with tool, version, command and seed
put ahead of the metadata.

Exit codes: 0 success, 2 validation/config/parse error or a request too
large for the memory available, 3 numeric failure (fit non-convergence and
similar). Identical config and seed give byte-identical output files.

At exit: main registers gc.freeze with atexit, once per process, so the
interpreter's shutdown collections skip the objects the run left and the
operating system reclaims them; stdout and stderr are flushed and other
atexit hooks run as usual. The collector stays on while main runs. An
in-process caller of main inherits the freeze: at its own exit, cyclic
garbage is not collected and the finalizers of objects in cycles do not
run.
"""

from __future__ import annotations

import atexit
import functools
import gc
import importlib
import sys
import types

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
        # gating.CHANNELS, spelled out so that reading a command line loads no module
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


@functools.cache
def _freeze_at_exit() -> None:
    """Register gc.freeze to run at interpreter exit, once per process.

    It moves every live object into the permanent generation, so that the
    shutdown collections skip the run's object graph (numpy's and
    spingate's, 10-15 ms of work) and the operating system reclaims it. Only
    the finalizers of objects in reference cycles are skipped, and no output
    depends on them: every file a command opens is closed before main
    returns. The collector itself stays on until then.
    """
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_at_exit()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv == ["--version"]:  # the line argparse's version action prints
        print(f"spingate {__version__}")
        return 0
    args = _read(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse already printed help or usage
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


def _flags(spec) -> tuple:
    """A command's flags as (flag, add_argument keywords), in the order of
    its usage line."""
    config = (("--config", dict(required=True, help="INI run configuration")),)
    return (
        *(config if spec["config"] else ()),
        ("--seed", dict(type=int, required=spec["seed"], help="master seed")),
        ("--out", dict(required=True, help="output path")),
        *spec["arguments"],
    )


def _read(argv: list[str]) -> types.SimpleNamespace | None:
    """The namespace argparse would return for a well-formed argv (see the
    module docstring), or None for argparse to parse. It prints nothing."""
    if not argv or argv[0] not in COMMANDS:
        return None
    flags = dict(_flags(COMMANDS[argv[0]]))
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        options = flags.get(flag)
        if options is None or flag in given:
            return None
        if options.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            value = options.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in options and value not in options["choices"]:
            return None
        given[flag] = value
    if any(options.get("required") and flag not in given for flag, options in flags.items()):
        return None
    args = types.SimpleNamespace(command=argv[0])
    for flag, options in flags.items():  # argparse's dests and defaults
        default = options.get("default", False if options.get("action") == "store_true" else None)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def _build_parser():
    """argparse's parser for every command, for help and usage errors."""
    import argparse  # a well-formed run never loads it

    parser = argparse.ArgumentParser(
        prog="spingate",
        description="Time-gated photon counting toolkit for spin-dependent fluorescence readout.",
    )
    parser.add_argument("--version", action="version", version=f"spingate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        p = sub.add_parser(name, help=spec["help"])
        for flag, options in _flags(spec):
            p.add_argument(flag, **options)
    return parser


def _run(args) -> None:
    """Load the config, run the handler, write its result to --out."""
    spec = COMMANDS[args.command]
    run = config.load_config(args.config) if spec["config"] else None
    seed = args.seed
    if seed is not None and seed < 0:  # a value check: the readers check presence
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
