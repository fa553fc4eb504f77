"""Regenerate the baseline table of ROADMAP.md ("Current state") from traced runs.

    python3 perfbench/table.py [--seed 1] [--seconds 1]

Runs all four workloads with --trace 1 and prints one markdown row per
baseline path: in-process times come from the traced run (inclusive span
time, so a row covers the function and everything it calls), CLI times are
medians of the untraced subprocess runs, and imports are fresh-interpreter
probes. Each row names its workload and work size, since the workload sizes
are not always those of the original single-shot figures.
"""

from __future__ import annotations

import argparse
import statistics
import sys

import run
import workloads as wl


def _span(record: dict, command: str, name: str) -> tuple[float, int]:
    entry = record["spans"]["by_command"].get(f"cli.{command}", {}).get(name)
    if entry is None:
        return float("nan"), 0
    return entry["total_s"], entry["calls"]


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.1f} ms" if seconds < 1 else f"{seconds:.2f} s"


def _wall(record: dict, command: str) -> float:
    return record["commands"][command]["wall_s"]["median"]


def rows(records: dict) -> list[tuple[str, str]]:
    irf, grid, events, readout = (records[n] for n in run.WORKLOADS)
    out = []
    t, _ = _span(grid, "gate-sweep", "sweep.sweep_gate")
    onsets = grid["commands"]["gate-sweep"]["work"].get("onsets", 0)
    out.append((f"`sweep_gate`, {onsets} onsets, `irf_sigma=0` (grid-sweep)", _ms(t)))
    t, _ = _span(irf, "gate-sweep", "sweep.sweep_gate")
    onsets = irf["commands"]["gate-sweep"]["work"].get("onsets", 0)
    out.append((f"`sweep_gate`, {onsets} onsets at {wl.IRF_STEP:g} ns, "
                f"`irf_sigma={wl.IRF_SIGMA:g}` ns (irf-sweep)", _ms(t)))
    t, _ = _span(grid, "rep-sweep", "sweep.sweep_rep_rate")
    rates = grid["commands"]["rep-sweep"]["work"].get("rates", 0)
    out.append((f"`sweep_rep_rate`, {rates} periods 20–100 ns (grid-sweep)", _ms(t)))
    t, _ = _span(grid, "joint-opt", "sweep.joint_optimum")
    out.append(("`joint_optimum`, same grid (grid-sweep)", _ms(t)))
    t0, n0 = _span(events, "mc", "decay.histogram_expectation")
    t1, n1 = _span(irf, "simulate", "decay.histogram_expectation")
    out.append((
        "`histogram_expectation`, 0.1 ns bins, σ=0 (events mc) / σ=0.3 (irf-sweep simulate)",
        f"{_ms(t0 / max(n0, 1))} / {_ms(t1 / max(n1, 1))}",
    ))
    t1, _ = _span(irf, "mc", "acquisition.mc_snr_distribution")
    t0, _ = _span(events, "mc", "acquisition.mc_snr_distribution")
    out.append((
        "`mc_snr_distribution`, 1000 trials σ=0.3 (irf-sweep) / 2000 trials σ=0 (events)",
        f"{_ms(t1)} / {_ms(t0)}",
    ))
    t, _ = _span(events, "hw-sim", "acquisition.simulate_events")
    n_events = events["commands"]["hw-sim"]["work"].get("events", 0)
    out.append((f"`simulate_events`, {wl.HW_INTEGRATION * 1e3:g} ms acquisition "
                f"({n_events / 1e6:.2f} M events, events)", _ms(t)))
    t, _ = _span(events, "hw-sim", "acquisition.offline_gate")
    out.append(("`offline_gate` on those events (events)", _ms(t)))
    tw, _ = _span(events, "hw-sim", "report.write_report")
    write_rows = events["commands"]["hw-sim"]["work"].get("rows", 0)
    tr, _ = _span(readout, "odmr-fit", "report.read_report")
    read_rows = readout["commands"]["odmr-fit"]["work"].get("points", 0)
    out.append((
        f"`write_report` {write_rows} rows (events) / `read_report` {read_rows} rows (readout)",
        f"{_ms(tw)} ({1e6 * tw / max(write_rows, 1):.2f} µs/row) / "
        f"{_ms(tr)} ({1e6 * tr / max(read_rows, 1):.2f} µs/row)",
    ))
    imports = irf["imports"]
    out.append((
        "`import spingate` (`scipy.special` alone)",
        f"{_ms(statistics.median(imports['spingate']))} "
        f"({_ms(statistics.median(imports['scipy_special']))})",
    ))
    out.append((
        "CLI: `gate-sweep` / `rep-sweep` / `joint-opt` (grid-sweep)",
        " / ".join(f"{_wall(grid, c):.2f}" for c in ("gate-sweep", "rep-sweep", "joint-opt"))
        + " s",
    ))
    out.append((
        f"CLI: `hw-sim --integration {wl.HW_INTEGRATION:g}` ({write_rows} rows, events)",
        f"{_wall(events, 'hw-sim'):.2f} s",
    ))
    others = [_wall(irf, c) for c in ("simulate", "mc")] + [_wall(events, "mc")]
    others += [_wall(readout, c) for c in ("odmr-fit", "gate-apply", "snr-map", "odmr-synth")]
    out.append(("CLI: every other subcommand (irf-sweep, events, readout)",
                f"{min(others):.2f}–{max(others):.2f} s"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)
    records = {}
    try:
        for name in run.WORKLOADS:
            _, records[name] = run.measure(name, args.seed, args.seconds, trace=True)
    except run.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    failures = [f for r in records.values() for f in r["failures"]]
    env = records["irf-sweep"]["environment"]
    print(f"Python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['nproc']} cores, seed {args.seed}, commit {env['git_commit']}")
    print()
    print("| path | time |")
    print("|---|---|")
    for label, value in rows(records):
        print(f"| {label} | {value} |")
    for failure in failures:
        print(f"failure: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
