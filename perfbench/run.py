"""Benchmark of the spingate command line, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload irf-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run writes the workload's configs and seeded inputs under .perfbench/,
then repeats the workload's command sequence for --seconds (at least two
passes). Every command is a fresh `spingate` interpreter started from src/,
so import cost is included; outputs are checked after each command, outside
the timed region, and must be byte-identical across passes.

A fixed reference job runs before the first command and after every
command: a fresh interpreter that imports numpy and scipy.special and runs
a fixed Python and numpy loop, without spingate. On a shared host the
speed of the same code drifts by tens of percent from minute to minute,
and the drift moves the reference job and the commands of the same run
alike, so their ratio stays put while either time alone does not.

--trace 0 reports the end-to-end metrics:

* wall_ref: what one pass costs in reference jobs (unit "ref"). Each
  command run's wall time is divided by the mean wall time of the two
  reference jobs around it; the per-command medians over passes are summed;
* cpu_ref: the same for user+sys CPU time, from wait4 rusage;
* peak_rss_mb: the largest per-command median of ru_maxrss;
* setup_s: median wall time of fresh-interpreter `spingate --version` runs,
  interpreter start plus import.

The raw median pass wall_s and cpu_s, the reference job's median ref_s and
fail_frac are printed beside them and kept in the record.
--trace 1 additionally runs the sequence in this process through
spingate.cli.main, once untraced and once with tracer.Tracer installed,
and reports per-layer metrics; end-to-end numbers never come from the
traced run. BLAS runs single-threaded, so that figures do not depend on
what else shares the cores and outputs do not depend on the thread count.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it print every metric by
name and unit, and fail_frac (failed / attempted). The full record
(environment, seed, quartiles, work sizes, per-command trace) is written
to .perfbench/result-<workload>-<seed>-<trace>.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

# Single-threaded BLAS, here and in every child: odmr-fit's output changes in
# its last digits with the BLAS thread count, and the in-process runs must
# write the same bytes as the subprocess runs. Set before numpy is imported.
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import checks  # noqa: E402  (imports numpy)
import workloads as wl  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
ENTRY = "import sys; from spingate.cli import main; sys.exit(main())"
IMPORT_PROBE = "import time; t = time.perf_counter(); import {0}; print(time.perf_counter() - t)"
# The reference job: the kind of work a spingate command does (interpreter
# start, the numpy and scipy.special imports, an interpreted loop, array
# arithmetic), with none of spingate's code, so no program change moves it.
REFERENCE_JOB = (
    "import numpy as np, scipy.special\n"
    "s = 0\n"
    "for i in range(400000):\n"
    "    s += i * i % 7\n"
    "a = np.arange(200000, dtype=float)\n"
    "for _ in range(30):\n"
    "    a = np.sqrt(a * a + 1.0)\n"
)

WORKLOADS = ("irf-sweep", "grid-sweep", "events", "readout")
COMMANDS = (
    "gate-sweep", "rep-sweep", "joint-opt", "simulate", "mc",
    "hw-sim", "odmr-fit", "gate-apply", "snr-map", "odmr-synth",
)
MIN_PASSES = 2
SETUP_PROBES = 5
IMPORT_PROBES = 3
COMMAND_TIMEOUT = 120.0  # s

END_TO_END_UNITS = {"wall_ref": "ref", "cpu_ref": "ref", "peak_rss_mb": "MB", "setup_s": "s"}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no sources, spingate does not start)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONSTARTUP", None)
    return env


@dataclass
class Exit:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    timed_out: bool


def spawn(args: list, cwd: str, log_path: str) -> Exit:
    """Run `python3 <args>` to completion; resource usage from wait4."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=cwd, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
        )
    timer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(
        code=proc.returncode,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        timed_out=proc.returncode == -signal.SIGKILL and wall >= COMMAND_TIMEOUT,
    )


def _log_tail(path: str) -> str:
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        lines = handle.read().strip().splitlines()
    return lines[-1] if lines else ""


def _probe(code: str, cwd: str) -> tuple[Exit, str]:
    log = os.path.join(cwd, "probe.log")
    result = spawn(["-c", code], cwd, log)
    with open(log, "r", encoding="utf-8", errors="replace") as handle:
        return result, handle.read().strip()


def check_sources(cwd: str) -> None:
    """Fail unless spingate imports from this checkout's src/ (also compiles bytecode)."""
    result, out = _probe("import spingate.cli; print(spingate.cli.__file__)", cwd)
    if result.code != 0 or not out.startswith(SRC + os.sep):
        raise SetupError(f"spingate does not import from {SRC}: {out[-500:]}")


def setup_probes(cwd: str) -> list[float]:
    walls = []
    for _ in range(SETUP_PROBES):
        result = spawn(["-c", ENTRY, "--version"], cwd, os.path.join(cwd, "probe.log"))
        if result.code != 0:
            raise SetupError(f"spingate --version failed: {_log_tail(os.path.join(cwd, 'probe.log'))}")
        walls.append(result.wall)
    return walls


def import_probes(cwd: str) -> dict:
    times = {}
    for label, module in (("numpy", "numpy"), ("scipy_special", "scipy.special"),
                          ("spingate", "spingate")):
        samples = []
        for _ in range(IMPORT_PROBES):
            result, out = _probe(IMPORT_PROBE.format(module), cwd)
            if result.code != 0:
                raise SetupError(f"import {module} failed: {out[-500:]}")
            samples.append(float(out.splitlines()[-1]))
        times[label] = samples
    return times


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class Outcome:
    """Checked outputs of one workload: a digest and verdict per command."""

    reference: dict
    digests: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, command: wl.Command, workdir: str, error: str | None) -> None:
        """Count a finished command, checking its output unless it already failed."""
        self.attempted += 1
        path = os.path.join(workdir, command.out)
        if error is None and not os.path.isfile(path):
            error = "exit 0 but no output file"
        if error is None:
            digest = _sha256(path)
            if command.name not in self.digests:
                self.digests[command.name] = digest
                self.verdicts[command.name] = checks.validate(command, workdir, self.reference)
            verdict = self.verdicts[command.name]
            if digest != self.digests[command.name]:
                error = "output differs from the first run with this seed"
            elif not verdict.ok:
                error = f"rejected: {verdict.message}"
        if error is not None:
            self.failures.append(f"{command.name}: {error}")


def _clear_output(workdir: str, command: wl.Command) -> None:
    path = os.path.join(workdir, command.out)
    if os.path.exists(path):
        os.unlink(path)


def reference_job(workdir: str) -> Exit:
    log = os.path.join(workdir, "reference.log")
    result = spawn(["-c", REFERENCE_JOB], workdir, log)
    if result.code != 0:
        raise SetupError(f"the reference job failed: {_log_tail(log)}")
    return result


def run_pass(workload: wl.Workload, workdir: str, outcome: Outcome, refs: list) -> dict:
    """Run each command once, each followed by a reference job (appended to refs)."""
    runs = {}
    for command in workload.commands:
        _clear_output(workdir, command)
        log = os.path.join(workdir, f"{command.name}.log")
        result = spawn(["-c", ENTRY, *command.full_argv], workdir, log)
        error = None
        if result.timed_out:
            error = f"timed out after {COMMAND_TIMEOUT:g} s"
        elif result.code != 0:
            error = f"exit {result.code}: {_log_tail(log)}"
        outcome.record(command, workdir, error)
        runs[command.name] = result
        refs.append(reference_job(workdir))
    return runs


def in_process_pass(workload, workdir, outcome, cli_main, tracer=None) -> float:
    """Run the sequence through spingate.cli.main here; returns its wall time."""
    total = 0.0
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for command in workload.commands:
            _clear_output(workdir, command)
            gc.collect()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = cli_main(command.full_argv)
                else:
                    code = tracer.command(command.name, cli_main, command.full_argv)
            except Exception as exc:  # a crash counts as a failed command
                code = f"raised {exc!r}"
            total += time.perf_counter() - t0
            outcome.record(command, workdir, None if code == 0 else f"in-process exit {code}")
    finally:
        os.chdir(cwd)
    return total


def load_cli():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import spingate.cli

    if not os.path.abspath(spingate.cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"spingate.cli imported from {spingate.cli.__file__}, not {SRC}")
    return spingate.cli.main


def quartiles(values: list) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), "r", encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "blas_threads": 1,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: dict, command_walls: dict, imports: dict,
                  overhead: float) -> dict:
    """Per-layer metrics from a traced summary; unused layers read 0."""
    names = summary["by_name"]
    counters = summary["counters"]

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def self_s(*span_names):
        return sum(names.get(n, {}).get("self_s", 0.0) for n in span_names)

    def layer_self(prefix):
        return sum(v["self_s"] for k, v in names.items() if k.startswith(prefix + "."))

    evals = counters.get("quadrature.integrand_evals", 0)
    grid_points = counters.get("sweep.grid_points", 0)
    events = counters.get("acquisition.events", 0)
    write_rows = counters.get("report.write.rows", 0)
    read_rows = counters.get("report.read.rows", 0)
    write_s = self_s("report.write_report", "report.write_histogram")
    read_s = self_s("report.read_report", "report.read_histogram")
    simulate_total = names.get("acquisition.simulate_events", {}).get("total_s", 0.0)
    sweep_gate_total = names.get("sweep.sweep_gate", {}).get("total_s", 0.0)
    m = {
        "quadrature.adaptive_simpson.calls": (calls("quadrature.adaptive_simpson"), "count"),
        "quadrature.integrand_evals": (evals, "count"),
        "quadrature.self_s": (self_s("quadrature.adaptive_simpson"), "s"),
        "quadrature.us_per_eval": (1e6 * _ratio(self_s("quadrature.adaptive_simpson"), evals), "us"),
        "decay.steady_rate.calls": (calls("decay.steady_rate"), "count"),
        "decay.steady_rate.self_s": (self_s("decay.steady_rate"), "s"),
        "decay.gated_counts.calls": (calls("decay.gated_counts"), "count"),
        "decay.gated_counts.self_s": (self_s("decay.gated_counts"), "s"),
        "decay.histogram_expectation.calls": (calls("decay.histogram_expectation"), "count"),
        "decay.histogram_expectation.self_s": (self_s("decay.histogram_expectation"), "s"),
        "decay.self_s": (layer_self("decay"), "s"),
        "sweep.sweep_gate.calls": (calls("sweep.sweep_gate"), "count"),
        "sweep.self_s": (layer_self("sweep"), "s"),
        "sweep.grid_points": (grid_points, "count"),
        "sweep.useful_ratio": (_ratio(summary["distinct_sweep_points"], grid_points), "ratio"),
        "sweep.s_per_point": (_ratio(sweep_gate_total, grid_points), "s"),
        "acquisition.simulate_events.self_s": (self_s("acquisition.simulate_events"), "s"),
        "acquisition.events": (events, "count"),
        "acquisition.events_per_s": (_ratio(events, simulate_total), "1/s"),
        "acquisition.simulate_events.alloc_peak_mb": (summary["alloc_peak_bytes"] / 2**20, "MB"),
        "acquisition.gate.self_s": (self_s("acquisition.hw_gate", "acquisition.offline_gate"), "s"),
        "acquisition.keep_ratio": (
            _ratio(counters.get("acquisition.gate_kept", 0), counters.get("acquisition.gate_in", 0)),
            "ratio",
        ),
        "acquisition.mc_snr_distribution.self_s": (self_s("acquisition.mc_snr_distribution"), "s"),
        "acquisition.sample_histogram.calls": (calls("acquisition.sample_histogram"), "count"),
        "report.write.self_s": (write_s, "s"),
        "report.write.rows": (write_rows, "count"),
        "report.write.bytes": (counters.get("report.write.bytes", 0), "B"),
        "report.write.us_per_row": (1e6 * _ratio(write_s, write_rows), "us"),
        "report.read.self_s": (read_s, "s"),
        "report.read.rows": (read_rows, "count"),
        "report.read.us_per_row": (1e6 * _ratio(read_s, read_rows), "us"),
        "odmr.fit_double_lorentzian.self_s": (self_s("odmr.fit_double_lorentzian"), "s"),
        "odmr.synth_odmr.self_s": (self_s("odmr.synth_odmr"), "s"),
        "mapping.snr_map.self_s": (self_s("mapping.snr_map"), "s"),
        "mapping.pixels_out": (counters.get("mapping.pixels_out", 0), "count"),
        "config.load_config.self_s": (self_s("config.load_config"), "s"),
        "cli.self_s": (layer_self("cli"), "s"),
    }
    for name in COMMANDS:
        walls = command_walls.get(name)
        m[f"cli.{name}.wall_s"] = (statistics.median(walls) if walls else 0.0, "s")
    for label, samples in imports.items():
        m[f"import.{label}_s"] = (statistics.median(samples), "s")
    m["trace.overhead_s"] = (overhead, "s")
    return m


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full record)."""
    if not os.path.isfile(os.path.join(SRC, "spingate", "cli.py")):
        raise SetupError(f"no spingate sources under {SRC}")
    workload = wl.build(name, seed)
    workdir = os.path.join(WORK, name)
    shutil.rmtree(workdir, ignore_errors=True)
    wl.write_files(workload, workdir)
    check_sources(workdir)
    setup = setup_probes(workdir)

    outcome = Outcome(reference=checks.load_reference())
    start = time.perf_counter()
    if trace:
        # In-process runs first, so that the subprocess passes fill the rest
        # of the time budget.
        from tracer import Tracer

        imports = import_probes(workdir)
        cli_main = load_cli()
        untraced = in_process_pass(workload, workdir, outcome, cli_main)
        tracer = Tracer()
        tracer.install()
        try:
            traced = in_process_pass(workload, workdir, outcome, cli_main, tracer)
        finally:
            tracer.uninstall()

    refs = [reference_job(workdir)]
    passes = []
    loop_start = time.perf_counter()

    def another_pass_fits() -> bool:
        now = time.perf_counter()
        return now - start + (now - loop_start) / len(passes) <= seconds

    while len(passes) < MIN_PASSES or another_pass_fits():
        passes.append(run_pass(workload, workdir, outcome, refs))

    samples = {c.name: [p[c.name] for p in passes] for c in workload.commands}
    pass_wall = [sum(r.wall for r in p.values()) for p in passes]
    pass_cpu = [sum(r.cpu for r in p.values()) for p in passes]
    ref_wall = [r.wall for r in refs]
    ref_cpu = [r.cpu for r in refs]
    # Each command run against the reference jobs just before and after it
    # (refs[k] and refs[k + 1] for the k-th command run).
    wall_ratios = {c.name: [] for c in workload.commands}
    cpu_ratios = {c.name: [] for c in workload.commands}
    k = 0
    for runs in passes:
        for command in workload.commands:
            result, before, after = runs[command.name], refs[k], refs[k + 1]
            wall_ratios[command.name].append(2 * result.wall / (before.wall + after.wall))
            cpu_ratios[command.name].append(2 * result.cpu / (before.cpu + after.cpu))
            k += 1
    stats = {
        "wall_ref": sum(statistics.median(v) for v in wall_ratios.values()),
        "cpu_ref": sum(statistics.median(v) for v in cpu_ratios.values()),
        "peak_rss_mb": max(statistics.median(r.rss_mb for r in s) for s in samples.values()),
        "setup_s": statistics.median(setup),
    }
    per_command = {
        name: {
            "wall_s": quartiles([r.wall for r in runs]),
            "cpu_s": quartiles([r.cpu for r in runs]),
            "wall_ref": quartiles(wall_ratios[name]),
            "cpu_ref": quartiles(cpu_ratios[name]),
            "rss_mb": quartiles([r.rss_mb for r in runs]),
            "work": outcome.verdicts[name].work if name in outcome.verdicts else {},
        }
        for name, runs in samples.items()
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "passes": len(passes),
        "end_to_end": stats,
        "pass_wall_s": quartiles(pass_wall),
        "pass_cpu_s": quartiles(pass_cpu),
        "reference_wall_s": quartiles(ref_wall),
        "reference_cpu_s": quartiles(ref_cpu),
        "setup_runs_s": quartiles(setup),
        "commands": per_command,
        "runs": [{n: vars(r) for n, r in p.items()} for p in passes],
        "reference_runs": [vars(r) for r in refs],
    }

    if trace:
        summary = tracer.summary()
        command_walls = {n: [r.wall for r in runs] for n, runs in samples.items()}
        metrics = layer_metrics(summary, command_walls, imports, traced - untraced)
        record["imports"] = imports
        record["in_process"] = {"untraced_s": untraced, "traced_s": traced}
        record["spans"] = summary
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in stats.items()}

    record["attempted"] = outcome.attempted
    record["failed"] = len(outcome.failures)
    record["failures"] = outcome.failures
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    line = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": record["metrics"],
    }
    path = os.path.join(WORK, f"result-{name}-{seed}-{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return line, record


def print_summary(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  passes {record['passes']}")
    for key, entry in record["metrics"].items():
        print(f"  {key:44s} {entry['value']:.6g} {entry['unit']}")
    for key, label in (("wall_s", "pass_wall_s"), ("cpu_s", "pass_cpu_s"),
                       ("ref_s", "reference_wall_s"), ("setup_s", "setup_runs_s")):
        q = record[label]
        print(f"  {key:44s} {q['median']:.6g} s  (median of {q['n']}, "
              f"q1 {q['q1']:.4f}, q3 {q['q3']:.4f})")
    fail_frac = record["failed"] / record["attempted"]
    print(f"  {'fail_frac':44s} {fail_frac:.6g} ratio  ({record['failed']} of {record['attempted']})")
    for failure in record["failures"][:10]:
        print(f"  failure: {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    try:
        for name in names:
            line, record = measure(name, args.seed, args.seconds, bool(args.trace))
            print_summary(record)
            lines.append(line)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
