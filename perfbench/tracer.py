"""Spans and work counters recorded around spingate's public functions.

The tracer wraps functions from outside the program: every module attribute
under ``spingate`` that is bound to a traced function is replaced by a
wrapper, so each caller's own lookup (``sweep.steady_rate``,
``decay.adaptive_simpson``, ``cli.write_report``, ...) goes through it.
Each call records a span (name, start, end, parent); a span's self time is
its duration minus that of its direct children. Spans stay in memory and
are summarised when the run ends.

Quadrature integrand evaluations are counted by wrapping the integrand that
``decay`` hands to ``adaptive_simpson``. ``simulate_events`` runs under
tracemalloc to record its peak allocation.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

# Traced functions by defining module; span names are "<module>.<function>".
TRACED = {
    "quadrature": ("adaptive_simpson",),
    "decay": ("steady_rate", "gated_counts", "histogram_expectation"),
    "sweep": ("sweep_gate", "sweep_rep_rate", "joint_optimum"),
    "acquisition": (
        "simulate_events",
        "hw_gate",
        "offline_gate",
        "mc_snr_distribution",
        "sample_histogram",
    ),
    "odmr": ("fit_double_lorentzian", "synth_odmr"),
    "mapping": ("snr_map",),
    "report": ("write_report", "write_histogram", "read_report", "read_histogram"),
    "config": ("load_config",),
}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self.counters: Counter = Counter()
        self.command_counters: dict[str, dict] = {}
        self.alloc_peak_bytes = 0
        self._points: dict[int, set] = defaultdict(set)  # root span -> (rate, onset)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = t0
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def command(self, name: str, fn, argv) -> int:
        """Run one CLI command as a root span named cli.<name>."""
        before = Counter(self.counters)
        try:
            return self._wrap(f"cli.{name}", fn)(argv)
        finally:
            self.command_counters[f"cli.{name}"] = dict(self.counters - before)

    def _count_integrand(self, simpson):
        counters = self.counters

        def counting(f, *args, **kwargs):
            def counted(t):
                counters["quadrature.integrand_evals"] += 1
                return f(t)

            return simpson(counted, *args, **kwargs)

        return counting

    def _alloc_peak(self, fn):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.alloc_peak_bytes = max(self.alloc_peak_bytes, peak)

        return measured

    # -- observers: work counts read from arguments and results ------------

    def _after_sweep_gate(self, args, kwargs, result):
        grid = result.tau_c_grid
        self.counters["sweep.grid_points"] += int(grid.size)
        rate = _arg(args, kwargs, 1, "train").rep_rate
        self._points[self._stack[1]].update((rate, x) for x in grid.tolist())

    def _after_simulate_events(self, args, kwargs, result):
        self.counters["acquisition.events"] += len(result)

    def _after_hw_gate(self, args, kwargs, result):
        self.counters["acquisition.gate_in"] += len(_arg(args, kwargs, 0, "events"))
        self.counters["acquisition.gate_kept"] += len(result)

    def _after_write(self, rows):
        def after(args, kwargs, result):
            self.counters["report.write.rows"] += rows(args)
            self.counters["report.write.bytes"] += os.path.getsize(args[0])

        return after

    def _after_read(self, rows):
        def after(args, kwargs, result):
            self.counters["report.read.rows"] += rows(result)
            self.counters["report.read.bytes"] += os.path.getsize(args[0])

        return after

    def _after_snr_map(self, args, kwargs, result):
        self.counters["mapping.pixels_out"] += int(result.values.size)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Replace every spingate binding of a traced function by its wrapper."""
        observers = {
            "sweep.sweep_gate": self._after_sweep_gate,
            "acquisition.simulate_events": self._after_simulate_events,
            "acquisition.hw_gate": self._after_hw_gate,
            "report.write_report": self._after_write(lambda a: len(a[1].rows)),
            "report.write_histogram": self._after_write(lambda a: a[1].n_bins),
            "report.read_report": self._after_read(lambda r: len(r.rows)),
            "report.read_histogram": self._after_read(lambda r: r.n_bins),
            "mapping.snr_map": self._after_snr_map,
        }
        replacements = {}
        for module_name, functions in TRACED.items():
            module = sys.modules[f"spingate.{module_name}"]
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                original = getattr(module, fn_name)
                inner = original
                if name == "quadrature.adaptive_simpson":
                    inner = self._count_integrand(original)
                elif name == "acquisition.simulate_events":
                    inner = self._alloc_peak(original)
                replacements[id(original)] = self._wrap(name, inner, observers.get(name))
        for module_name, module in list(sys.modules.items()):
            if module_name != "spingate" and not module_name.startswith("spingate."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in replacements:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, replacements[id(value)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        """Calls, inclusive and self seconds by span name, overall and per command."""
        n = len(self.names)
        duration = [self.ends[i] - self.starts[i] for i in range(n)]
        children = [0.0] * n
        root = list(range(n))
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                children[parent] += duration[i]
                root[i] = root[parent]
        by_name: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        by_command: dict = defaultdict(
            lambda: defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        )
        for i in range(n):
            for entry in (by_name[self.names[i]], by_command[self.names[root[i]]][self.names[i]]):
                entry["calls"] += 1
                entry["total_s"] += duration[i]
                entry["self_s"] += duration[i] - children[i]
        distinct = sum(len(points) for points in self._points.values())
        return {
            "spans": n,
            "by_name": {k: dict(v) for k, v in by_name.items()},
            "by_command": {c: {k: dict(v) for k, v in d.items()} for c, d in by_command.items()},
            "counters": dict(self.counters),
            "counters_by_command": self.command_counters,
            "distinct_sweep_points": distinct,
            "alloc_peak_bytes": self.alloc_peak_bytes,
        }
