"""Write reference.json: the sweep outputs the validators compare against.

The reference freezes the SNR columns and optimum indices of every sweep
command in the irf-sweep and grid-sweep workloads as spingate computed them
when the benchmark was defined. Regenerate it only for a deliberate change
of the physics, never to make a failing output pass:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import run
import workloads as wl


def extract(table: checks.Table, step: float) -> dict:
    if "snr" in table.columns:
        snr = table.col("snr")
        return {
            "tau_c_ns": table.col("tau_c_ns").tolist(),
            "snr": snr.tolist(),
            "optimum": int(snr.argmax()),
        }
    entry = {
        "rate_hz": table.col("rate_hz").tolist(),
        "snr_ungated": table.col("snr_ungated").tolist(),
        "snr_gated": table.col("snr_gated").tolist(),
        "tau_c_opt_index": [round(v / step) for v in table.col("tau_c_opt_ns")],
    }
    if "optimal_rate_hz" in table.meta:
        entry["optimal_tau_c_index"] = round(table.num("optimal_tau_c_ns") / step)
        entry["optimal_rate_hz"] = table.num("optimal_rate_hz")
    return entry


def main() -> int:
    reference = {}
    for name in ("irf-sweep", "grid-sweep"):
        workload = wl.build(name, 0)
        workdir = os.path.join(run.WORK, "reference", name)
        shutil.rmtree(workdir, ignore_errors=True)
        wl.write_files(workload, workdir)
        for command in workload.commands:
            if command.check != "sweep":
                continue
            log = os.path.join(workdir, f"{command.name}.log")
            result = run.spawn(["-c", run.ENTRY, *command.full_argv], workdir, log)
            if result.code != 0:
                print(f"{name} {command.name} failed: {run._log_tail(log)}", file=sys.stderr)
                return 1
            table = checks.Table(os.path.join(workdir, command.out))
            reference[command.params["key"]] = extract(table, command.params["step"])
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
