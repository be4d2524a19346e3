"""Benchmark of abpsim: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: identity_sweep, loaded_simulate, table_coverage (see NOTES.md).
Set-up is timed in SETUP_REPEATS fresh interpreters (import abpsim.cli, then
build the inputs); the workload then runs in one more fresh child process.
Prints every metric by name with its unit, a provenance line, and as the
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Exits 1 without a result if a child fails, 2 if the source tree is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("identity_sweep", "loaded_simulate", "table_coverage")
SETUP_REPEATS = 7
# A run must end within 180 s; the children share what is left of it.
RUN_LIMIT_S = 170

# Host metrics are times, rates and memory of this machine; simulated ones
# are exact properties of the modelled run; the rest are exact counts of
# the program's work.
HOST_UNITS = ("s", "ms", "us", "MB", "1/s")
SIMULATED = ("runtime.slots", "runtime.busy_slot_ratio", "abp.oracle_draws", "abp.resends",
             "abp.drop_ratio", "abp.delivery_latency_slots_p50",
             "abp.delivery_latency_slots_p99")


def metric_kind(name, unit):
    if unit in HOST_UNITS or name.endswith("overhead_ratio"):
        return "host"
    return "simulated" if name in SIMULATED else "count"


def _metric_units():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _git(*args):
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args, samples, units):
    status = _git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_revision": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
        "metric_kinds": {name: metric_kind(name, unit) for name, unit in units.items()},
        "clock": "time.perf_counter",
    }


def _child(mode, args, workdir, deadline):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    command = [sys.executable, str(HERE / "workloads.py"), mode,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir)]
    if args.tiny:
        command.append("--tiny")
    workdir.mkdir(parents=True, exist_ok=True)
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{mode} child exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description="abpsim benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "abpsim" / "__init__.py").is_file():
        print(f"error: no abpsim source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units = _metric_units()
    deadline = time.monotonic() + RUN_LIMIT_S
    scratch = ROOT / ".perfbench-work"
    workdir = scratch / f"run-{os.getpid()}"
    try:
        setups = [] if args.trace else [
            _child("setup", args, workdir / f"setup-{i}", deadline)
            for i in range(SETUP_REPEATS)]
        result = _child("run", args, workdir / "run", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    metrics = result["metrics"]
    samples = dict(result["samples"])
    if args.trace:
        units = per_layer_units
    else:
        units = end_to_end_units
        metrics["setup_s"] = statistics.median(s["import_s"] + s["build_s"] for s in setups)
        samples["setup"] = len(setups)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: the run reported no {', '.join(missing)}", file=sys.stderr)
        return 1

    for name, unit in units.items():
        print(f"{args.workload:16s} {name:36s} {metrics[name]:>16.6g} {unit:8s} "
              f"{metric_kind(name, unit)}")
    print(f"{args.workload:16s} {'fail_ratio':36s} "
          f"{result['failed'] / max(1, result['attempted']):>16.6g} "
          f"{result['failed']} failed of {result['attempted']} operations")
    print(json.dumps({"provenance": provenance(args, samples, units)}, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
