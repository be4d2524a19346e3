"""Checks that the contention probe's scale neither biases nor absorbs cost.

    python3 perfbench/probe_check.py uncontended [--seconds 45]
    python3 perfbench/probe_check.py heavier [--seconds 240]

``uncontended`` runs the tiny input of each workload, and a spin of the
probe's own loop, for S seconds each.  It prints, per workload, the median
scaled repetition time and the median raw time of the repetitions that ran
on an uncontended core (probe slowdown below UNCONTENDED_SLOWDOWN).  If the
scale is unbiased the two are about equal.

``heavier`` alternates the full-size loaded_simulate repetition with a
variant that also builds and holds 600,000 tuples during the CLI call, in
one process.  It prints the variant's time over the base's, raw and scaled.
If the workload's heap and cache footprint leave the probe alone, the two
ratios are about equal.

Run from the repository root with the abpsim source tree under src/.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

TMP_PREFIX = ".perfbench-tmp-"
HEAVIER_TUPLES = 600_000


class _Spin:
    input_count = 1

    def rep(self, key):
        start = perf_counter()
        for _ in range(2000):
            workloads._probe_loop()
        return (perf_counter() - start,)

    def finish(self):
        return 0, 0


def _repeat(probe, seconds, step):
    """Call step(k) for `seconds`; (raw seconds, scale, slowdown) per call."""
    rows, k = [], 0
    end = perf_counter() + seconds
    while perf_counter() < end:
        before = perf_counter()
        elapsed = step(k)
        after = perf_counter()
        rows.append((elapsed, probe.scale(before, after), probe.slowdown(before, after)))
        k += 1
    return rows


def uncontended(seconds):
    for name in ("probe_loop",) + workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=TMP_PREFIX) as workdir:
            workload = _Spin() if name == "probe_loop" else \
                workloads.make_workload(name, 0, workdir, tiny=True)
            gc.collect()
            with workloads.ContentionProbe() as probe:
                rows = _repeat(probe, seconds,
                               lambda k: workload.rep(k % workload.input_count)[0])
            failed = workload.finish()[1]
        calm = [raw for raw, _, slowdown in rows if slowdown < workloads.UNCONTENDED_SLOWDOWN]
        scaled = statistics.median(raw * scale for raw, scale, _ in rows)
        print(json.dumps({
            "workload": name, "repetitions": len(rows), "failed": failed,
            "raw_median_s": statistics.median(raw for raw, _, _ in rows),
            "scaled_median_s": scaled,
            "uncontended_repetitions": len(calm),
            "uncontended_raw_median_s": statistics.median(calm) if calm else None,
            "scaled_over_uncontended_raw": scaled / statistics.median(calm) if calm else None,
        }), flush=True)


def heavier(seconds):
    from abpsim import cli

    run = cli.run

    def heavier_run(argv):
        held = [(i, str(i)) for i in range(HEAVIER_TUPLES)]
        try:
            return run(argv)
        finally:
            del held

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=TMP_PREFIX) as workdir:
        workload = workloads.make_workload("loaded_simulate", 0, workdir, tiny=False)

        def step(k):
            cli.run = heavier_run if k % 2 else run
            try:
                return workload.rep(0)[0]
            finally:
                cli.run = run

        gc.collect()
        with workloads.ContentionProbe() as probe:
            rows = _repeat(probe, seconds, step)
        failed = workload.finish()[1]
    result = {"repetitions": len(rows), "failed": failed}
    for variant, part in (("base", rows[0::2]), ("heavier", rows[1::2])):
        result[variant] = {
            "raw_median_s": statistics.median(raw for raw, _, _ in part),
            "scaled_median_s": statistics.median(raw * scale for raw, scale, _ in part),
            "slowdown_median": statistics.median(slowdown for _, _, slowdown in part),
        }
    for kind in ("raw", "scaled"):
        result[f"{kind}_ratio"] = (result["heavier"][f"{kind}_median_s"]
                                   / result["base"][f"{kind}_median_s"])
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", choices=("uncontended", "heavier"))
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    if args.check == "uncontended":
        uncontended(args.seconds or 45)
    else:
        heavier(args.seconds or 240)
    return 0


if __name__ == "__main__":
    sys.exit(main())
