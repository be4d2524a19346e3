"""Child process of the benchmark: one workload in a fresh interpreter.

    python3 perfbench/workloads.py setup --workload W --seed N --workdir DIR
    python3 perfbench/workloads.py run --workload W --seed N --seconds S \
        --trace 0|1 --workdir DIR [--tiny]
    python3 perfbench/workloads.py calibrate --seconds S

``setup`` times ``import abpsim.cli`` and the building of the workload's
inputs.  ``run`` builds the inputs, repeats the workload's timed phase for
S seconds, checks every output against the independent reference, and
prints one JSON object: operation counts, end-to-end metrics (untraced) or
per-layer metrics (traced).  ``calibrate`` times the contention probe
while the main thread spins, which is how PROBE_REFERENCE_S was found.
``abpsim`` must be importable (run.py puts ``src`` on PYTHONPATH).  Spans
are recorded only here, around the calls the benchmark makes into each
module; nothing inside ``abpsim`` is touched.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import threading
import traceback
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import inputs
from reference import simulate_abp

WORKLOADS = ("identity_sweep", "loaded_simulate", "table_coverage")
MIN_REPETITIONS = 3
IDLE_PROBE_SLOTS = 5000
# ContentionProbe: sampling period, the shortest window a repetition's
# scale is taken over, and the probe loop's time on an uncontended core of
# the reference machine (2-core Xeon, Python 3.11.7), as ``calibrate``
# measures it.  The last only sets the unit of the normalised times.
PROBE_PERIOD_S = 0.005
PROBE_MIN_WINDOW_S = 0.05
PROBE_REFERENCE_S = 20.5e-6
# A repetition whose probe slowdown is below this ran on an uncontended core.
UNCONTENDED_SLOWDOWN = 1.1

# sha256 of the canonical `wires` section that `simulate --format json`
# writes for the full-size loaded scenario of seed 0.  The wires are also
# compared with the reference simulation on every seed; the pin additionally
# fixes their exact order and rendering.
PINNED_WIRES_SHA256 = {0: "28047ebc10f9c86c68f971fc656388f04371d262ebb25ffb178acce4c86a35cd"}


class Tracer:
    """Spans kept in memory as [name, parent index, start, end].  With a
    ``scale(start, end)`` (ContentionProbe.scale), ``length`` and ``total``
    report reference seconds; ``self_times`` stays in host seconds."""

    def __init__(self, scale=None):
        self.spans = []
        self._open = []
        self.scale = scale

    def begin(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, parent, perf_counter(), None])
        self._open.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._open.pop()][3] = perf_counter()

    @contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def add(self, name, start, end):
        """A closed span under the innermost open one."""
        self.spans.append([name, self._open[-1] if self._open else None, start, end])

    def length(self, start, end):
        return (end - start) * (self.scale(start, end) if self.scale else 1.0)

    def total(self, name):
        return sum(self.length(start, end)
                   for span_name, _, start, end in self.spans if span_name == name)

    def count(self, name):
        return sum(1 for span in self.spans if span[0] == name)

    def self_times(self):
        """Per span name: duration minus the time its child spans cover."""
        covered = defaultdict(float)
        for _, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        result = defaultdict(float)
        for index, (name, _, start, end) in enumerate(self.spans):
            result[name] += end - start - covered[index]
        return dict(result)

    def root_time(self):
        return sum(end - start for _, parent, start, end in self.spans if parent is None)


def _report_exception(where):
    print(f"{where}: {traceback.format_exc()}", file=sys.stderr)


def _file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def wires_digest(wires) -> str:
    canonical = json.dumps(wires, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------- workloads


class IdentitySweep:
    """Closed loop, one caller: check_identity on each scenario of a block."""

    name = "identity_sweep"

    def __init__(self, seed, workdir, tiny):
        if tiny:
            self.blocks = inputs.sweep_blocks(seed, inputs.TINY["blocks"],
                                              inputs.TINY["block_slots"])
        else:
            self.blocks = inputs.sweep_blocks(seed)

    @property
    def input_count(self):
        return len(self.blocks)

    def work(self, key):
        return sum(scenario.horizon for scenario in self.blocks[key])

    def rep(self, key, tracer=None):
        """Run input `key` once: (seconds, {operation: seconds}, attempted,
        failed)."""
        from abpsim.testkit import IdentityStatus, check_identity

        block = self.blocks[key]
        durations, results = {}, []
        if tracer:
            tracer.begin(f"rep.{self.name}")
        start = perf_counter()
        for number, scenario in enumerate(block):
            t0 = perf_counter()
            try:
                results.append(check_identity(scenario))
            except Exception:
                _report_exception(f"check_identity({scenario.name})")
                results.append(None)
            t1 = perf_counter()
            durations[key, number] = t1 - t0
            if tracer:
                tracer.add("testkit.check_identity", t0, t1)
        elapsed = perf_counter() - start
        if tracer:
            tracer.end()
        failed = sum(
            1 for scenario, result in zip(block, results)
            if result is None or result.status is not IdentityStatus.PASS
            or result.actual != scenario.payloads() or result.warnings
        )
        return elapsed, durations, len(block), failed

    def finish(self):
        return 0, 0


class _CliWorkload:
    """One in-process CLI invocation per repetition.  Each output is hashed
    and must be byte-identical to the first; the first is kept on disk and
    checked in full by ``finish``, after the timed phase, so the checker's
    memory is not in the timed phase's peak."""

    input_count = 1

    def __init__(self, workdir, ops):
        self.out_path = os.path.join(workdir, f"{self.name}.out.json")
        self.first_path = os.path.join(workdir, f"{self.name}.first.json")
        self.ops = ops
        self.first = None
        self.matching = 0

    def work(self, key):
        return self.work_units

    def rep(self, key, tracer=None):
        from abpsim import cli

        if tracer:
            tracer.begin(f"rep.{self.name}")
        t0 = perf_counter()
        try:
            code = cli.run(self.argv)
        except Exception:
            _report_exception(f"cli.run({self.argv[0]})")
            code = None
        t1 = perf_counter()
        if tracer:
            tracer.add("cli.run", t0, t1)
            tracer.end()
        try:
            output = _file_digest(self.out_path)
        except OSError:
            output = None
        if self.first is None:
            self.first = (code, output)
            if output is not None:
                os.replace(self.out_path, self.first_path)
        if output is not None and (code, output) == self.first:
            self.matching += 1
            failed = 0
        else:
            failed = self.ops
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        return t1 - t0, {key: t1 - t0}, self.ops, failed

    def finish(self):
        """Check the first output in full; each repetition that repeated it
        shares its verdict.  Returns extra (attempted, failed)."""
        if not self.matching:
            return 0, 0
        with open(self.first_path, "rb") as handle:
            text = handle.read()
        os.remove(self.first_path)
        return 0, self.matching * self.check(self.first[0], text)


class LoadedSimulate(_CliWorkload):
    """`simulate` of one busy scenario with thousands of payloads."""

    name = "loaded_simulate"

    def __init__(self, seed, workdir, tiny):
        super().__init__(workdir, ops=1)
        self.seed, self.tiny = seed, tiny
        self.wires_sha256 = None
        self.doc = inputs.loaded_scenario(
            seed, inputs.TINY["payloads"] if tiny else inputs.LOADED_PAYLOADS)
        self.scenario_path = os.path.join(workdir, "scenario.json")
        inputs.write_json(self.scenario_path, self.doc)
        self.argv = ["simulate", "--scenario", self.scenario_path,
                     "--format", "json", "--out", self.out_path]
        self.work_units = self.doc["horizon"]

    def check(self, code, text):
        """1 unless the exit code is 0 and the wires equal the reference's."""
        doc = self.doc
        try:
            wires = json.loads(text)["wires"]
            actual = {wire["name"]: wire["slots"] for wire in wires}
        except (ValueError, KeyError, TypeError):
            return 1
        expected = simulate_abp(
            doc["payload_slots"], doc["horizon"],
            (doc["data_oracle"]["pass_probability"], doc["data_oracle"]["seed"]),
            (doc["ack_oracle"]["pass_probability"], doc["ack_oracle"]["seed"]),
            doc["timeout"], doc["sender_bit"], doc["receiver_bit"])
        sent = [str(p) for slot in doc["payload_slots"] for p in slot]
        delivered = [p for slot in actual.get("out", ()) for p in slot]
        self.wires_sha256 = wires_digest(wires)
        pinned = None if self.tiny else PINNED_WIRES_SHA256.get(self.seed)
        ok = (code == 0 and actual == expected and delivered == sent
              and pinned in (None, self.wires_sha256))
        return 0 if ok else 1

    def finish(self):
        """The output check, and the identity check on the same scenario:
        one more operation."""
        from abpsim.golden import load_scenario_file
        from abpsim.testkit import IdentityStatus, check_identity

        attempted, failed = super().finish()
        try:
            scenario = load_scenario_file(self.scenario_path)
            result = check_identity(scenario)
            ok = result.status is IdentityStatus.PASS and result.actual == scenario.payloads()
        except Exception:
            _report_exception("check_identity(loaded)")
            ok = False
        return attempted + 1, failed + (0 if ok else 1)


class TableCoverage(_CliWorkload):
    """`coverage` of a large generated transition table."""

    name = "table_coverage"

    def __init__(self, seed, workdir, tiny, rows=None):
        if rows is None:
            rows = inputs.table_rows(seed, inputs.TINY["rows"] if tiny else inputs.TABLE_ROWS)
        self.ids = [row["id"] for row in rows]
        super().__init__(workdir, ops=len(rows))
        self.table_path = os.path.join(workdir, "table.json")
        inputs.write_json(self.table_path, {"cases": rows})
        self.argv = ["coverage", "--tables", self.table_path, "--no-bundled",
                     "--format", "json", "--out", self.out_path]
        self.work_units = len(rows)

    def check(self, code, text):
        """Failed table cases.  A missing or extra case, incomplete coverage,
        an unclassified step or an exit code that disagrees with the verdicts
        fails every case."""
        ops = len(self.ids)
        try:
            doc = json.loads(text)
            verdicts = [v for v in doc["verdicts"] if v["kind"] == "transition"]
            ids = [v["id"] for v in verdicts]
            failed = sum(1 for v in verdicts if v["status"] != "pass")
            coverage = doc["coverage"].values()
            complete = all(not c["uncovered"] and c["unclassified"] == 0 for c in coverage)
        except (ValueError, KeyError, TypeError, AttributeError):
            return ops
        if ids != self.ids or not complete:
            return ops
        if code != (0 if failed == 0 else 1):
            return ops
        return failed


def make_workload(name, seed, workdir, tiny):
    classes = {cls.name: cls for cls in (IdentitySweep, LoadedSimulate, TableCoverage)}
    return classes[name](seed, workdir, tiny)


# -------------------------------------------------------------------- layers


def _percentile(sorted_values, p):
    """Nearest-rank percentile of a sorted list."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def _replay(tracer, name, start, delta, items):
    """Step a delta through items under one span; per-slot payload tuples."""
    from abpsim.streams import Tick

    outputs = []
    with tracer.span(name):
        state = start
        for item in items:
            state, out = delta(state, item)
            outputs.append(out)
    slots, current = [], []
    for out in outputs:
        for item in out:
            if item is Tick:
                slots.append(tuple(current))
                current = []
            else:
                current.append(item.payload)
    return slots


def _slot_items(*channels):
    """Per-slot input items: each channel's payloads wrapped by its tag
    function, in channel order, then one tick."""
    from abpsim.streams import Msg, Tick

    items = []
    for slot in zip(*(slots for slots, _ in channels)):
        for payloads, (_, wrap) in zip(slot, channels):
            items.extend(Msg(wrap(p)) for p in payloads)
        items.append(Tick)
    return items


def sim_layers(tracer, scenarios):
    """Engine, model and rendering costs over scenarios; returns metrics and
    the number of scenarios whose replayed steps disagree with the run."""
    from abpsim.abp import build_abp_network, make_sender_delta, medium_delta, \
        receiver_delta_tagged
    from abpsim.literals import format_value
    from abpsim.runtime import FromA, FromB, attach_timer, lift_timed, run_network
    from abpsim.streams import all_ticks, take_slots

    slots = busy = draws = drops = resends = steps_s = steps_m = steps_r = payloads = 0
    latencies, mismatched = [], 0
    identity = (lambda p: p)
    for scenario in scenarios:
        with tracer.span("streams.take_slots"):
            take_slots(scenario.input_stream(), scenario.horizon)
        with tracer.span("abp.build_abp_network"):
            net = build_abp_network(scenario.data_oracle, scenario.ack_oracle,
                                    timeout=scenario.timeout, sender_bit=scenario.sender_bit,
                                    receiver_bit=scenario.receiver_bit)
        with tracer.span("runtime.run_network"):
            run = run_network(net, {"input": scenario.input_stream()}, scenario.horizon)
        wires = run.slots
        horizon = scenario.horizon
        slots += horizon
        busy += sum(1 for s in range(horizon) if any(wires[w][s] for w in run.wire_order))

        sender_items = _slot_items((wires["input"], FromA), (wires["am"], FromB))
        data_items = _slot_items((wires["ds"], identity))
        ack_items = _slot_items((wires["as"], identity))
        receiver_items = _slot_items((wires["dm"], identity))
        steps_s += len(sender_items)
        steps_m += len(data_items) + len(ack_items)
        steps_r += len(receiver_items)
        ds = _replay(tracer, "abp.sender_replay", ((scenario.sender_bit, ()), -1),
                     attach_timer(make_sender_delta(scenario.timeout)), sender_items)
        medium = lift_timed(medium_delta)
        dm = _replay(tracer, "abp.medium_replay", scenario.data_oracle.cursor(), medium,
                     data_items)
        am = _replay(tracer, "abp.medium_replay", scenario.ack_oracle.cursor(), medium,
                     ack_items)
        merged = _replay(tracer, "abp.receiver_replay", scenario.receiver_bit,
                         lift_timed(receiver_delta_tagged), receiver_items)

        n_ds = sum(map(len, wires["ds"]))
        n_as = sum(map(len, wires["as"]))
        with tracer.span("abp.bit_at"):
            bits = [scenario.data_oracle.bit_at(i) for i in range(n_ds)]
            bits += [scenario.ack_oracle.bit_at(i) for i in range(n_as)]
        draws += len(bits)
        drops += bits.count(False)

        rendered = [p for w in run.wire_order for slot in wires[w] for p in slot]
        payloads += len(rendered)
        with tracer.span("literals.format_value"):
            for payload in rendered:
                format_value(payload, strict=False)

        acks = [tuple(p.payload for p in slot if isinstance(p, FromA)) for slot in merged]
        out = [tuple(p.payload for p in slot if isinstance(p, FromB)) for slot in merged]
        sent = [s for s, slot in enumerate(wires["input"]) for _ in slot]
        delivered = [s for s, slot in enumerate(wires["out"]) for _ in slot]
        if (ds != list(wires["ds"]) or dm != list(wires["dm"]) or acks != list(wires["as"])
                or out != list(wires["out"]) or am[:-1] != list(wires["am"][1:])
                or len(sent) != len(delivered)):
            mismatched += 1
        resends += n_ds - len(sent)
        latencies.extend(d - s for s, d in zip(sent, delivered))

    with tracer.span("runtime.idle_probe"):
        first = scenarios[0]
        net = build_abp_network(first.data_oracle, first.ack_oracle)
        run_network(net, {"input": all_ticks(IDLE_PROBE_SLOTS)}, IDLE_PROBE_SLOTS)

    latencies.sort()
    replay = sum(tracer.total(n) for n in
                 ("abp.sender_replay", "abp.medium_replay", "abp.receiver_replay"))
    us = 1e6
    return {
        "streams.input_slot_us": tracer.total("streams.take_slots") / slots * us,
        "abp.build_abp_network_us":
            tracer.total("abp.build_abp_network") / tracer.count("abp.build_abp_network") * us,
        "runtime.run_network_us_per_slot": tracer.total("runtime.run_network") / slots * us,
        "runtime.idle_slot_us": tracer.total("runtime.idle_probe") / IDLE_PROBE_SLOTS * us,
        "runtime.slots": slots,
        "runtime.busy_slot_ratio": busy / slots,
        "runtime.engine_overhead_ratio": 1 - replay / tracer.total("runtime.run_network"),
        "abp.sender_step_us": tracer.total("abp.sender_replay") / steps_s * us,
        "abp.medium_step_us": tracer.total("abp.medium_replay") / steps_m * us,
        "abp.receiver_step_us": tracer.total("abp.receiver_replay") / steps_r * us,
        "abp.bit_at_us": tracer.total("abp.bit_at") / draws * us,
        "abp.oracle_draws": draws,
        "literals.format_value_us": tracer.total("literals.format_value") / payloads * us,
        "abp.resends": resends,
        "abp.drop_ratio": drops / draws,
        "abp.delivery_latency_slots_p50": _percentile(latencies, 50),
        "abp.delivery_latency_slots_p99": _percentile(latencies, 99),
    }, len(scenarios), mismatched


def table_layers(tracer, table_path):
    """Table loading, literal parsing and the plain and instrumented suite;
    returns metrics and the number of cases failing the plain suite."""
    from abpsim.golden import MACHINES, load_table_file
    from abpsim.literals import parse_value
    from abpsim.testkit import instrument, trans_test

    with tracer.span("golden.load_table_file"):
        cases = load_table_file(table_path)
    with open(table_path, encoding="utf-8") as handle:
        records = json.load(handle)["cases"]
    texts = [record[key] for record in records
             for key in ("start", "input", "expectState", "expectOutputs")]
    with tracer.span("literals.parse_value"):
        for text in texts:
            parse_value(text)

    plain = {name: binding.delta for name, binding in MACHINES.items()}
    with tracer.span("testkit.trans_test"):
        verdicts = [trans_test(plain[c.machine], c.case) for c in cases]
    instrumented = {name: instrument(b.delta, b.catalog) for name, b in MACHINES.items()}
    with tracer.span("testkit.instrumented_trans_test"):
        for c in cases:
            trans_test(instrumented[c.machine][0], c.case)
    reports = [acc.report(MACHINES[name].catalog) for name, (_, acc) in instrumented.items()]
    us = 1e6
    return {
        "literals.parse_value_us": tracer.total("literals.parse_value") / len(texts) * us,
        "literals.parse_value_calls": len(texts),
        "golden.load_table_file_ms": tracer.total("golden.load_table_file") * 1e3,
        "testkit.trans_test_us": tracer.total("testkit.trans_test") / len(cases) * us,
        "testkit.instrumented_step_us":
            tracer.total("testkit.instrumented_trans_test") / len(cases) * us,
        "testkit.unclassified_steps": sum(r.unclassified for r in reports),
        "testkit.uncovered_transitions": sum(len(r.uncovered) for r in reports),
    }, len(cases), sum(1 for v in verdicts if not v.passed)


def cli_layers(tracer, scenario_path, argv, out_path):
    """CLI time beyond loading and running: fairness checks, rendering and
    JSON.  `argv` is a `simulate` of scenario_path or a `coverage` whose
    table table_layers has just loaded and run."""
    from abpsim import cli
    from abpsim.abp import build_abp_network
    from abpsim.golden import load_scenario_file
    from abpsim.runtime import run_network

    start = perf_counter()
    code = cli.run(argv)
    end = perf_counter()
    tracer.add("cli.run", start, end)
    output_bytes = os.path.getsize(out_path)
    os.remove(out_path)
    with tracer.span("golden.load_scenario_file"):
        scenario = load_scenario_file(scenario_path)
    if argv[0] == "simulate":
        with tracer.span("cli.network_part"):
            net = build_abp_network(scenario.data_oracle, scenario.ack_oracle,
                                    timeout=scenario.timeout, sender_bit=scenario.sender_bit,
                                    receiver_bit=scenario.receiver_bit)
            run_network(net, {"input": scenario.input_stream()}, scenario.horizon)
        parts = ("golden.load_scenario_file", "cli.network_part")
    else:
        parts = ("golden.load_table_file", "testkit.instrumented_trans_test")
    render = tracer.length(start, end) - sum(tracer.total(p) for p in parts)
    return {
        "golden.load_scenario_file_ms": tracer.total("golden.load_scenario_file") * 1e3,
        "cli.render_ms": render * 1e3,
        "cli.output_bytes": output_bytes,
    }, 1, 0 if code == 0 else 1


def layer_metrics(tracer, workload, seed, workdir):
    """Every per-layer metric.  A layer the workload never calls is measured
    on a tiny probe input of the workload that does call it, from the same
    seed, so every metric is a measurement on every workload."""
    probe_dir = os.path.join(workdir, "probe")
    os.makedirs(probe_dir, exist_ok=True)
    if isinstance(workload, LoadedSimulate):
        loaded = workload
    else:
        loaded = LoadedSimulate(seed, probe_dir, tiny=True)
    table = workload if isinstance(workload, TableCoverage) else \
        TableCoverage(seed, probe_dir, tiny=True)
    if isinstance(workload, IdentitySweep):
        scenarios = workload.blocks[0]
    else:
        from abpsim.golden import load_scenario_file
        scenarios = [load_scenario_file(loaded.scenario_path)]
    cli_workload = table if workload is table else loaded

    metrics, attempted, failed = {}, 0, 0
    with tracer.span("layers"):
        for part in (sim_layers(tracer, scenarios), table_layers(tracer, table.table_path),
                     cli_layers(tracer, loaded.scenario_path, cli_workload.argv,
                                cli_workload.out_path)):
            metrics.update(part[0])
            attempted += part[1]
            failed += part[2]
    return metrics, attempted, failed


# ---------------------------------------------------------------------- main


def _probe_loop():
    """About 20 µs of arithmetic whose every value is a cached small int, so
    it allocates nothing the cyclic collector tracks and can never be the
    call that sets off a collection of the workload's heap."""
    x = 0
    for _ in range(8):
        for i in range(100):
            x = (x + i) & 127
    return x


class ContentionProbe:
    """How fast this core runs Python while the workload runs.

    Other tenants of a shared machine slow a core down 1.6 to 2 times, in
    spells that come and go within milliseconds and whose share drifts over
    minutes, so raw repetition times of one input spread by 30% (NOTES.md).
    A daemon thread wakes every PROBE_PERIOD_S and, under the GIL, runs a
    ~20 µs loop once to warm the caches and once timed.  The process is
    pinned to one core first, so the probe and the workload share it.
    ``scale`` turns a repetition's host seconds into reference seconds: the
    probe's own time inside the window is taken out, and the rest is scaled
    by PROBE_REFERENCE_S over the probe's harmonic mean time in the window.
    The probe allocates nothing the collector tracks and is warmed before
    it is timed, so that the workload's heap and cache footprint move it as
    little as possible (NOTES.md measures how little).
    """

    def __init__(self):
        self.starts, self.durations = [], []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            _probe_loop()
            start = perf_counter()
            _probe_loop()
            self.starts.append(start)
            self.durations.append(perf_counter() - start)

    def __enter__(self):
        try:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        except (AttributeError, OSError):
            pass
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def slowdown(self, start, end):
        """The probe's harmonic mean time around [start, end] over its
        reference.  A window mixes contended and uncontended spells, and the
        workload's speed over it is the mean of its speeds in them: the mean
        of 1 / time.  A sample the scheduler stalled adds next to nothing."""
        pad = max(0.0, (PROBE_MIN_WINDOW_S - (end - start)) / 2)
        low = bisect.bisect_left(self.starts, start - pad)
        high = bisect.bisect_left(self.starts, end + pad)
        window = self.durations[low:high] or self.durations or [PROBE_REFERENCE_S]
        return statistics.harmonic_mean(window) / PROBE_REFERENCE_S

    def scale(self, start, end):
        # Each sample ran the loop twice: warm-up and timed.
        busy = 2 * sum(self.durations[bisect.bisect_left(self.starts, start):
                                      bisect.bisect_left(self.starts, end)])
        own = max(0.0, 1 - busy / (end - start)) if end > start else 1.0
        return own / self.slowdown(start, end)


def timed_phase(workload, seconds, trace, probe):
    """Cycle through the workload's inputs for `seconds` (at least
    MIN_REPETITIONS repetitions).  Returns every execution's time of every
    input and every operation in reference seconds (ContentionProbe), and
    the raw host seconds of the repetitions.  Traced: each input runs
    untraced, then traced."""
    tracer = Tracer(probe.scale) if trace else None
    modes = ("untraced", "traced") if trace else ("untraced",)
    times = {mode: defaultdict(list) for mode in modes}
    op_times = defaultdict(list)
    raw, uncontended = [], []
    attempted = failed = reps = 0
    gc.collect()
    start = perf_counter()
    while reps < MIN_REPETITIONS or perf_counter() - start < seconds:
        key = reps % workload.input_count
        for mode in modes:
            before = perf_counter()
            elapsed, ops, rep_attempted, rep_failed = workload.rep(
                key, tracer if mode == "traced" else None)
            after = perf_counter()
            scale = probe.scale(before, after)
            times[mode][key].append(elapsed * scale)
            if mode == "untraced":
                raw.append(elapsed)
                if probe.slowdown(before, after) < UNCONTENDED_SLOWDOWN:
                    uncontended.append(elapsed)
                for op, duration in ops.items():
                    op_times[op].append(duration * scale)
            attempted += rep_attempted
            failed += rep_failed
        reps += 1
    probe_median = statistics.median(probe.durations) if probe.durations else None
    samples = {"repetitions": reps, "inputs": workload.input_count,
               "operations": len(op_times), "raw_repetition_s_min": min(raw),
               "raw_repetition_s_median": statistics.median(raw),
               "raw_repetition_s_max": max(raw), "probe_samples": len(probe.durations),
               "uncontended_repetitions": len(uncontended),
               "raw_uncontended_s_median": statistics.median(uncontended) if uncontended else None,
               "probe_median_over_reference":
                   probe_median and probe_median / PROBE_REFERENCE_S}
    return tracer, times, op_times, samples, attempted, failed


def run(args):
    workload = make_workload(args.workload, args.seed, args.workdir, args.tiny)
    with ContentionProbe() as probe:
        tracer, times, op_times, samples, attempted, failed = timed_phase(
            workload, args.seconds, args.trace, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        extra_attempted, extra_failed = workload.finish()
        if args.trace:
            metrics, layer_attempted, layer_failed = layer_metrics(
                tracer, workload, args.seed, args.workdir)
    attempted += extra_attempted
    failed += extra_failed
    untraced = [t for values in times["untraced"].values() for t in values]
    result = {"samples": samples}
    if args.trace:
        attempted += layer_attempted
        failed += layer_failed
        traced = [t for values in times["traced"].values() for t in values]
        metrics["trace_overhead_ratio"] = (
            statistics.median(traced) / statistics.median(untraced) - 1)
        samples.update(span_self_s=tracer.self_times(), traced_wall_s=tracer.root_time())
    else:
        wall = statistics.median(untraced)
        ops = sorted(statistics.median(values) for values in op_times.values())
        metrics = {
            "wall_s": wall,
            "work_per_s": statistics.median(map(workload.work, times["untraced"])) / wall,
            "op_ms_p50": _percentile(ops, 50) * 1e3,
            "op_ms_p90": _percentile(ops, 90) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        samples["peak_rss_mb_after_checks"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if getattr(workload, "wires_sha256", None):
        samples["wires_sha256"] = workload.wires_sha256
    result.update(attempted=attempted, failed=failed, metrics=metrics)
    return result


def setup(args):
    """Import time and input-building time, in reference seconds."""
    with ContentionProbe() as probe:
        start = perf_counter()
        import abpsim.cli  # noqa: F401  (the import is what is timed)
        imported = perf_counter()
        make_workload(args.workload, args.seed, args.workdir, args.tiny)
        built = perf_counter()
    scale = probe.scale(start, built)
    return {"import_s": (imported - start) * scale, "build_s": (built - imported) * scale}


def calibrate(args):
    """The probe's time in µs while the main thread spins the same loop:
    quantiles of its harmonic mean over PROBE_MIN_WINDOW_S windows, and the
    median of the lowest cluster (windows within 15% of the 5th
    percentile), which is the uncontended core.  PROBE_REFERENCE_S is that
    figure, rounded."""
    with ContentionProbe() as probe:
        end = perf_counter() + args.seconds
        while perf_counter() < end:
            _probe_loop()
    windows = defaultdict(list)
    for start, duration in zip(probe.starts, probe.durations):
        windows[int(start / PROBE_MIN_WINDOW_S)].append(duration)
    means = [statistics.harmonic_mean(values) * 1e6 for values in windows.values()]
    cuts = statistics.quantiles(means, n=20)
    return {"windows": len(means), "reference_us": PROBE_REFERENCE_S * 1e6,
            "uncontended_us": statistics.median(m for m in means if m < 1.15 * cuts[0]),
            "window_us_p5_to_p95": cuts}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "calibrate"))
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.mode != "calibrate" and None in (args.workload, args.seed, args.workdir):
        parser.error("setup and run need --workload, --seed and --workdir")
    result = {"setup": setup, "run": run, "calibrate": calibrate}[args.mode](args)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
