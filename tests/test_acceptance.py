"""Acceptance gate: eight end-to-end criteria, one test each.

Each test pushes a single PASS/FAIL line into the session log that
conftest prints after the run, so the verdicts are visible even though
pytest captures stdout.  Tolerances are stated inline; timing bounds are
generous for the workload but tight enough to catch accidental
exponential blowups.
"""

import random
import time
from contextlib import contextmanager

from abpsim import (
    IdentityStatus,
    Msg,
    MsgO,
    SetTimer,
    Tick,
    TimeoutEvent,
    attach_timer,
    bundled_path_cases,
    bundled_scenario,
    bundled_tables,
    build_abp_network,
    check_identity,
    demux_timed,
    generate_scenario,
    inject_ticks,
    instrument,
    lift_timed,
    medium_delta,
    merge_timed,
    path_test,
    run_machine,
    run_network,
    take_slots,
    trans_test,
)
from abpsim.abp import OracleSpec
from abpsim.cli import run as cli_run
from abpsim.golden import MACHINES, bundled_table


@contextmanager
def criterion(log, number, summary):
    try:
        yield
    except BaseException:
        log.append(f"criterion {number}: FAIL  {summary}")
        raise
    log.append(f"criterion {number}: PASS  {summary}")


def _slots_of(items):
    slots, current = [], []
    for item in items:
        if item is Tick:
            slots.append(tuple(current))
            current = []
        else:
            current.append(item.payload)
    assert not current, "trailing messages without a closing tick"
    return tuple(slots)


def test_criterion_1_sender_golden_table(acceptance_log):
    with criterion(acceptance_log, 1,
                   "all 8 sender golden rows pass the transition tester in under 1s"):
        cases = bundled_table("sender")
        assert len(cases) == 8
        delta = MACHINES["sender"].delta
        started = time.perf_counter()
        verdicts = [trans_test(delta, tc.case) for tc in cases]
        elapsed = time.perf_counter() - started
        failures = [(v.case_id, v.expected, v.actual, v.error) for v in verdicts if not v.passed]
        assert not failures, failures
        assert elapsed < 1.0, f"golden suite took {elapsed:.3f}s"


def test_criterion_2_transition_coverage(acceptance_log):
    with criterion(acceptance_log, 2,
                   "bundled suites cover 8/8 sender transitions and the full "
                   "medium and receiver catalogs"):
        wrapped, accumulators = {}, {}
        for name, binding in MACHINES.items():
            wrapped[name], accumulators[name] = instrument(binding.delta, binding.catalog)
        for tc in bundled_tables():
            assert trans_test(wrapped[tc.machine], tc.case).passed, tc.case.id
        for machine, pc in bundled_path_cases():
            result = path_test(wrapped[machine], pc)
            steps = (result,) if not isinstance(result, tuple) else result
            assert all(step.passed for step in steps), pc.id

        reports = {name: accumulators[name].report(MACHINES[name].catalog)
                   for name in MACHINES}
        sender = reports["sender"]
        assert len(sender.covered) == 8 and sender.complete, sorted(sender.uncovered)
        assert reports["medium"].complete, sorted(reports["medium"].uncovered)
        assert reports["receiver"].complete, sorted(reports["receiver"].uncovered)
        for name, report in reports.items():
            assert report.unclassified == 0, name


def test_criterion_3_identity_at_desk_scale(acceptance_log):
    with criterion(acceptance_log, 3,
                   "100 seeded scenarios (<=10 payloads, drop <=0.5, auto horizon) "
                   "all pass the untimed identity check in under 10s"):
        started = time.perf_counter()
        for seed in range(100):
            scenario = generate_scenario(seed, bounds=(10, 10_000, 0.5))
            result = check_identity(scenario)
            # Zero tolerance: delivered must equal sent exactly, so any
            # reordering, duplication, or alteration fails here.
            assert result.status is IdentityStatus.PASS, (
                seed, result.status, result.expected, result.actual)
            assert result.actual == result.expected
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"identity sweep took {elapsed:.3f}s"


# Hand-computed wire histories for the bundled single-drop scenario
# (payload 1 in slot 0, data oracle drop-then-pass, timeout 3).  The first
# transmission is dropped; the timer armed in slot 0 fires during its third
# tick, so the resend lands in slot 2, crosses the medium, is delivered,
# and the acknowledgement comes back on the delayed feedback wire in slot 3.
SINGLE_DROP_TRACE = {
    "input": ((1,), (), (), (), (), (), (), ()),
    "am": ((), (), (), (True,), (), (), (), ()),
    "ds": (((True, 1),), (), ((True, 1),), (), (), (), (), ()),
    "dm": ((), (), ((True, 1),), (), (), (), (), ()),
    "as": ((), (), (True,), (), (), (), (), ()),
    "out": ((), (), (1,), (), (), (), (), ()),
}


def test_criterion_4_single_drop_retransmission(acceptance_log):
    with criterion(acceptance_log, 4,
                   "single-drop scenario shows exactly one retransmission of "
                   "payload 1, three ticks after the first send, and one delivery"):
        scenario = bundled_scenario("single_drop")
        assert scenario.timeout == 3
        net = build_abp_network(
            scenario.data_oracle, scenario.ack_oracle, timeout=scenario.timeout,
            sender_bit=scenario.sender_bit, receiver_bit=scenario.receiver_bit)
        run = run_network(net, {"input": scenario.input_stream()}, scenario.horizon)

        for wire, expected in SINGLE_DROP_TRACE.items():
            assert tuple(run.slots[wire]) == expected, wire

        sends = [(slot, payloads) for slot, payloads in enumerate(run.slots["ds"]) if payloads]
        assert sends == [(0, ((True, 1),)), (2, ((True, 1),))]
        deliveries = [p for slot in run.slots["out"] for p in slot]
        assert deliveries == [1]


def _is_subsequence(sub, seq):
    it = iter(seq)
    return all(any(x == y for y in it) for x in sub)


def test_criterion_5_medium_properties(acceptance_log):
    with criterion(acceptance_log, 5,
                   "1000 random (oracle, input) pairs: medium output is an exact "
                   "order-preserving subsequence; cyclic fairness delivers a "
                   "4-slot resend within 4p slots"):
        rng = random.Random("criterion5")
        delta = lift_timed(medium_delta)
        for trial in range(1000):
            messages = [rng.randrange(6) for _ in range(rng.randrange(30))]
            kind = rng.randrange(3)
            if kind == 0:
                spec = OracleSpec.explicit([rng.random() < 0.5 for _ in messages] or [True])
            elif kind == 1:
                bits = [rng.random() < 0.5 for _ in range(rng.randint(1, 8))]
                bits[rng.randrange(len(bits))] = True
                spec = OracleSpec.cyclic(bits)
            else:
                spec = OracleSpec.bernoulli(rng.uniform(0.05, 1.0), rng.randrange(2**32))

            items = [Msg(m) for m in messages] + [Tick]
            _, outputs = run_machine(spec.cursor(), delta, items)
            got = [item.payload for item in outputs if item is not Tick]
            want = [m for i, m in enumerate(messages) if spec.bit_at(i)]
            assert got == want, trial
            assert _is_subsequence(got, messages), trial

        # Fairness consequence: one pass bit per cycle of length p, a message
        # reoffered every 4 slots.  The k-th offer consumes oracle bit k, so
        # the offer at slot 4*(pass position) gets through: within 4p slots.
        for period in (1, 2, 3, 5, 8):
            for pass_at in range(period):
                bits = [i == pass_at for i in range(period)]
                oracle = OracleSpec.cyclic(bits)
                horizon = 4 * period
                slots = [(7,) if slot % 4 == 0 else () for slot in range(horizon)]
                _, outputs = run_machine(
                    oracle.cursor(), delta, inject_ticks(slots).items())
                delivered = [i for i, slot in enumerate(_slots_of(outputs)) if slot]
                assert delivered, (period, pass_at)
                assert delivered[0] == 4 * pass_at
                assert delivered[0] < 4 * period


def _timer_probe(state, event):
    if event is TimeoutEvent:
        return state, (MsgO("fired"),)
    return state, (SetTimer(event.payload),)


def _echo_probe(state, event):
    if event is TimeoutEvent:
        return state, ()
    return state, (MsgO(event.payload),)


def test_criterion_6_runtime_laws(acceptance_log):
    with criterion(acceptance_log, 6,
                   "merge/demux round-trip (200 pairs x 20 slots), tick-count "
                   "preservation, timer law for n in {1,2,3,5}, and "
                   "instrumentation transparency"):
        rng = random.Random("criterion6")
        for _ in range(200):
            slots_a = tuple(tuple(rng.randrange(100) for _ in range(rng.randrange(3)))
                            for _ in range(20))
            slots_b = tuple(tuple(rng.randrange(100) for _ in range(rng.randrange(3)))
                            for _ in range(20))
            back_a, back_b = demux_timed(merge_timed(inject_ticks(slots_a),
                                                     inject_ticks(slots_b)))
            assert take_slots(back_a, 20) == slots_a
            assert take_slots(back_b, 20) == slots_b

        # Lifting an untimed machine, or attaching a timer, never changes the
        # number of ticks: one tick out per tick in.
        double = lift_timed(lambda state, p: (state, (p, p)))
        for _ in range(50):
            slots = tuple(tuple(rng.randrange(9) for _ in range(rng.randrange(4)))
                          for _ in range(rng.randrange(1, 12)))
            _, outputs = run_machine(None, double, inject_ticks(slots).items())
            assert sum(1 for it in outputs if it is Tick) == len(slots)
            _, outputs = run_machine((None, -1), attach_timer(_echo_probe),
                                     inject_ticks(slots).items())
            assert sum(1 for it in outputs if it is Tick) == len(slots)

        for n in (1, 2, 3, 5):
            items = [Msg(n)] + [Tick] * (n + 3)
            _, outputs = run_machine((None, -1), attach_timer(_timer_probe), items)
            fired = [i for i, slot in enumerate(_slots_of(outputs)) if "fired" in slot]
            # Armed in slot 0, the timeout is delivered during the n-th tick,
            # which closes slot n-1; it never refires on its own.
            assert fired == [n - 1], (n, fired)

        for name, binding in MACHINES.items():
            wrapped, _ = instrument(binding.delta, binding.catalog)
            for tc in bundled_tables():
                if tc.machine != name:
                    continue
                plain, probed = trans_test(binding.delta, tc.case), trans_test(wrapped, tc.case)
                assert (plain.passed, plain.actual) == (probed.passed, probed.actual)
        for machine, pc in bundled_path_cases():
            binding = MACHINES[machine]
            wrapped, _ = instrument(binding.delta, binding.catalog)
            assert path_test(binding.delta, pc) == path_test(wrapped, pc)


def test_criterion_7_determinism(acceptance_log, tmp_path):
    with criterion(acceptance_log, 7,
                   "repeated simulate --format json runs and repeated seeded "
                   "randomized suites are byte-identical"):
        first, second = tmp_path / "sim1.json", tmp_path / "sim2.json"
        for path in (first, second):
            code = cli_run(["simulate", "--scenario", "single_drop",
                            "--format", "json", "--out", str(path)])
            assert code == 0
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes().strip(), "empty trace document"

        suite1, suite2 = tmp_path / "suite1.json", tmp_path / "suite2.json"
        for path in (suite1, suite2):
            code = cli_run(["test", "--seed", "11", "--count", "6",
                            "--format", "json", "--out", str(path)])
            assert code == 0
        assert suite1.read_bytes() == suite2.read_bytes()


def test_criterion_8_negative_control(acceptance_log, tmp_path):
    with criterion(acceptance_log, 8,
                   "mismatched-initial-bit scenario fails the identity check "
                   "and the test command exits 1 on it"):
        result = check_identity(bundled_scenario("mismatched_bits"))
        assert result.status is IdentityStatus.FAIL
        assert result.divergence == 0
        assert result.run is not None

        out = tmp_path / "negative.txt"
        code = cli_run(["test", "--scenario", "mismatched_bits",
                        "--no-bundled", "--out", str(out)])
        assert code == 1
        assert "FAIL" in out.read_text()
