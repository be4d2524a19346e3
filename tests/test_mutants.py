"""The mutant catalogue: small deliberate faults in the ABP model and its
timer, each applied by monkeypatching alone, run through the kit's own
checks in process.  The kill table pins, for every mutant and check, the
exit code and the ids of the failing report rows.  A mutant that passes
every check survives: that is a gap in the kit, recorded here so that a
later check which kills it changes the table, and so that no change to
the kit lets a killed mutant survive unnoticed."""

import contextlib
import io
import json

import pytest

from abpsim import (CatalogEntry, TransitionCatalog, abp, cli, generate_scenario, golden,
                    run_scenario, testkit)
from abpsim.runtime import (DISABLED, FromB, MsgI, MsgO, SetTimer, TimeoutEvent, _timed,
                            lift_timed, run_network)
from conftest import _rewire


def _timer(late=False, sticky=False):
    """`runtime.attach_timer`, restated with at most one fault: a `late`
    timer counts down to 0 and fires there, one tick late; a `sticky` one
    ignores a SetTimer while it is armed.  With neither it is the real
    timer, which `test_the_restated_timer_is_the_real_one` checks."""
    fire_at = 0 if late else 1

    def attach_timer(delta):
        def absorb(outputs, counter, emitted):
            for out in outputs:
                if isinstance(out, SetTimer):
                    if not (sticky and counter != DISABLED):
                        counter = out.slots
                else:
                    emitted.append(out.payload)
            return counter

        def rule(state_counter, payloads, tick=True):
            state, counter = state_counter
            emitted = []
            for payload in payloads:
                state, outputs = delta(state, MsgI(payload))
                counter = absorb(outputs, counter, emitted)
            if tick:
                if counter > fire_at:
                    counter -= 1
                elif counter == fire_at:
                    state, outputs = delta(state, TimeoutEvent)
                    counter = absorb(outputs, DISABLED, emitted)
            return (state, counter), tuple(emitted)

        return _timed(rule)

    return attach_timer


_make_sender_delta = abp.make_sender_delta


def _stale_ack_sender(timeout=abp.RESEND_TIMEOUT):
    """The sender with ``if not buffer:`` in place of ``if not buffer or
    ack != bit:``: with a message in flight, any ack is taken for its own."""
    sender = _make_sender_delta(timeout)

    def sender_delta(state, event):
        bit, buffer = state
        if buffer and isinstance(event, MsgI) and isinstance(event.payload, FromB):
            event = MsgI(FromB(bit))
        return sender(state, event)

    return sender_delta


def _bit_keeping_sender(timeout=abp.RESEND_TIMEOUT):
    """The sender with ``bit`` in place of ``not bit`` on a matching ack: it
    advances its queue but signs the next message with the old bit."""
    sender = _make_sender_delta(timeout)

    def sender_delta(state, event):
        bit = state[0]
        (new_bit, buffer), outputs = sender(state, event)
        if new_bit != bit:
            outputs = tuple(MsgO((bit, out.payload[1])) if isinstance(out, MsgO) else out
                            for out in outputs)
        return (bit, buffer), outputs

    return sender_delta


def _newest_resending_sender(timeout=abp.RESEND_TIMEOUT):
    """The sender with ``buffer[-1]`` in place of ``buffer[0]`` on a
    timeout: it resends the newest buffered payload, not the head."""
    sender = _make_sender_delta(timeout)

    def sender_delta(state, event):
        bit, buffer = state
        if event is TimeoutEvent and buffer:
            return (bit, buffer), (MsgO((bit, buffer[-1])), SetTimer(timeout))
        return sender(state, event)

    return sender_delta


def _never_flipping_receiver(expected, message):
    """A receiver that delivers a matching message but keeps expecting
    the same bit."""
    bit, payload = message
    if bit == expected:
        return expected, (bit,), (payload,)
    return expected, (bit,), ()


def _always_accepting_receiver(expected, message):
    """A receiver that delivers every message and flips its bit."""
    bit, payload = message
    return (not expected), (bit,), (payload,)


_medium_delta = abp.medium_delta


def _duplicating_medium(state, payload):
    """The medium with ``(payload, payload)`` in place of ``(payload,)``:
    it passes each message twice."""
    state, outputs = _medium_delta(state, payload)
    return state, outputs * 2


class _Placid:
    """A state box equal to any other box."""

    __slots__ = ("state",)
    __hash__ = None

    def __init__(self, state):
        self.state = state

    def __eq__(self, other):
        return True


def _placid(delta):
    def step(box, item):
        state, outputs = delta(box.state, item)
        return _Placid(state), outputs

    return step


def _lying_sender_catalog():
    """The sender's catalog with `t_ack_final`'s target `nonempty_buffer`,
    not `empty_buffer`: it declares that the ack of the last buffered
    payload leaves the buffer non-empty."""
    catalog = golden.SENDER_CATALOG
    entries = [CatalogEntry(e.id, e.source, "nonempty_buffer", e.input_pattern, e.guard)
               if e.id == "t_ack_final" else e for e in catalog.entries]
    return TransitionCatalog(catalog.machine, catalog.classes, entries)


def _settling_run_network(net, external, slots):
    """`run_network` settling without comparing states: it runs a copy of
    `net` whose states are all boxed in a `_Placid`, so the first round
    after the last one fed a non-empty slot whose wires are empty from
    there on looks like a fixed point, even with a timer armed."""
    return run_network(_rewire(net, _Placid, _placid), external, slots)


# Mutant -> the (module or dict, name, replacement) patches that apply it.
MUTANTS = {
    "none": [],
    "late timer": [(abp, "attach_timer", _timer(late=True))],
    "SetTimer ignored while armed": [(abp, "attach_timer", _timer(sticky=True))],
    "stale ack": [(abp, "make_sender_delta", _stale_ack_sender),
                  (golden, "sender_delta", _stale_ack_sender())],
    "always-accepting receiver": [(abp, "receiver_delta", _always_accepting_receiver)],
    "bit kept on a matching ack": [(abp, "make_sender_delta", _bit_keeping_sender),
                                   (golden, "sender_delta", _bit_keeping_sender())],
    "never-flipping receiver": [(abp, "receiver_delta", _never_flipping_receiver)],
    "newest payload resent": [(abp, "make_sender_delta", _newest_resending_sender),
                              (golden, "sender_delta", _newest_resending_sender())],
    "duplicating medium": [
        (abp, "medium_delta", _duplicating_medium),
        (golden.MACHINES, "medium",
         golden.MachineBinding(lift_timed(_duplicating_medium), golden.MEDIUM_CATALOG)),
    ],
    "settled without comparing states": [(testkit, "run_network", _settling_run_network)],
    "t_ack_final targets nonempty_buffer": [
        (golden.MACHINES, "sender",
         golden.MachineBinding(golden.MACHINES["sender"].delta, _lying_sender_catalog())),
    ],
}

CHECKS = {
    "test": ["test"],
    "test --count 100": ["test", "--count", "100", "--seed", "0"],
    "coverage": ["coverage"],
}

_PASSED = (0, [])
_ACCEPTING_ROWS = ["transition receiver/r2", "transition receiver/r4"]
# The 52 of `test --count 100 --seed 0`'s random scenarios whose identity
# check the always-accepting receiver fails, in report order.
_ACCEPTING_SEEDS = [
    4161721069, 3155761739, 1776880500, 2184463183, 2830392143, 1240758652, 1611253881,
    371418105, 3041628535, 75686576, 3464020530, 3459228293, 752720107, 2336513962,
    2989083549, 2625263320, 2018358017, 3496152656, 3564071675, 2468976585, 3129565821,
    2104750066, 2427917451, 2517013289, 3941867880, 1123107841, 3722841553, 3965465667,
    2316970442, 3103209418, 31841879, 3771502798, 4045925893, 1013271168, 1427111678,
    2801201673, 3968920972, 2416600424, 4244845251, 697652374, 1255092780, 1975471309,
    226069907, 341363814, 1537917898, 3283731809, 3119071644, 470307423, 2471832771,
    3597897800, 3936366462, 463900173,
]
# The 91 of its random scenarios that carry two payloads or more, in report
# order: the identity checks that both the bit-keeping sender and the
# never-flipping receiver fail.
_MULTI_PAYLOAD_SEEDS = [
    180158744, 77463203, 4161721069, 3155761739, 1776880500, 2184463183, 731863744, 4179291301,
    2050339395, 3697327382, 2830392143, 1240758652, 1611253881, 371418105, 1633912366,
    3041628535, 75686576, 3484052845, 914289910, 1767425012, 3601874758, 3464020530, 3224393583,
    3459228293, 3039852410, 571022459, 764746998, 72668675, 752720107, 2336513962, 2989083549,
    2625263320, 1311376113, 2018358017, 3496152656, 3564071675, 2468976585, 290024920,
    4221690541, 3129565821, 2104750066, 2427917451, 2517013289, 3941867880, 1123107841,
    3722841553, 3324919056, 3965465667, 2316970442, 3103209418, 3855531125, 31841879,
    4138014150, 3771502798, 2792202456, 4045925893, 1013271168, 3292450183, 3045809550,
    1427111678, 706720118, 3591045739, 1374543591, 3362806076, 2801201673, 1504344890,
    1193811043, 4127630604, 3968920972, 2416600424, 4244845251, 697652374, 1255092780,
    261033612, 1975471309, 226069907, 341363814, 1537917898, 3283731809, 3245371976, 2501034785,
    3119071644, 470307423, 1661091608, 3702754306, 3356495489, 1208757114, 2471832771,
    3597897800, 3936366462, 463900173,
]
# The 42 whose identity check the newest-resending sender fails.
_NEWEST_RESENT_SEEDS = [
    180158744, 77463203, 4161721069, 3155761739, 1776880500, 2184463183, 3697327382, 2830392143,
    1240758652, 75686576, 3484052845, 914289910, 3039852410, 764746998, 2625263320, 1311376113,
    3496152656, 2468976585, 3129565821, 1123107841, 3722841553, 3324919056, 3965465667,
    3103209418, 3855531125, 31841879, 3771502798, 3292450183, 3045809550, 1427111678, 706720118,
    3362806076, 3968920972, 4244845251, 1255092780, 261033612, 341363814, 3119071644,
    1661091608, 3702754306, 3356495489, 1208757114,
]
# The 45 whose identity check fails when `run_network` settles without
# comparing states: each needs a resend after a quiet round that comes
# after its last fed payload (the engine settles in no earlier round).
_SETTLING_SEEDS = [
    4161721069, 3155761739, 1776880500, 2184463183, 1074179421, 3697327382, 2830392143,
    1240758652, 1611253881, 914289910, 3464020530, 3224393583, 3459228293, 3039852410,
    571022459, 764746998, 2625263320, 1311376113, 2468976585, 2246225833, 3129565821,
    2517013289, 3722841553, 3324919056, 2316970442, 3103209418, 31841879, 4138014150,
    3771502798, 1013271168, 1427111678, 706720118, 1374543591, 3968920972,
    4244845251, 1255092780, 1975471309, 341363814, 1537917898, 3283731809, 3119071644,
    470307423, 1661091608, 2471832771, 3936366462,
]
_BIT_KEEPING_ROWS = ["transition sender/s4", "transition sender/s5",
                     "path sender/p_send_ack_states"]
_NEVER_FLIPPING_ROWS = ["transition receiver/r1", "transition receiver/r3"]
_NEWEST_RESENT_ROWS = ["transition sender/s7"]


def _identity_rows(seeds):
    return [f"identity abp/seed-{seed}" for seed in seeds]


# Mutant -> check -> (exit code, failing row ids as `test` prints them).
# Both timer mutants survive: every check compares untimed histories and
# the sender's table steps the delta without its timer.  The bit-keeping
# sender is the one mutant that fails a path row.  The duplicating medium's
# only kill is the golden row `medium/m1`: no identity check fails, since
# the receiver's bit drops the second copy.  The settling engine fails
# identity rows only: `coverage` runs no network.  The lying catalog
# survives: no check reads a `CatalogEntry.target`.
KILLS = {
    "none": dict.fromkeys(CHECKS, _PASSED),
    "late timer": dict.fromkeys(CHECKS, _PASSED),
    "SetTimer ignored while armed": dict.fromkeys(CHECKS, _PASSED),
    "stale ack": dict.fromkeys(CHECKS, (1, ["transition sender/s6"])),
    "always-accepting receiver": {
        "test": (1, _ACCEPTING_ROWS),
        "test --count 100": (1, _ACCEPTING_ROWS + _identity_rows(_ACCEPTING_SEEDS)),
        "coverage": (1, _ACCEPTING_ROWS),
    },
    "bit kept on a matching ack": {
        "test": (1, _BIT_KEEPING_ROWS + ["identity abp/all_pass"]),
        "test --count 100": (1, _BIT_KEEPING_ROWS + _identity_rows(_MULTI_PAYLOAD_SEEDS)),
        "coverage": (1, _BIT_KEEPING_ROWS),
    },
    "never-flipping receiver": {
        "test": (1, _NEVER_FLIPPING_ROWS + ["identity abp/all_pass"]),
        "test --count 100": (1, _NEVER_FLIPPING_ROWS + _identity_rows(_MULTI_PAYLOAD_SEEDS)),
        "coverage": (1, _NEVER_FLIPPING_ROWS),
    },
    "newest payload resent": {
        "test": (1, _NEWEST_RESENT_ROWS),
        "test --count 100": (1, _NEWEST_RESENT_ROWS + _identity_rows(_NEWEST_RESENT_SEEDS)),
        "coverage": (1, _NEWEST_RESENT_ROWS),
    },
    "duplicating medium": dict.fromkeys(CHECKS, (1, ["transition medium/m1"])),
    "settled without comparing states": {
        "test": (1, ["identity abp/single_drop"]),
        "test --count 100": (1, _identity_rows(_SETTLING_SEEDS)),
        "coverage": _PASSED,
    },
    "t_ack_final targets nonempty_buffer": dict.fromkeys(CHECKS, _PASSED),
}


# Ten payloads over a lossy run of 619 slots, in which both timer mutants
# change when the sender resends.
SCENARIO = generate_scenario(3, (10, 10_000, 0.3))


def _apply(monkeypatch, mutant):
    for target, name, replacement in MUTANTS[mutant]:
        if isinstance(target, dict):
            monkeypatch.setitem(target, name, replacement)
        else:
            monkeypatch.setattr(target, name, replacement)


def _check(argv):
    """The exit code of `argv` and its failing rows, read from its JSON report."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = cli.run([*argv, "--format", "json"])
    rows = json.loads(sink.getvalue())["verdicts"]
    return code, [f"{row['kind']} {row['machine']}/{row['id']}"
                  for row in rows if row["status"] != "pass"]


@pytest.mark.parametrize("check", list(CHECKS))
@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_kill_table(mutant, check, monkeypatch):
    _apply(monkeypatch, mutant)
    assert _check(CHECKS[check]) == KILLS[mutant][check]


def test_the_restated_timer_is_the_real_one(monkeypatch):
    real = run_scenario(SCENARIO)
    monkeypatch.setattr(abp, "attach_timer", _timer())
    assert run_scenario(SCENARIO) == real


@pytest.mark.parametrize("mutant", ["late timer", "SetTimer ignored while armed"])
def test_surviving_timer_mutants_change_the_timed_run(mutant, monkeypatch):
    # Not equivalent mutants: each changes when the sender resends, and
    # only the untimed delivery that every check compares stays the same.
    real, _ = run_scenario(SCENARIO)
    _apply(monkeypatch, mutant)
    run, _ = run_scenario(SCENARIO)
    assert run.slots["ds"] != real.slots["ds"]
    assert run.slots["out"] != real.slots["out"]
    assert [p for slot in run.slots["out"] for p in slot] == \
        [p for slot in real.slots["out"] for p in slot]


def test_the_lying_catalog_declares_a_target_its_step_misses(step_entry):
    # Not an equivalent mutant: the ack of the last buffered payload
    # empties the buffer, which a check of declared targets would see.
    catalog, delta = _lying_sender_catalog(), golden.MACHINES["sender"].delta
    assert step_entry(catalog, delta, (True, (5,)), True) == "t_ack_final"
    [entry] = [entry for entry in catalog.entries if entry.id == "t_ack_final"]
    state, _ = delta((True, (5,)), True)
    assert (entry.target, catalog.class_of(state)) == ("nonempty_buffer", "empty_buffer")
