import copy
from itertools import islice

import pytest

from abpsim import FromA, FromB, ModelError, Msg, Tick, instrument
from abpsim.runtime import _Component

# One line per acceptance criterion, printed after the run so the verdicts
# survive pytest's output capture.
_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_log():
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def _rewire(net, start=lambda state: state, delta=lambda step: step):
    """A copy of `net` with every component's start state and delta passed
    through `start` and `delta`; wiring and initializers are shared."""
    rewired = copy.copy(net)
    rewired._components = {
        name: _Component(comp.name, start(comp.start), delta(comp.delta), comp.inputs,
                         comp.outputs)
        for name, comp in net._components.items()
    }
    return rewired


class Restless:
    """A state box that never compares equal, not even to itself.  A network
    whose states are all boxed never reaches a fixed point, so `run_network`
    steps every delta in every slot: the plain evaluator that its quiet-slot
    fast-forward must match."""

    __slots__ = ("state",)
    __hash__ = None

    def __init__(self, state):
        self.state = state

    def __eq__(self, other):
        return False


def _restless(delta):
    def step(box, item):
        state, outputs = delta(box.state, item)
        return Restless(state), outputs

    return step


def _step_entry(catalog, delta, state, item):
    """The catalog entry that one step of `delta` realizes, None for none,
    as `instrument` records it: its ClassificationError propagates."""
    stepped, accumulator = instrument(delta, catalog)
    stepped(state, item)
    [entry] = accumulator.transitions
    return entry


@pytest.fixture(scope="session")
def step_entry():
    return _step_entry


@pytest.fixture(scope="session")
def rewire():
    return _rewire


@pytest.fixture(scope="session")
def full_stepping():
    """Maps a NetworkSpec to a copy that `run_network` steps in full.  The
    boxing deltas carry no slot form, so every component of the copy also
    runs through the generic Msg/Tick adapter, which the slot forms of
    `lift_timed` and `attach_timer` must match."""
    return lambda net: _rewire(net, Restless, _restless)


def _reference_run(spec, external, slots):
    """Every wire's history over `slots` slots by the plain per-slot rule,
    kept apart from `run_network` as the reference it must match.

    First each external wire, in feed order, reads the first `slots` slots
    of its stream's whole view, `slots()`, idle tail included.  An
    exception of the stream's own iterator propagates; then a slot that is
    not a tuple, and then a stream that ends early, raise ModelError.  So
    every input error comes out before any delta is called.  Then each
    round steps the components in schedule order: each tick-aware delta
    gets the slot's messages (tagged FromA/FromB with two inputs) and then
    one tick.  There is no slot-step adapter, no idle-tail shortcut and no
    fast-forward.  Only the schedule and the initializers' pre-filled slots
    come from `spec`.  Errors carry the messages `run_network` gives
    them."""
    order = spec._schedule()
    history = {wire: [] for wire in spec.wire_order}
    for wire, prefilled in spec._initializers.items():
        history[wire].extend(prefilled)
    for wire, stream in external.items():
        fed = list(islice(stream.slots(), slots))
        for index, slot in enumerate(fed):
            if not isinstance(slot, tuple):
                raise ModelError(f"external wire {wire!r} was fed a {type(slot).__name__} "
                                 f"in slot {index}, not a tuple of payloads")
        if len(fed) < slots:
            raise ModelError(f"external input ended after {len(fed)} slots, {slots} requested")
        history[wire].extend(fed)
    states = {comp.name: comp.start for comp in order}

    def put(wire, payloads):
        history[wire].append(tuple(payloads))

    for index in range(slots):
        for comp in order:
            if len(comp.inputs) == 2:
                first, second = (history[wire][index] for wire in comp.inputs)
                fed = [Msg(FromA(p)) for p in first] + [Msg(FromB(p)) for p in second]
            else:
                fed = [Msg(p) for p in history[comp.inputs[0]][index]]
            state, produced = states[comp.name], []
            for item in fed + [Tick]:
                state, outputs = comp.delta(state, item)
                produced.extend(outputs)
            states[comp.name] = state
            ticks = sum(1 for item in produced if item is Tick)
            if ticks != 1 or produced[-1] is not Tick:
                raise ModelError(f"component {comp.name!r} emitted {ticks} tick(s) in one "
                                 f"slot; expected exactly one, last")
            payloads = [item.payload for item in produced[:-1]]
            if len(comp.outputs) == 1:
                put(comp.outputs[0], payloads)
                continue
            for p in payloads:
                if not isinstance(p, (FromA, FromB)):
                    raise ModelError(f"component {comp.name!r} has two output ports but "
                                     f"emitted untagged payload {p!r}")
            put(comp.outputs[0], [p.payload for p in payloads if isinstance(p, FromA)])
            put(comp.outputs[1], [p.payload for p in payloads if isinstance(p, FromB)])
    return {wire: wire_history[:slots] for wire, wire_history in history.items()}


@pytest.fixture(scope="session")
def reference_run():
    """`run_network`'s reference: (spec, external streams, slots) -> the
    wire histories, by plain per-slot stepping."""
    return _reference_run
