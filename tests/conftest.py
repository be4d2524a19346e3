import copy
from itertools import islice

import pytest

from abpsim import DeadlockDetected, FromA, FromB, ModelError, Msg, Tick, instrument, run_machine
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


# The most payloads `_reference_run` lets the components of one network
# produce in all: over 10 times the most that a sound model makes.  The
# random networks of tests/test_runtime.py and the drawn ABP scenarios of
# tests/test_testkit.py reached at most 4,858 and 182 (16,000 examples
# each), and no other test more than 1,764.  A broken model whose traffic
# grows without bound fails its differential at the budget instead of
# filling memory.
PAYLOAD_BUDGET = 50_000


def _reference_run(spec, external, slots):
    """Every wire's history over `slots` slots: the least fixed point of
    the network's stream equations, evaluated on demand, and the reference
    `run_network` must match.  Only the components, the wire order and the
    initializers' pre-filled slots come from `spec`.

    First each external wire, in feed order, reads `slots` slots of its
    stream's `slots()`: the stream's own exception propagates, then a slot
    that is not a tuple and then a short stream raise ModelError, all
    before any delta is called.  Then rounds run in order, components in
    insertion order.  Stepping a component through round i asks for slot i
    of each input wire; a slot the wire does not hold yet is made by
    stepping its producer through round i, and a component asked for the
    round it is stepping is a cycle with no delay: DeadlockDetected.  Each
    delta gets, through `run_machine`, the slot's messages (tagged
    FromA/FromB with two inputs) and then one tick.  Once the components
    have produced more than PAYLOAD_BUDGET payloads in all, it raises
    AssertionError."""
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
    components = list(spec._components.values())
    producer = {wire: comp for comp in components for wire in comp.outputs}
    states = {comp.name: comp.start for comp in components}
    rounds = dict.fromkeys(states, 0)  # rounds each component has stepped
    stepping = []  # the components mid-round, outermost first
    budget = PAYLOAD_BUDGET

    def slot(wire, index):
        if len(history[wire]) == index:
            step(producer[wire], index)
        return history[wire][index]

    def step(comp, index):
        nonlocal budget
        if comp.name in stepping:
            cycle = sorted(stepping[stepping.index(comp.name):])
            raise DeadlockDetected(f"components {cycle} form a cycle with no tick-bearing "
                                   f"initializer")
        stepping.append(comp.name)
        if len(comp.inputs) == 2:
            first, second = (slot(wire, index) for wire in comp.inputs)
            fed = [Msg(FromA(p)) for p in first] + [Msg(FromB(p)) for p in second]
        else:
            fed = [Msg(p) for p in slot(comp.inputs[0], index)]
        states[comp.name], produced = run_machine(states[comp.name], comp.delta, fed + [Tick])
        ticks = sum(1 for item in produced if item is Tick)
        if ticks != 1 or produced[-1] is not Tick:
            raise ModelError(f"component {comp.name!r} emitted {ticks} tick(s) in one "
                             f"slot; expected exactly one, last")
        payloads = tuple(item.payload for item in produced[:-1])
        budget -= len(payloads)
        if budget < 0:
            raise AssertionError(f"the components produced more than {PAYLOAD_BUDGET} "
                                 f"payloads: a model whose traffic runs away")
        if len(comp.outputs) == 1:
            history[comp.outputs[0]].append(payloads)
        else:
            for p in payloads:
                if not isinstance(p, (FromA, FromB)):
                    raise ModelError(f"component {comp.name!r} has two output ports but "
                                     f"emitted untagged payload {p!r}")
            for wire, tag in zip(comp.outputs, (FromA, FromB)):
                history[wire].append(tuple(p.payload for p in payloads if isinstance(p, tag)))
        stepping.pop()
        rounds[comp.name] = index + 1

    for index in range(slots):
        for comp in components:
            if rounds[comp.name] == index:
                step(comp, index)
    return {wire: wire_history[:slots] for wire, wire_history in history.items()}


@pytest.fixture(scope="session")
def reference_run():
    """`run_network`'s reference: (spec, external streams, slots) -> the
    wire histories, evaluated on demand."""
    return _reference_run
