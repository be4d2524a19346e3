"""Execution runtime for stream-processing state machines.

Machines are pure transition functions ``delta(state, input) -> (state,
outputs)`` with a finite output sequence per step.  The runtime supplies
everything the hand-written models are executed against: machine execution
over input sequences, lifting untimed machines to tick-aware ones, timer
attachment, slot-synchronous channel merge/demux, and ``run_network``, the
deterministic per-slot evaluator of component networks with feedback wires.

Timer semantics (fixed here, relied on everywhere else): ``SetTimer n``
arms a countdown of n ticks; each subsequent tick decrements; the timeout
event is delivered to the inner machine during the n-th tick, before that
tick is emitted, and a ``SetTimer`` issued by the timeout handler re-arms
the counter.  ``SetTimer -1`` disables the timer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from .streams import Msg, Tick, TimedStream

# A transition function: (state, input) -> (new state, output sequence).
Delta = Callable[[Any, Any], Tuple[Any, Sequence[Any]]]

DISABLED = -1


class InvalidTimerValue(Exception):
    """SetTimer carried a value that is neither >= 1 nor exactly -1."""


class ModelError(Exception):
    """A model delta was applied to a (state, input) pair it does not cover,
    or a component broke the one-tick-per-slot discipline."""


class DeadlockDetected(Exception):
    """A network cycle has no tick-bearing initializer, so no schedule can
    make progress."""


@dataclass(frozen=True)
class FromA:
    """Message tagged as coming from the first of two merged channels."""

    payload: Any


@dataclass(frozen=True)
class FromB:
    """Message tagged as coming from the second of two merged channels."""

    payload: Any


@dataclass(frozen=True)
class MsgI:
    """Ordinary input to a timer-owning machine."""

    payload: Any


class _TimeoutEvent:
    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "TimeoutEvent"


TimeoutEvent = _TimeoutEvent()


@dataclass(frozen=True)
class MsgO:
    """Ordinary output of a timer-owning machine."""

    payload: Any


@dataclass(frozen=True)
class SetTimer:
    """Arm the ambient timer for `slots` ticks; -1 disables it."""

    slots: int


def run_machine(start, delta: Delta, inputs: Iterable[Any]):
    """Run a machine over an input sequence; (final state, concatenated
    per-step outputs)."""
    state = start
    collected: List[Any] = []
    for item in inputs:
        state, outputs = delta(state, item)
        collected.extend(outputs)
    return state, tuple(collected)


def lift_timed(delta: Delta) -> Delta:
    """Make an untimed machine tick-aware: ticks pass through unchanged
    (state untouched), messages run the inner machine with Msg wrapping."""

    def timed(state, item):
        if item is Tick:
            return state, (Tick,)
        new_state, outputs = delta(state, item.payload)
        return new_state, tuple(Msg(o) for o in outputs)

    return timed


def attach_timer(delta: Delta) -> Delta:
    """Wrap a machine that speaks MsgI/TimeoutEvent and MsgO/SetTimer into a
    tick-aware machine owning a countdown timer.

    State becomes ``(inner state, counter)`` with counter -1 when disabled.
    On a message, inner outputs are emitted in order; each SetTimer is
    absorbed into the counter (last one wins).  On a tick, the counter is
    decremented; when it would hit zero the inner machine receives
    TimeoutEvent within the same slot, its outputs are processed the same
    way, and the tick is emitted last.
    """

    def apply_outputs(inner_outputs, counter):
        emitted = []
        for out in inner_outputs:
            if isinstance(out, SetTimer):
                if out.slots == 0 or out.slots < DISABLED:
                    raise InvalidTimerValue(f"SetTimer({out.slots})")
                counter = out.slots
            elif isinstance(out, MsgO):
                emitted.append(Msg(out.payload))
            else:
                raise ModelError(f"timer machine produced {out!r}, expected MsgO or SetTimer")
        return counter, emitted

    def timed(state_counter, item):
        state, counter = state_counter
        if item is Tick:
            emitted: List[Any] = []
            if counter >= 2:
                counter -= 1
            elif counter == 1:
                counter = DISABLED
                state, inner_outputs = delta(state, TimeoutEvent)
                counter, emitted = apply_outputs(inner_outputs, counter)
            emitted.append(Tick)
            return (state, counter), tuple(emitted)
        state, inner_outputs = delta(state, MsgI(item.payload))
        counter, emitted = apply_outputs(inner_outputs, counter)
        return (state, counter), tuple(emitted)

    return timed


def _slot_iter(s: TimedStream) -> Iterator[tuple]:
    current: List[Any] = []
    for item in s.items():
        if item is Tick:
            yield tuple(current)
            current = []
        else:
            current.append(item.payload)
    if current:
        raise ModelError("timed stream ended inside a slot (trailing messages without a tick)")


def merge_timed(a: TimedStream, b: TimedStream) -> TimedStream:
    """Slot-synchronous merge: per slot, all of a's messages tagged FromA,
    then all of b's tagged FromB, then one tick.  Runs for as many slots as
    both streams provide."""

    def produce():
        for slot_a, slot_b in zip(_slot_iter(a), _slot_iter(b)):
            for payload in slot_a:
                yield Msg(FromA(payload))
            for payload in slot_b:
                yield Msg(FromB(payload))
            yield Tick

    horizons = [h for h in (a.horizon, b.horizon) if h is not None]
    horizon = min(horizons) if horizons else None
    return TimedStream(produce, horizon=horizon)


def demux_timed(s: TimedStream) -> Tuple[TimedStream, TimedStream]:
    """Split a merged stream back into its two channels.  FromA payloads go
    to the first output, FromB to the second; every tick goes to both."""

    def route(tag):
        def produce():
            for item in s.items():
                if item is Tick:
                    yield Tick
                elif isinstance(item.payload, tag):
                    yield Msg(item.payload.payload)
                elif isinstance(item.payload, (FromA, FromB)):
                    continue
                else:
                    raise ModelError(f"demux saw untagged payload {item.payload!r}")

        return TimedStream(produce, horizon=s.horizon)

    return route(FromA), route(FromB)


@dataclass
class _Component:
    name: str
    start: Any
    delta: Delta
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]


class NetworkSpec:
    """A static wiring of named machines.

    Wires are named channels; a wire is produced by exactly one component
    output (or arrives as an external input) and may feed any number of
    component inputs.  Feedback is legal as long as every cycle passes
    through a wire carrying a tick-bearing initializer, which delays the
    cycle by at least one slot.

    Machines must be tick-aware (e.g. built with lift_timed/attach_timer).
    A machine with two input ports sees its inputs merged FromA/FromB in
    port order; a machine with two output ports must emit FromA/FromB
    payloads, which are routed to the first and second port respectively.
    """

    def __init__(self):
        self._components: Dict[str, _Component] = {}
        self._producers: Dict[str, str] = {}
        self._initializers: Dict[str, tuple] = {}
        self._wire_order: List[str] = []

    def add_machine(self, name: str, start, delta: Delta, *, inputs: Sequence[str], outputs: Sequence[str]):
        if name in self._components:
            raise ValueError(f"duplicate component {name!r}")
        if not 1 <= len(inputs) <= 2 or not 1 <= len(outputs) <= 2:
            raise ValueError("components support one or two ports per direction")
        comp = _Component(name, start, delta, tuple(inputs), tuple(outputs))
        for wire in comp.inputs:
            self._note_wire(wire)
        for wire in comp.outputs:
            if wire in self._producers:
                raise ValueError(f"wire {wire!r} already produced by {self._producers[wire]!r}")
            self._producers[wire] = name
            self._note_wire(wire)
        self._components[name] = comp
        return self

    def initialize(self, wire: str, items: Sequence[Any]):
        """Prepend items (messages and ticks) to a wire, ahead of whatever
        its producer emits.  An initializer containing a tick delays every
        reader of the wire by one slot per tick."""
        self._note_wire(wire)
        self._initializers[wire] = tuple(items)
        return self

    def _note_wire(self, wire: str):
        if wire not in self._wire_order:
            self._wire_order.append(wire)

    @property
    def wire_order(self) -> Tuple[str, ...]:
        return tuple(self._wire_order)

    def external_wires(self) -> Tuple[str, ...]:
        return tuple(w for w in self._wire_order if w not in self._producers)

    def _schedule(self) -> List[_Component]:
        # Edges along wires without a tick-bearing initializer; initialized
        # wires provide their first slot(s) up front and so do not constrain
        # the order within a round.
        def delayed(wire):
            return any(item is Tick for item in self._initializers.get(wire, ()))

        consumers: Dict[str, List[str]] = {}
        for comp in self._components.values():
            for wire in comp.inputs:
                consumers.setdefault(wire, []).append(comp.name)

        blocking: Dict[str, List[str]] = {name: [] for name in self._components}
        for wire, producer in self._producers.items():
            if delayed(wire):
                continue
            for consumer in consumers.get(wire, []):
                blocking[consumer].append(producer)

        order: List[str] = []
        placed = set()
        pending = list(self._components)
        while pending:
            progressed = False
            for name in list(pending):
                if all(dep in placed for dep in blocking[name]):
                    order.append(name)
                    placed.add(name)
                    pending.remove(name)
                    progressed = True
            if not progressed:
                raise DeadlockDetected(
                    f"components {sorted(pending)} form a cycle with no tick-bearing initializer"
                )
        return [self._components[name] for name in order]


@dataclass
class NetworkRun:
    """Recorded wire histories of a network run: per wire, one payload tuple
    per slot, truncated uniformly to the requested horizon."""

    wire_order: Tuple[str, ...]
    slots: Dict[str, List[tuple]]
    horizon: int


# A slot step: (state, one payload tuple per input port) -> (state, one
# payload tuple per output port).
SlotStep = Callable[[Any, Sequence[tuple]], Tuple[Any, Tuple[tuple, ...]]]


def _slot_step(comp: _Component) -> SlotStep:
    """Adapt a component's tick-aware delta into a slot step.  The slot's
    messages (tagged FromA/FromB by port when there are two inputs) and then
    one tick are fed to the delta; its outputs must hold exactly one tick,
    last, and with two output ports every payload must be tagged FromA or
    FromB to pick its port."""
    delta, name = comp.delta, comp.name
    tags = (FromA, FromB) if len(comp.inputs) == 2 else (None,)
    split = len(comp.outputs) == 2

    def tick_error(produced):
        ticks = sum(1 for item in produced if item is Tick)
        return ModelError(
            f"component {name!r} emitted {ticks} tick(s) in one slot; expected exactly one, last"
        )

    def step(state, in_slots):
        produced: List[Any] = []
        for tag, slot in zip(tags, in_slots):
            for payload in slot:
                state, outputs = delta(state, Msg(tag(payload) if tag else payload))
                produced += outputs
        state, outputs = delta(state, Tick)
        produced += outputs
        if not produced or produced[-1] is not Tick:
            raise tick_error(produced)
        payloads = []
        for item in produced[:-1]:
            if item is Tick:
                raise tick_error(produced)
            payloads.append(item.payload)
        if not split:
            return state, (tuple(payloads),)
        first, second = [], []
        for payload in payloads:
            if isinstance(payload, FromA):
                first.append(payload.payload)
            elif isinstance(payload, FromB):
                second.append(payload.payload)
            else:
                raise ModelError(
                    f"component {name!r} has two output ports but emitted "
                    f"untagged payload {payload!r}"
                )
        return state, (tuple(first), tuple(second))

    return step


def run_network(spec: NetworkSpec, external: Dict[str, TimedStream], slots: int) -> NetworkRun:
    """Evaluate the network over the first `slots` slots and record every
    wire's history.  Identical spec, inputs and slot count give identical
    histories.

    Each slot every component takes one step, in topological order of the
    initializer-broken wiring graph.  An initializer's ticks pre-fill its
    wire's first slots; messages after its last tick go in front of the
    producer's first slot.
    """
    missing = [w for w in spec.external_wires() if w not in external]
    if missing:
        raise ValueError(f"no stream supplied for external wire(s) {missing}")
    unknown = [w for w in external if w not in spec.external_wires()]
    if unknown:
        raise ValueError(f"streams supplied for non-external wire(s) {unknown}")

    order = spec._schedule()
    history: Dict[str, List[tuple]] = {w: [] for w in spec.wire_order}
    lead: Dict[str, tuple] = {}
    for wire, items in spec._initializers.items():
        current: List[Any] = []
        for item in items:
            if item is Tick:
                history[wire].append(tuple(current))
                current = []
            else:
                current.append(item.payload if isinstance(item, Msg) else item)
        if current and wire in spec._producers:
            lead[wire] = tuple(current)

    feeds = [(history[name], _slot_iter(stream)) for name, stream in external.items()]
    plan = [(comp, _slot_step(comp), [history[w] for w in comp.inputs],
             [history[w] for w in comp.outputs]) for comp in order]
    states = [comp.start for comp in order]
    for index in range(slots):
        for wire_history, feed in feeds:
            try:
                wire_history.append(next(feed))
            except StopIteration:
                raise ModelError(
                    f"external input ended after {index} slots, {slots} requested"
                ) from None
        for position, (comp, step, reads, writes) in enumerate(plan):
            try:
                in_slots = [wire_history[index] for wire_history in reads]
            except IndexError:
                wire = next(w for w, h in zip(comp.inputs, reads) if len(h) <= index)
                raise DeadlockDetected(
                    f"wire {wire!r} has no slot {index} yet; cycle lacks sufficient initial delay"
                ) from None
            states[position], out_slots = step(states[position], in_slots)
            for wire_history, slot in zip(writes, out_slots):
                wire_history.append(slot)
            if lead:
                for wire, wire_history in zip(comp.outputs, writes):
                    if wire in lead:
                        wire_history[-1] = lead.pop(wire) + wire_history[-1]

    for wire_history in history.values():
        del wire_history[slots:]
    return NetworkRun(spec.wire_order, history, slots)
