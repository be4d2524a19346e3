"""Execution runtime for stream-processing state machines.

Machines are pure transition functions ``delta(state, input) -> (state,
outputs)`` with a finite output sequence per step.  The runtime supplies
everything the hand-written models are executed against: machine execution
over input sequences, lifting untimed machines to tick-aware ones, timer
attachment, slot-synchronous channel merge/demux, and ``run_network``, the
deterministic per-slot evaluator of component networks with feedback wires.
Timed streams are read slot by slot (``TimedStream.slots``).  Each wrapper,
``lift_timed`` and ``attach_timer``, is written once, as a *slot rule*
(state, one slot's payloads) -> (state, output payloads), which
``run_network`` calls once per slot.  The paper's Msg/Tick item form, the
delta the wrapper returns, is derived from that rule: a message is a slot
of one payload with no tick, and a tick is an empty slot.  Any other
tick-aware delta reaches ``run_network`` through one generic adapter,
which feeds it the slot's messages and then one tick.

Timer semantics (fixed here, relied on everywhere else): ``SetTimer n``
arms a countdown of n ticks; each subsequent tick decrements; the timeout
event is delivered to the inner machine during the n-th tick, before that
tick is emitted, and a ``SetTimer`` issued by the timeout handler re-arms
the counter.  ``SetTimer -1`` disables the timer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

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


def _timed(rule: Callable[..., Tuple[Any, tuple]]) -> Delta:
    """The Msg/Tick item form of a slot rule ``(state, payloads, tick=True)
    -> (state, output payloads)``: ``Msg(p)`` is the slot ``(p,)`` with no
    tick, and ``Tick`` the empty slot with its tick, outputs boxed in Msg and
    the tick emitted last.  The rule rides along as the item form's slot
    form, which `run_network` calls with the tick."""

    def timed(state, item):
        if item is Tick:
            state, outputs = rule(state, ())
            return state, (*map(Msg, outputs), Tick)
        state, outputs = rule(state, (item.payload,), False)
        return state, tuple(map(Msg, outputs))

    timed._slot_form = rule
    return timed


def lift_timed(delta: Delta) -> Delta:
    """Make an untimed machine tick-aware: ticks pass through unchanged
    (state untouched), messages run the inner machine with Msg wrapping.

    Its slot rule runs the inner machine on each payload in order."""

    def rule(state, payloads, tick=True):
        produced: List[Any] = []
        for payload in payloads:
            state, outputs = delta(state, payload)
            produced += outputs
        return state, tuple(produced)

    return _timed(rule)


def attach_timer(delta: Delta) -> Delta:
    """Wrap a machine that speaks MsgI/TimeoutEvent and MsgO/SetTimer into a
    tick-aware machine owning a countdown timer.

    State becomes ``(inner state, counter)`` with counter -1 when disabled.
    Its slot rule feeds MsgI(p) for each payload; inner outputs are emitted
    in order, and each SetTimer is absorbed into the counter (last one
    wins).  Then, on the slot's tick, the counter is decremented; when it
    would hit zero the inner machine receives TimeoutEvent within the same
    slot, its outputs are processed the same way, and the tick is emitted
    last.
    """

    def absorb(inner_outputs, counter, emitted):
        # MsgO payloads go to `emitted`; the counter after every SetTimer.
        for out in inner_outputs:
            if isinstance(out, SetTimer):
                if out.slots == 0 or out.slots < DISABLED:
                    raise InvalidTimerValue(f"SetTimer({out.slots})")
                counter = out.slots
            elif isinstance(out, MsgO):
                emitted.append(out.payload)
            else:
                raise ModelError(f"timer machine produced {out!r}, expected MsgO or SetTimer")
        return counter

    def rule(state_counter, payloads, tick=True):
        state, counter = state_counter
        emitted: List[Any] = []
        for payload in payloads:
            state, inner_outputs = delta(state, MsgI(payload))
            counter = absorb(inner_outputs, counter, emitted)
        if tick:
            if counter >= 2:
                counter -= 1
            elif counter == 1:
                state, inner_outputs = delta(state, TimeoutEvent)
                counter = absorb(inner_outputs, DISABLED, emitted)
        return (state, counter), tuple(emitted)

    return _timed(rule)


def _merge_slot(slot_a: tuple, slot_b: tuple) -> tuple:
    """One slot of two merged channels: a's payloads tagged FromA, then b's
    tagged FromB."""
    return tuple(map(FromA, slot_a)) + tuple(map(FromB, slot_b))


def _demux_slot(payloads: Iterable[Any], culprit: str) -> Tuple[tuple, tuple]:
    """One slot split back into two channels: FromA payloads to the first,
    FromB to the second; an untagged payload raises ModelError."""
    first, second = [], []
    for payload in payloads:
        if isinstance(payload, FromA):
            first.append(payload.payload)
        elif isinstance(payload, FromB):
            second.append(payload.payload)
        else:
            raise ModelError(f"{culprit} untagged payload {payload!r}")
    return tuple(first), tuple(second)


def merge_timed(a: TimedStream, b: TimedStream) -> TimedStream:
    """Slot-synchronous merge: per slot, all of a's messages tagged FromA,
    then all of b's tagged FromB, then one tick.  Runs for as many slots as
    both streams provide."""
    return TimedStream(lambda: map(_merge_slot, a.slots(), b.slots()))


def demux_timed(s: TimedStream) -> Tuple[TimedStream, TimedStream]:
    """Split a merged stream back into its two channels, slot by slot.
    FromA payloads go to the first output, FromB to the second; every tick
    goes to both."""

    def route(port):
        return TimedStream(lambda: (_demux_slot(slot, "demux saw")[port] for slot in s.slots()))

    return route(0), route(1)


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
    Two-port components follow the merge/demux slot rule: a machine with
    two input ports sees each slot of its inputs merged FromA/FromB in port
    order, and a machine with two output ports must emit FromA/FromB
    payloads, which are routed to the first and second port respectively.
    """

    def __init__(self):
        self._components: Dict[str, _Component] = {}
        self._producers: Dict[str, str] = {}
        # Per initialized wire: (pre-filled slots, messages after the last tick).
        self._initializers: Dict[str, Tuple[Tuple[tuple, ...], tuple]] = {}
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
        """Make `items` (Msg and Tick only) a prefix of the wire, ahead of
        whatever it is fed or its producer emits.  Each tick pre-fills one
        whole slot, delaying every reader of the wire by one slot; the
        messages after the last tick go in front of the wire's first fed or
        produced slot."""
        slots: List[tuple] = []
        current: List[Any] = []
        for item in items:
            if item is Tick:
                slots.append(tuple(current))
                current = []
            elif isinstance(item, Msg):
                current.append(item.payload)
            else:
                raise ValueError(f"initializer of wire {wire!r} holds {item!r}, not Msg or Tick")
        self._note_wire(wire)
        self._initializers[wire] = (tuple(slots), tuple(current))
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
        # A component steps after the producers of its input wires, except
        # along wires whose initializer pre-fills slots: those are a slot
        # ahead and so do not constrain the order within a round.
        delayed = {wire for wire, (slots, _) in self._initializers.items() if slots}
        blocking = {
            comp.name: [self._producers[wire] for wire in comp.inputs
                        if wire in self._producers and wire not in delayed]
            for comp in self._components.values()
        }
        order: List[str] = []
        while len(order) < len(blocking):
            placed = len(order)
            for name, deps in blocking.items():
                if name not in order and all(dep in order for dep in deps):
                    order.append(name)
            if len(order) == placed:
                pending = sorted(name for name in blocking if name not in order)
                raise DeadlockDetected(
                    f"components {pending} form a cycle with no tick-bearing initializer"
                )
        return [self._components[name] for name in order]


@dataclass
class NetworkRun:
    """Recorded wire histories of a network run: per wire, one payload tuple
    per slot, truncated uniformly to the requested horizon."""

    wire_order: Tuple[str, ...]
    slots: Dict[str, List[tuple]]


# A slot step: (state, one payload tuple per input port) -> (state, one
# payload tuple per output port).
SlotStep = Callable[[Any, Sequence[tuple]], Tuple[Any, Tuple[tuple, ...]]]


def _item_slot_form(delta: Delta, name: str) -> Callable[[Any, Sequence[Any]], Tuple[Any, tuple]]:
    """The slot form of a hand-written tick-aware delta: the slot's
    messages and then one tick are fed to the delta, and its outputs must
    hold exactly one tick, last."""

    def slot_form(state, payloads):
        state, produced = run_machine(state, delta, [*map(Msg, payloads), Tick])
        ticks = sum(1 for item in produced if item is Tick)
        if ticks != 1 or produced[-1] is not Tick:
            raise ModelError(
                f"component {name!r} emitted {ticks} tick(s) in one slot; expected exactly one, last"
            )
        return state, tuple(item.payload for item in produced[:-1])

    return slot_form


def _slot_step(comp: _Component) -> SlotStep:
    """Adapt a component's delta into a slot step: its slot form (the slot
    rule of `lift_timed`/`attach_timer`, else `_item_slot_form`) applied to
    the slot's payloads, merged by `_merge_slot` when there are two inputs,
    and with two output ports the output split by `_demux_slot`."""
    slot_form = getattr(comp.delta, "_slot_form", None) or _item_slot_form(comp.delta, comp.name)
    merge = len(comp.inputs) == 2
    split = len(comp.outputs) == 2
    culprit = f"component {comp.name!r} has two output ports but emitted"

    def step(state, in_slots):
        state, payloads = slot_form(state, _merge_slot(*in_slots) if merge else in_slots[0])
        if split:
            return state, _demux_slot(payloads, culprit)
        return state, (payloads,)

    return step


def run_network(spec: NetworkSpec, external: Dict[str, TimedStream], slots: int) -> NetworkRun:
    """Evaluate the network over the first `slots` slots and record every
    wire's history.  Identical spec, inputs and slot count give identical
    histories; a negative slot count raises ValueError.

    Each round every external wire is fed one slot, then every component
    takes one step, in topological order of the initializer-broken wiring
    graph (but see quiet rounds below).  Initializers are wire prefixes
    (see `NetworkSpec.initialize`).  A reader in round i always finds slot
    i of its wire: external wires are fed first, an undelayed wire's
    producer steps before its readers, and a delayed wire starts a
    pre-filled slot ahead.  So the only deadlock is a failed schedule,
    raised as DeadlockDetected before any delta is called.

    Quiet rounds are fast-forwarded.  Once a round leaves every component
    state equal (``==``) to its state before the round, and every wire is
    empty from that slot on (slots initializers filled ahead included), the
    network is at a fixed point: while every external wire is fed an empty
    slot, each produced wire gets an empty slot and no delta is called.  A
    non-empty fed slot resumes stepping.  This relies on the contract of
    every delta: it is pure, and states that compare equal behave alike.  A
    state that never compares equal to its predecessor just disables the
    shortcut; the histories are the same either way.
    """
    if slots < 0:
        raise ValueError(f"slot count must be >= 0, got {slots}")
    external_wires = spec.external_wires()
    missing = [w for w in external_wires if w not in external]
    if missing:
        raise ValueError(f"no stream supplied for external wire(s) {missing}")
    unknown = [w for w in external if w not in external_wires]
    if unknown:
        raise ValueError(f"streams supplied for non-external wire(s) {unknown}")

    order = spec._schedule()
    history: Dict[str, List[tuple]] = {w: [] for w in spec.wire_order}
    lead: Dict[str, tuple] = {}
    for wire, (prefilled, rest) in spec._initializers.items():
        history[wire].extend(prefilled)
        if rest:
            lead[wire] = rest

    def land(wires):
        # Every wire gets its first fed or produced slot in round 0, so
        # `lead` is empty, and `land` no longer called, from round 1 on.
        for wire in wires:
            if wire in lead:
                history[wire][-1] = lead.pop(wire) + history[wire][-1]

    feeds = [(wire, history[wire], stream.slots()) for wire, stream in external.items()]
    plan = [(comp.outputs, _slot_step(comp), [history[w] for w in comp.inputs],
             [history[w] for w in comp.outputs]) for comp in order]
    produced = [wire_history for *_, writes in plan for wire_history in writes]
    states = [comp.start for comp in order]
    settled = False
    for index in range(slots):
        quiet = True
        for wire, wire_history, feed in feeds:
            try:
                slot = next(feed)
            except StopIteration:
                raise ModelError(
                    f"external input ended after {index} slots, {slots} requested"
                ) from None
            if not isinstance(slot, tuple):
                raise ModelError(f"external wire {wire!r} was fed a {type(slot).__name__} "
                                 f"in slot {index}, not a tuple of payloads")
            wire_history.append(slot)
            if slot:
                quiet = False
        if settled:
            if quiet:
                for wire_history in produced:
                    wire_history.append(())
                continue
            settled = False
        if lead:
            land(external)
        # A non-empty fed slot rules out settling this round, so then no
        # state needs comparing.
        unchanged = quiet
        for position, (outputs, step, reads, writes) in enumerate(plan):
            state = states[position]
            states[position], out_slots = step(
                state, [wire_history[index] for wire_history in reads]
            )
            if unchanged:
                unchanged = states[position] == state
            for wire_history, slot in zip(writes, out_slots):
                wire_history.append(slot)
            if lead:
                land(outputs)
        # Settled once no state moved and every slot a later round reads
        # without a further step is empty: slot `index` and the slots
        # initializers filled ahead.  (`lead` is empty after round 0.)
        settled = unchanged and not any(
            any(wire_history[index:]) for wire_history in history.values()
        )

    for wire_history in history.values():
        del wire_history[slots:]
    return NetworkRun(spec.wire_order, history)
