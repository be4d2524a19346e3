"""Execution runtime for stream-processing state machines.

Machines are pure transition functions ``delta(state, input) -> (state,
outputs)`` with a finite output sequence per step.  The runtime supplies
everything the hand-written models are executed against: machine execution
over input sequences, lifting untimed machines to tick-aware ones, timer
attachment, slot-synchronous channel merge/demux, and ``run_network``, the
deterministic per-slot evaluator of component networks with feedback wires.
Timed streams (``TimedStream.slots``), wire histories and initializers
(``NetworkSpec.initialize``) all hold whole slots, each closed by its tick,
so every round of ``run_network`` is the same loop.  Each wrapper,
``lift_timed`` and ``attach_timer``, is written once, as a *slot rule*
(state, one slot's payloads) -> (state, output payloads), which
``run_network`` calls once per stepped slot through the component's round
step, a closure bound to its wires.  The paper's Msg/Tick item form, the
delta the wrapper returns, is derived from that rule: a message is a slot
of one payload with no tick, and a tick is an empty slot.  Any other
tick-aware delta reaches ``run_network`` through one generic adapter,
which feeds it the slot's messages and then one tick.  ``FromA``, ``FromB``,
``MsgI`` and ``MsgO`` take ``streams._set_payload`` as their constructor,
and ``TimeoutEvent`` is a ``streams._Signal``.

Timer semantics (fixed here, relied on everywhere else): ``SetTimer n``
arms a countdown of n ticks; each subsequent tick decrements; the timeout
event is delivered to the inner machine during the n-th tick, before that
tick is emitted, and a ``SetTimer`` issued by the timeout handler re-arms
the counter.  ``SetTimer -1`` disables the timer.
"""

from __future__ import annotations

from itertools import compress, count, islice, repeat
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .streams import Msg, Tick, TimedStream, _Signal, _Value, _set_payload

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


class FromA(_Value):
    """Message tagged as coming from the first of two merged channels."""

    __slots__ = ("payload",)
    __init__ = _set_payload


class FromB(_Value):
    """Message tagged as coming from the second of two merged channels."""

    __slots__ = ("payload",)
    __init__ = _set_payload


class MsgI(_Value):
    """Ordinary input to a timer-owning machine."""

    __slots__ = ("payload",)
    __init__ = _set_payload


class _TimeoutEvent(_Signal):
    __slots__ = ()
    _name = "TimeoutEvent"


TimeoutEvent = _TimeoutEvent()


class MsgO(_Value):
    """Ordinary output of a timer-owning machine."""

    __slots__ = ("payload",)
    __init__ = _set_payload


class SetTimer(_Value):
    """Arm the ambient timer for `slots` ticks; -1 disables it."""

    __slots__ = ("slots",)

    def __init__(self, slots: int):
        (set_slots,) = self._setters
        set_slots(self, slots)


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
        if not payloads:
            return state, ()
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


def _demux_slot(payloads: Iterable[Any], component: Optional[str] = None) -> Tuple[tuple, tuple]:
    """One slot split back into two channels: FromA payloads to the first,
    FromB to the second; an untagged payload raises ModelError, naming the
    two-port `component` that emitted it, if one did."""
    first, second = [], []
    for payload in payloads:
        if isinstance(payload, FromA):
            first.append(payload.payload)
        elif isinstance(payload, FromB):
            second.append(payload.payload)
        else:
            culprit = ("demux saw" if component is None else
                       f"component {component!r} has two output ports but emitted")
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
        return TimedStream(lambda: (_demux_slot(slot)[port] for slot in s.slots()))

    return route(0), route(1)


class _Component(_Value):
    __slots__ = ("name", "start", "delta", "inputs", "outputs")

    def __init__(self, name: str, start: Any, delta: Delta, inputs: Tuple[str, ...],
                 outputs: Tuple[str, ...]):
        set_name, set_start, set_delta, set_inputs, set_outputs = self._setters
        set_name(self, name)
        set_start(self, start)
        set_delta(self, delta)
        set_inputs(self, inputs)
        set_outputs(self, outputs)


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
        # Per initialized wire: its pre-filled slots, at least one.
        self._initializers: Dict[str, Tuple[tuple, ...]] = {}
        self._wire_order: List[str] = []

    def add_machine(self, name: str, start, delta: Delta, *, inputs: Sequence[str], outputs: Sequence[str]):
        if name in self._components:
            raise ValueError(f"duplicate component {name!r}")
        if isinstance(inputs, str) or isinstance(outputs, str):
            raise ValueError(f"component {name!r}: ports must be a sequence of wire names, "
                             f"not a str")
        if not 1 <= len(inputs) <= 2 or not 1 <= len(outputs) <= 2:
            raise ValueError("components support one or two ports per direction")
        comp = _Component(name, start, delta, tuple(inputs), tuple(outputs))
        for wire in comp.outputs:
            if wire in self._producers:
                raise ValueError(f"wire {wire!r} already produced by {self._producers[wire]!r}")
        if len(comp.outputs) == 2 and comp.outputs[0] == comp.outputs[1]:
            raise ValueError(f"component {name!r} lists output wire {comp.outputs[0]!r} twice")
        # Every check passed: only now does the call change the spec.
        for wire in comp.inputs:
            self._note_wire(wire)
        for wire in comp.outputs:
            self._producers[wire] = name
            self._note_wire(wire)
        self._components[name] = comp
        return self

    def initialize(self, wire: str, items: Sequence[Any]):
        """Pre-fill the wire with whole slots: `items` (Msg and Tick only)
        are read as slots, each closed by its Tick, and go ahead of whatever
        the wire is fed or its producer emits, delaying every reader by one
        slot per tick.  A message after the last tick is a ValueError, and
        so is a second non-empty initializer of the wire; an empty list
        pre-fills nothing."""
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
        if current:
            raise ValueError(f"initializer of wire {wire!r} has {len(current)} message(s) "
                             f"after its last Tick; each slot must be closed by a Tick")
        self._note_wire(wire)
        if slots:
            if wire in self._initializers:
                raise ValueError(f"wire {wire!r} is already initialized")
            self._initializers[wire] = tuple(slots)
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
        delayed = set(self._initializers)
        blocking = {
            comp.name: [self._producers[wire] for wire in comp.inputs
                        if wire in self._producers and wire not in delayed]
            for comp in self._components.values()
        }
        # Repeated passes in insertion order, each placing every component
        # whose blockers are all placed, earlier in the same pass included.
        order: List[_Component] = []
        placed = set()
        while len(order) < len(blocking):
            before = len(order)
            for name, deps in blocking.items():
                if name not in placed and placed.issuperset(deps):
                    placed.add(name)
                    order.append(self._components[name])
            if len(order) == before:
                pending = sorted(blocking.keys() - placed)
                raise DeadlockDetected(
                    f"components {pending} form a cycle with no tick-bearing initializer"
                )
        return order


class NetworkRun(_Value):
    """Recorded wire histories of a network run over `horizon` slots.

    `stored` holds, per wire, one payload tuple per slot up to the slot the
    network fell quiet in, the same length on every wire; every slot from
    there to the horizon is empty, and is not stored.  `slots` is the full
    view, each wire padded with empty slots to the horizon."""

    __slots__ = ("wire_order", "stored", "horizon")

    def __init__(self, wire_order: Tuple[str, ...], stored: Dict[str, List[tuple]],
                 horizon: int):
        set_wire_order, set_stored, set_horizon = self._setters
        set_wire_order(self, wire_order)
        set_stored(self, stored)
        set_horizon(self, horizon)

    @property
    def slots(self) -> Dict[str, List[tuple]]:
        """Every wire's history over the whole horizon, as new lists."""
        return {wire: wire_history + [()] * (self.horizon - len(wire_history))
                for wire, wire_history in self.stored.items()}


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


def _round_step(comp: _Component, history: Dict[str, List[tuple]]) -> Callable[[Any, int], Any]:
    """Bind a component to the wire histories as ``advance(state, index) ->
    state``: read slot `index` of each input wire (two merged by
    `_merge_slot` unless both are empty), apply the slot form (the
    `lift_timed`/`attach_timer` rule, else `_item_slot_form`), and append
    the output slot, split by `_demux_slot` over two output ports."""
    slot_form = getattr(comp.delta, "_slot_form", None) or _item_slot_form(comp.delta, comp.name)
    # With one port, `second` and `put_second` alias the first, unused.
    first, second = history[comp.inputs[0]], history[comp.inputs[-1]]
    merge = len(comp.inputs) == 2
    put, put_second = history[comp.outputs[0]].append, history[comp.outputs[-1]].append
    split = len(comp.outputs) == 2

    def advance(state, index):
        payloads = first[index]
        if merge and (payloads or second[index]):
            payloads = _merge_slot(payloads, second[index])
        state, payloads = slot_form(state, payloads)
        if split:
            payloads, rest = _demux_slot(payloads, comp.name) if payloads else ((), ())
            put_second(rest)
        put(payloads)
        return state

    return advance


def run_network(spec: NetworkSpec, external: Dict[str, TimedStream], slots: int) -> NetworkRun:
    """Evaluate the network over the first `slots` slots and record every
    wire's history up to the slot the network falls quiet in; `slots` is
    the run's horizon (see `NetworkRun`).  Identical spec, inputs and slot
    count give identical histories.

    Every input is checked before any delta is called.  A slot count that
    is a bool, not an int or negative raises ValueError, as does a stream
    missing for an external wire or supplied for another wire; a failed
    schedule raises DeadlockDetected.  Then each external wire is read
    once, in feed order (the order of `external`): at most `slots` slots of
    its stream's `produced()` part go straight into its history, and if
    they are fewer, as many empty slots of the stream's idle tail as the
    history still needs are filled in without being read.  An exception
    from the stream's own iterator propagates as it is; after it, a slot
    that is not a tuple, and then a stream that ends before `slots` slots,
    idle tail included, raise ModelError.  So the first faulty wire in feed
    order wins.

    Each round, the first included, then steps every component once (its
    `_round_step`), in topological order of the initializer-broken wiring
    graph, until the network settles (see below).  Initializers pre-fill
    whole slots at the head of their wires (see `NetworkSpec.initialize`).
    A reader in round i always finds slot i of its wire: external wires are
    read first, an undelayed wire's producer steps before its readers, and
    a delayed wire starts a pre-filled slot ahead.  So the only deadlock is
    the failed schedule.

    A settled network stops.  Once a round after the last one fed a
    non-empty slot leaves every component state equal (``==``) to its state
    before the round, and every wire is empty from that slot on (the slots
    initializers filled ahead included, so a fed slot that an initializer
    delays still counts), the network is at a fixed point: no later round
    would call a delta or touch a wire.  So the run stops there, every wire
    is cut there, to one common length, and the rest of the horizon is
    stored as its length alone.  Every earlier round is stepped, quiet or
    not.  This relies on the contract of every delta: it is pure, and
    states that compare equal behave alike.  A state that never compares
    equal to its predecessor just keeps the run going to the horizon; the
    histories are the same either way.
    """
    if isinstance(slots, bool) or not isinstance(slots, int):
        raise ValueError(f"slot count must be an integer, got {slots!r}")
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
    for wire, prefilled in spec._initializers.items():
        history[wire].extend(prefilled)
    # Per wire, the slots the settle check reads after round i: slot i and
    # those its initializer fills ahead.
    ahead = [(history[w], len(history[w]) + 1) for w in spec.wire_order]

    last = -1  # the last round fed a non-empty slot, -1 without one
    for wire, stream in external.items():
        wire_history = history[wire]
        start = len(wire_history)
        wire_history.extend(islice(stream.produced(), slots))
        # The pre-filled slots are tuples, so the whole list is checked.
        if not all(map(isinstance, wire_history, repeat(tuple))):
            index, slot = next((i, slot) for i, slot in enumerate(wire_history[start:])
                               if not isinstance(slot, tuple))
            raise ModelError(f"external wire {wire!r} was fed a {type(slot).__name__} "
                             f"in slot {index}, not a tuple of payloads")
        read = len(wire_history) - start
        fed = islice(reversed(wire_history), read)  # last first
        last = max(last, next(compress(count(read - 1, -1), fed), -1))
        short = slots - read
        if short:
            # The idle tail is filled, not read.
            if stream.idle is not None and stream.idle < short:
                raise ModelError(f"external input ended after {read + stream.idle} slots, "
                                 f"{slots} requested")
            wire_history.extend(repeat((), short))

    plan = [_round_step(comp, history) for comp in order]
    states = [comp.start for comp in order]
    index = 0
    while index < slots:
        # Up to round `last`, the payload fed in that round is still to
        # come, so no round settles and no state needs comparing.
        unchanged = index > last
        for position, advance in enumerate(plan):
            state = states[position]
            states[position] = new = advance(state, index)
            if unchanged:
                unchanged = new == state
        if unchanged and not any(any(wire_history[index:index + reach])
                                 for wire_history, reach in ahead):
            break  # settled: every later round would step nothing
        index += 1

    if index < slots:
        # Stopped early.  `del` holds a pointer to each slot it deletes
        # until it is done, as many as the fed wires hold past `index`, so
        # those are cut by copying what they keep.
        for wire in external:
            history[wire] = history[wire][:index]
    for wire_history in history.values():
        del wire_history[index:]
    return NetworkRun(spec.wire_order, history, slots)
