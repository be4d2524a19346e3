"""Timed message streams over a global discrete clock.

A channel history is a sequence of messages interleaved with clock ticks.
The run of messages strictly before a tick forms one *time slot*; the tick
closes the slot.  Conceptually these histories are infinite (the clock never
stops), so streams are represented as restartable producers and every
assertion is made over a bounded observation: the first `n` items, or the
first `k` slots.

Two observations of the same stream definition see the same items, i.e.
``take_items`` and friends are pure.  A raw iterator obtained from a stream
is single-consumer; share the stream, not the iterator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, List, Optional


class _Tick:
    """The clock-advance pseudo-message. A single shared instance, ``Tick``."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Tick"


Tick = _Tick()


@dataclass(frozen=True)
class Msg:
    """A payload-carrying item of a timed stream."""

    payload: Any

    def __repr__(self):
        return f"Msg({self.payload!r})"


# A stream item is either a Msg or the Tick sentinel.
TickedItem = Any


class TimedStream:
    """A restartable producer of ticked items.

    ``source`` is a zero-argument callable returning a fresh iterator; each
    observation restarts production from the beginning.  ``horizon``, when
    declared, is the number of ticks the producer will emit before stopping
    (the desk-scale stand-in for "infinitely many ticks").
    """

    __slots__ = ("_source", "horizon")

    def __init__(self, source: Callable[[], Iterator[TickedItem]], horizon: Optional[int] = None):
        self._source = source
        self.horizon = horizon

    def items(self) -> Iterator[TickedItem]:
        """A fresh single-use iterator over the stream's items."""
        return iter(self._source())

    @classmethod
    def from_items(cls, items: Iterable[TickedItem]) -> "TimedStream":
        fixed = tuple(items)
        ticks = sum(1 for it in fixed if it is Tick)
        return cls(lambda: iter(fixed), horizon=ticks)

    def __repr__(self):
        h = "unbounded" if self.horizon is None else f"horizon={self.horizon}"
        return f"<TimedStream {h}>"


def concat_streams(s1: TimedStream, s2: TimedStream) -> TimedStream:
    """Chain two stream producers. The second is not started (its source is
    not even invoked) until the first is exhausted, so an unbounded first
    stream absorbs the second over any bounded observation."""

    def produce():
        yield from s1.items()
        yield from s2.items()

    if s1.horizon is None or s2.horizon is None:
        horizon = None
    else:
        horizon = s1.horizon + s2.horizon
    return TimedStream(produce, horizon=horizon)


def filter_set(keep, s) -> tuple:
    """Keep exactly the items of `s` that are members of `keep`, in order.

    Accepts an untimed sequence or a bounded view of a timed stream.  Msg
    items are matched on their payload and yield the bare payload, so
    filtering a ticked view by a payload set is the untiming abstraction;
    Tick survives only if the tick token itself is in `keep`.
    """
    out = []
    for item in s:
        if item is Tick:
            if Tick in keep:
                out.append(Tick)
        elif isinstance(item, Msg):
            if item.payload in keep:
                out.append(item.payload)
        elif item in keep:
            out.append(item)
    return tuple(out)


def inject_ticks(slots: Iterable[Iterable[Any]]) -> TimedStream:
    """Build a timed stream from per-slot message lists: each slot emits its
    messages in order and is closed by one tick. Horizon = number of slots."""
    fixed = tuple(tuple(slot) for slot in slots)

    def produce():
        for slot in fixed:
            for payload in slot:
                yield Msg(payload)
            yield Tick

    return TimedStream(produce, horizon=len(fixed))


def take_items(s: TimedStream, n: int) -> tuple:
    """The first `n` items of the stream (fewer if it ends earlier)."""
    return tuple(itertools.islice(s.items(), n))


def _split_slots(items: Iterable[TickedItem], rest: List[Any]) -> Iterator[tuple]:
    """Lazily, one payload tuple per tick-closed slot of `items`; once they
    run out, the payloads after the last tick are appended to `rest`."""
    current: List[Any] = []
    for item in items:
        if item is Tick:
            yield tuple(current)
            current = []
        else:
            current.append(item.payload)
    rest.extend(current)


def take_slots(s: TimedStream, k: int) -> tuple:
    """The first `k` slots as payload tuples. Terminates given tick progress;
    raises if the producer ends inside a slot or before `k` ticks."""
    if s.horizon is not None and k > s.horizon:
        raise ValueError(f"requested {k} slots from a stream with horizon {s.horizon}")
    slots = tuple(itertools.islice(_split_slots(s.items(), []), k))
    if len(slots) < k:
        raise ValueError(f"stream ended after {len(slots)} slots, {k} requested")
    return slots


def untime(s: TimedStream, slots: int) -> tuple:
    """All message payloads in the first `slots` slots, ticks removed."""
    result = []
    for slot in take_slots(s, slots):
        result.extend(slot)
    return tuple(result)


def all_ticks(horizon: Optional[int] = None) -> TimedStream:
    """A stream of empty slots; unbounded when no horizon is given."""
    if horizon is None:
        return TimedStream(lambda: itertools.repeat(Tick))
    return inject_ticks([()] * horizon)


def render_items(items: Iterable[TickedItem], fmt=repr) -> str:
    """Trace rendering: payload literals separated by spaces, ticks as `~`."""
    parts = []
    for item in items:
        if item is Tick:
            parts.append("~")
        else:
            parts.append(fmt(item.payload))
    return " ".join(parts)
