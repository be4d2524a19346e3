"""Timed message streams over a global discrete clock.

A channel history is a sequence of messages interleaved with clock ticks.
The run of messages strictly before a tick forms one *time slot*; the tick
closes the slot.  A stream stores its slots: a restartable producer of
payload tuples, one per slot, so every stream is tick-closed by
construction.  ``slots()`` is the view the runtime reads, and ``items()``
is the paper's view derived from it: each slot's payloads as ``Msg``, then
one ``Tick``.  Conceptually these histories are infinite (the clock never
stops), so every assertion is made over a bounded observation, such as the
first `k` slots.

Two observations of the same stream see the same slots, i.e. ``take_slots``
is pure.  A raw iterator obtained from a stream is single-consumer; share
the stream, not the iterator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional


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


class TimedStream:
    """A restartable producer of time slots.

    ``source`` is a zero-argument callable returning a fresh iterable of
    payload tuples, one per slot; each observation restarts production from
    the beginning.  ``horizon``, when declared, is the number of slots the
    producer yields before stopping (the desk-scale stand-in for "infinitely
    many ticks").
    """

    __slots__ = ("_source", "horizon")

    def __init__(self, source: Callable[[], Iterable[tuple]], horizon: Optional[int] = None):
        self._source = source
        self.horizon = horizon

    def slots(self) -> Iterator[tuple]:
        """A fresh single-use iterator over the stream's payload tuples."""
        return iter(self._source())

    def items(self) -> Iterator[Any]:
        """A fresh single-use iterator over the stream's Msg/Tick items."""
        for slot in self.slots():
            yield from map(Msg, slot)
            yield Tick

    def __repr__(self):
        h = "unbounded" if self.horizon is None else f"horizon={self.horizon}"
        return f"<TimedStream {h}>"


def inject_ticks(slots: Iterable[Iterable[Any]]) -> TimedStream:
    """Build a timed stream from per-slot message lists: each slot holds its
    messages in order and is closed by one tick. Horizon = number of slots."""
    fixed = tuple(tuple(slot) for slot in slots)
    return TimedStream(lambda: fixed, horizon=len(fixed))


def take_slots(s: TimedStream, k: int) -> tuple:
    """The first `k` slots as payload tuples; raises if `k` exceeds the
    declared horizon or the producer ends before `k` slots."""
    if s.horizon is not None and k > s.horizon:
        raise ValueError(f"requested {k} slots from a stream with horizon {s.horizon}")
    slots = tuple(itertools.islice(s.slots(), k))
    if len(slots) < k:
        raise ValueError(f"stream ended after {len(slots)} slots, {k} requested")
    return slots


def all_ticks(horizon: Optional[int] = None) -> TimedStream:
    """A stream of empty slots; unbounded when no horizon is given."""
    if horizon is None:
        return TimedStream(lambda: itertools.repeat(()))
    return TimedStream(lambda: itertools.repeat((), horizon), horizon=horizon)
