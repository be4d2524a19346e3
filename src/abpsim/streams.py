"""Timed message streams over a global discrete clock.

A channel history is a sequence of messages interleaved with clock ticks.
The run of messages strictly before a tick forms one *time slot*; the tick
closes the slot.  A stream stores its slots: a restartable producer of
payload tuples, one per slot, then a count of empty slots, its idle tail,
so every stream is tick-closed by construction.  ``slots()`` is the whole
view, and ``items()`` is the paper's view derived from it: each slot's
payloads as ``Msg``, then one ``Tick``.  ``produced()`` is the producer's
part alone: the runtime reads that part and fills the idle tail without
reading it.  Conceptually these histories are infinite (the clock never
stops), so every assertion is made over a bounded observation, such as the
first `k` slots.  A stream is as long as its producer runs plus its idle
tail: a finite one simply stops.

Two observations of the same stream see the same slots, i.e. ``take_slots``
is pure.  A raw iterator obtained from a stream is single-consumer; share
the stream, not the iterator.

`_Value` is the base of the value classes, `_set_payload` the constructor
of each whose one field is ``payload``, and `_Signal` the base of ``Tick``
and ``runtime.TimeoutEvent``.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Optional


class _Value:
    """Base of the value classes: a subclass names its fields in
    ``__slots__``, in constructor order, and gets what a frozen dataclass
    would generate for them: the repr ``Name(field=value, ...)``, equality
    and hash by the tuple of field values (never equal to another class),
    fields that cannot be assigned or deleted, and copies and pickles that
    call the class with the field values.  A value holding a dict, such as
    ``NetworkRun``, is unhashable because its field tuple is.

    A constructor sets its fields through ``_setters``, the ``__set__`` of
    each field's slot descriptor in ``__slots__`` order, bound once per
    class: ``set_a, set_b = self._setters`` and then ``set_a(self, a)``.
    That gets past the refusing ``__setattr__`` without looking a field up
    by its name on every call, which made up much of the cost of building
    the many small values a big table loads.

    Dataclasses are not used: importing ``dataclasses`` and compiling the
    methods it generates for each class took about a third of the import
    of the CLI, which is most of every short command."""

    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)
        cls._fields = staticmethod(get if len(cls.__slots__) > 1 else lambda value: (get(value),))
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __repr__(self):
        fields = zip(self.__slots__, self._fields(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields(self)


def _set_payload(self, payload: Any):
    """The constructor of every value class whose one field is ``payload``."""
    self._setters[0](self, payload)


class _Signal:
    """Base of a class of one instance, named `_name` in its module and in
    its repr; calls, copies and pickles (by that name) give it back."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return self._name

    def __reduce__(self):
        return self._name


class _Tick(_Signal):
    """The clock-advance pseudo-message. A single shared instance, ``Tick``."""

    __slots__ = ()
    _name = "Tick"


Tick = _Tick()


class Msg(_Value):
    """A payload-carrying item of a timed stream."""

    __slots__ = ("payload",)
    __init__ = _set_payload

    def __repr__(self):
        return f"Msg({self.payload!r})"


class TimedStream:
    """A restartable producer of time slots, then `idle` empty slots.

    ``source`` is a zero-argument callable returning a fresh iterable of
    payload tuples, one per slot; each observation restarts production from
    the beginning.  After the produced slots come `idle` empty ones, without
    end when `idle` is None, so a stream's long quiet tail is a length, not
    something its producer yields.  The producer and `idle` alone fix the
    stream's length: a finite one is the desk-scale stand-in for
    "infinitely many ticks".
    """

    __slots__ = ("_source", "_idle")

    def __init__(self, source: Callable[[], Iterable[tuple]], idle: Optional[int] = 0):
        if idle is not None and (isinstance(idle, bool) or not isinstance(idle, int) or idle < 0):
            raise ValueError(f"idle must be a non-negative integer or None, got {idle!r}")
        self._source = source
        self._idle = idle

    @property
    def idle(self) -> Optional[int]:
        """The number of empty slots after the produced ones; None for no end."""
        return self._idle

    def produced(self) -> Iterator[tuple]:
        """A fresh single-use iterator over the slots the producer yields,
        without the idle tail."""
        return iter(self._source())

    def slots(self) -> Iterator[tuple]:
        """A fresh single-use iterator over the stream's payload tuples: the
        produced slots, then the idle tail."""
        tail = itertools.repeat(()) if self._idle is None else itertools.repeat((), self._idle)
        return itertools.chain(self.produced(), tail)

    def items(self) -> Iterator[Any]:
        """A fresh single-use iterator over the stream's Msg/Tick items."""
        for slot in self.slots():
            yield from map(Msg, slot)
            yield Tick


def inject_ticks(slots: Iterable[Iterable[Any]]) -> TimedStream:
    """Build a timed stream from per-slot message lists: each slot holds its
    messages in order and is closed by one tick."""
    fixed = tuple(tuple(slot) for slot in slots)
    return TimedStream(lambda: fixed)


def take_slots(s: TimedStream, k: int) -> tuple:
    """The first `k` slots as payload tuples; raises if the producer ends
    before `k` slots."""
    slots = tuple(itertools.islice(s.slots(), k))
    if len(slots) < k:
        raise ValueError(f"stream ended after {len(slots)} slots, {k} requested")
    return slots


def all_ticks(horizon: Optional[int] = None) -> TimedStream:
    """A stream of empty slots, `horizon` of them, unbounded when no horizon
    is given: all of it is the idle tail, and its producer yields nothing."""
    return TimedStream(tuple, horizon)
