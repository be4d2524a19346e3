import pytest
from hypothesis import given
from hypothesis import strategies as st

from abpsim import (
    Msg,
    Tick,
    TimedStream,
    all_ticks,
    inject_ticks,
    take_slots,
)

slot_lists = st.lists(st.lists(st.integers(-50, 50), max_size=4), max_size=8)


def test_tick_is_a_singleton():
    assert Tick is type(Tick)()
    assert repr(Tick) == "Tick"


def test_msg_equality_is_structural():
    assert Msg(3) == Msg(3)
    assert Msg(3) != Msg(4)
    assert repr(Msg((True, 3))) == "Msg((True, 3))"


def test_take_items_is_repeatable():
    s = inject_ticks([(1, 2), (), (3,)])
    first = tuple(s.items())
    assert first == (Msg(1), Msg(2), Tick, Tick, Msg(3), Tick)
    assert tuple(s.items()) == first
    assert tuple(s.slots()) == tuple(s.slots()) == ((1, 2), (), (3,))


@given(slot_lists)
def test_inject_then_slots_round_trip(slots):
    s = inject_ticks(slots)
    assert take_slots(s, len(slots)) == tuple(tuple(slot) for slot in slots)


@given(slot_lists)
def test_untime_flattens_slots(slots):
    # The items view is each slot's payloads as Msg, then one Tick; dropping
    # its ticks (untiming) leaves the slots' payloads in order.
    items = tuple(inject_ticks(slots).items())
    assert items == tuple(x for slot in slots for x in (*map(Msg, slot), Tick))
    assert tuple(item.payload for item in items if item is not Tick) == tuple(
        p for slot in slots for p in slot)


def test_take_slots_rejects_requests_past_the_horizon():
    with pytest.raises(ValueError):
        take_slots(inject_ticks([(1,)]), 2)


def test_take_slots_rejects_a_producer_ending_early():
    short = TimedStream(lambda: [(1,)])
    with pytest.raises(ValueError, match="ended after 1 slots, 2 requested"):
        take_slots(short, 2)


def test_all_ticks_bounded_and_unbounded():
    assert take_slots(all_ticks(3), 3) == ((), (), ())
    assert tuple(all_ticks(3).items()) == (Tick, Tick, Tick)
    assert take_slots(all_ticks(), 4) == ((), (), (), ())
    assert len(tuple(all_ticks(7).slots())) == 7
    assert tuple(all_ticks(7).produced()) == ()


def test_an_idle_tail_follows_the_produced_slots():
    s = TimedStream(lambda: [(1,), (2, 3)], 2)
    assert tuple(s.produced()) == ((1,), (2, 3))
    assert tuple(s.slots()) == ((1,), (2, 3), (), ())
    assert tuple(s.items()) == (Msg(1), Tick, Msg(2), Msg(3), Tick, Tick, Tick)
    assert take_slots(TimedStream(lambda: [(1,)], None), 4) == ((1,), (), (), ())


@pytest.mark.parametrize("idle", [-1, 1.0, "3"])
def test_a_stream_refuses_an_idle_tail_that_is_not_a_count(idle):
    with pytest.raises(ValueError, match="idle must be a non-negative integer or None"):
        TimedStream(tuple, idle)
