import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from abpsim import (
    Msg,
    Tick,
    TimedStream,
    all_ticks,
    concat_streams,
    filter_set,
    inject_ticks,
    render_items,
    take_items,
    take_slots,
    untime,
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
    first = take_items(s, 6)
    assert first == (Msg(1), Msg(2), Tick, Tick, Msg(3), Tick)
    assert take_items(s, 6) == first


def test_from_items_counts_ticks_as_horizon():
    s = TimedStream.from_items([Msg(1), Tick, Msg(2), Msg(3), Tick])
    assert s.horizon == 2
    assert take_slots(s, 2) == ((1,), (2, 3))


@given(slot_lists)
def test_inject_then_slots_round_trip(slots):
    s = inject_ticks(slots)
    assert s.horizon == len(slots)
    assert take_slots(s, len(slots)) == tuple(tuple(slot) for slot in slots)


@given(slot_lists)
def test_untime_flattens_slots(slots):
    s = inject_ticks(slots)
    assert untime(s, len(slots)) == tuple(p for slot in slots for p in slot)


def test_take_slots_rejects_requests_past_the_horizon():
    with pytest.raises(ValueError):
        take_slots(inject_ticks([(1,)]), 2)


def test_take_slots_rejects_a_producer_ending_mid_slot():
    ragged = TimedStream(lambda: iter([Msg(1)]))
    with pytest.raises(ValueError):
        take_slots(ragged, 1)


def test_concat_streams_chains_and_sums_horizons():
    s = concat_streams(inject_ticks([(1,)]), inject_ticks([(), (2,)]))
    assert s.horizon == 3
    assert take_slots(s, 3) == ((1,), (), (2,))


def test_concat_streams_does_not_start_the_second_stream_early():
    def explode():
        raise AssertionError("second stream was started")

    s = concat_streams(inject_ticks([(1,), (2,)]), TimedStream(explode))
    assert take_items(s, 4) == (Msg(1), Tick, Msg(2), Tick)
    assert s.horizon is None


def test_all_ticks_bounded_and_unbounded():
    assert take_items(all_ticks(3), 5) == (Tick, Tick, Tick)
    assert take_items(all_ticks(), 4) == (Tick, Tick, Tick, Tick)
    assert all_ticks(7).horizon == 7


def test_filter_set_untimes_and_filters():
    view = take_items(inject_ticks([(1, 2), (3,)]), 5)
    assert filter_set({1, 3}, view) == (1, 3)
    assert filter_set({Tick, 2}, view) == (2, Tick, Tick)
    assert filter_set({9}, (1, 9, 9)) == (9, 9)


@given(st.lists(st.integers(0, 9)), st.sets(st.integers(0, 9)))
def test_filter_set_matches_a_comprehension(seq, keep):
    assert filter_set(keep, seq) == tuple(x for x in seq if x in keep)


def test_render_items_marks_ticks():
    items = (Msg(1), Tick, Msg((True, 2)), Tick)
    assert render_items(items) == "1 ~ (True, 2) ~"
    assert render_items(items, fmt=str) == "1 ~ (True, 2) ~"
    assert render_items(()) == ""


def test_stream_repr_names_the_horizon():
    assert "horizon=2" in repr(inject_ticks([(), ()]))
    assert "unbounded" in repr(TimedStream(lambda: itertools.repeat(Tick)))
