import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abpsim import (
    DeadlockDetected,
    FromA,
    FromB,
    InvalidTimerValue,
    ModelError,
    Msg,
    MsgO,
    NetworkSpec,
    SetTimer,
    Tick,
    TimedStream,
    TimeoutEvent,
    attach_timer,
    demux_timed,
    inject_ticks,
    lift_timed,
    merge_timed,
    run_machine,
    run_network,
    take_slots,
)

slot_lists = st.lists(st.lists(st.integers(0, 99), max_size=3), min_size=1, max_size=10)


def echo(state, item):
    return state, (item,)


def counting(state, item):
    return state + 1, (state,)


def test_run_machine_collects_outputs_and_final_state():
    state, outputs = run_machine(0, counting, "abc")
    assert state == 3
    assert outputs == (0, 1, 2)


def test_lift_timed_passes_ticks_through_untouched():
    double = lift_timed(lambda state, p: (state + 1, (p, p)))
    state, outputs = double(0, Tick)
    assert state == 0
    assert outputs == (Tick,)
    state, outputs = double(0, Msg(7))
    assert state == 1
    assert outputs == (Msg(7), Msg(7))


def arm_and_report(state, event):
    # Inner machine for timer tests: a message arms the timer with its
    # payload, a timeout emits a marker.
    if event is TimeoutEvent:
        return state, (MsgO("fired"),)
    return state, (SetTimer(event.payload),)


def slots_of(outputs):
    slots, current = [], []
    for item in outputs:
        if item is Tick:
            slots.append(tuple(current))
            current = []
        else:
            current.append(item.payload)
    return tuple(slots)


def test_attach_timer_fires_in_the_slot_closed_by_the_nth_tick():
    timed = attach_timer(arm_and_report)
    _, outputs = run_machine((None, -1), timed, [Msg(2), Tick, Tick, Tick])
    assert slots_of(outputs) == ((), ("fired",), ())


def test_attach_timer_emits_the_timeout_before_the_closing_tick():
    timed = attach_timer(arm_and_report)
    _, outputs = run_machine((None, -1), timed, [Msg(1), Tick])
    assert outputs == (Msg("fired"), Tick)


def test_attach_timer_last_settimer_wins():
    def arm_twice(state, event):
        if event is TimeoutEvent:
            return state, (MsgO("fired"),)
        return state, (SetTimer(5), SetTimer(1))

    _, outputs = run_machine((None, -1), attach_timer(arm_twice), [Msg(0), Tick, Tick])
    assert slots_of(outputs) == (("fired",), ())


def test_attach_timer_disable_prevents_firing():
    def arm_then_disable(state, event):
        if event is TimeoutEvent:
            return state, (MsgO("fired"),)
        if event.payload == "arm":
            return state, (SetTimer(1),)
        return state, (SetTimer(-1),)

    timed = attach_timer(arm_then_disable)
    _, outputs = run_machine((None, -1), timed,
                             [Msg("arm"), Msg("off"), Tick, Tick, Tick])
    assert slots_of(outputs) == ((), (), ())


def test_attach_timer_rearm_from_the_timeout_handler():
    def periodic(state, event):
        if event is TimeoutEvent:
            return state, (MsgO("fired"), SetTimer(2))
        return state, (SetTimer(2),)

    _, outputs = run_machine((None, -1), attach_timer(periodic), [Msg(0)] + [Tick] * 6)
    assert slots_of(outputs) == ((), ("fired",), (), ("fired",), (), ("fired",))


@pytest.mark.parametrize("bad", [0, -2, -10])
def test_attach_timer_rejects_invalid_arm_values(bad):
    timed = attach_timer(arm_and_report)
    with pytest.raises(InvalidTimerValue):
        timed((None, -1), Msg(bad))


def test_attach_timer_rejects_foreign_inner_outputs():
    timed = attach_timer(lambda state, event: (state, ("raw",)))
    with pytest.raises(ModelError):
        timed((None, -1), Msg(1))


def test_merge_tags_a_before_b_and_closes_with_one_tick():
    merged = merge_timed(inject_ticks([(1, 2), ()]), inject_ticks([(9,), (8,)]))
    assert tuple(merged.items()) == (
        Msg(FromA(1)), Msg(FromA(2)), Msg(FromB(9)), Tick, Msg(FromB(8)), Tick)
    assert len(tuple(merged.slots())) == 2


def test_merge_stops_at_the_shorter_stream():
    merged = merge_timed(inject_ticks([(1,)]), inject_ticks([(2,), (3,)]))
    assert len(tuple(merged.slots())) == 1
    assert take_slots(merged, 1) == ((FromA(1), FromB(2)),)


@given(slot_lists, slot_lists)
def test_demux_inverts_merge(slots_a, slots_b):
    depth = min(len(slots_a), len(slots_b))
    a, b = inject_ticks(slots_a), inject_ticks(slots_b)
    back_a, back_b = demux_timed(merge_timed(a, b))
    assert take_slots(back_a, depth) == take_slots(a, depth)
    assert take_slots(back_b, depth) == take_slots(b, depth)


def test_demux_rejects_untagged_payloads():
    stream, _ = demux_timed(inject_ticks([(5,)]))
    with pytest.raises(ModelError, match="demux saw untagged payload 5"):
        take_slots(stream, 1)


def forwarder():
    return lift_timed(lambda state, p: (state, (p,)))


def test_run_network_pipeline_records_every_wire():
    net = NetworkSpec()
    net.add_machine("inc", None, lift_timed(lambda s, p: (s, (p + 1,))),
                    inputs=["a"], outputs=["b"])
    net.add_machine("dup", None, lift_timed(lambda s, p: (s, (p, p))),
                    inputs=["b"], outputs=["c"])
    run = run_network(net, {"a": inject_ticks([(1,), (), (4,)])}, 3)
    assert run.slots["a"] == [(1,), (), (4,)]
    assert run.slots["b"] == [(2,), (), (5,)]
    assert run.slots["c"] == [(2, 2), (), (5, 5)]
    assert run.wire_order == ("a", "b", "c")


@pytest.mark.parametrize("fed, initializer, index", [
    ([[1], [2]], [], 0),
    ([(1,), [2]], [], 1),
    ([[1], (2,)], [Msg(9)], 0),
    ([(1,), "2"], [Tick, Msg(9)], 1),
])
def test_run_network_rejects_fed_slots_that_are_not_tuples(fed, initializer, index):
    net = NetworkSpec()
    net.add_machine("fwd", None, forwarder(), inputs=["a"], outputs=["b"])
    if initializer:
        net.initialize("a", initializer)
    with pytest.raises(ModelError, match=f"external wire 'a' was fed a .* in slot {index}, "):
        run_network(net, {"a": TimedStream(lambda: fed)}, 2)


def test_run_network_needs_enough_external_slots():
    net = NetworkSpec()
    net.add_machine("fwd", None, forwarder(), inputs=["a"], outputs=["b"])
    with pytest.raises(ModelError):
        run_network(net, {"a": inject_ticks([(1,)])}, 2)


def test_network_cycle_without_initializer_deadlocks():
    net = NetworkSpec()
    net.add_machine("m1", None, forwarder(), inputs=["w2"], outputs=["w1"])
    net.add_machine("m2", None, forwarder(), inputs=["w1"], outputs=["w2"])
    with pytest.raises(DeadlockDetected):
        run_network(net, {}, 1)


def test_network_cycle_with_tick_initializer_runs():
    net = NetworkSpec()
    net.add_machine("m1", None, forwarder(), inputs=["w2"], outputs=["w1"])
    net.add_machine("m2", None, forwarder(), inputs=["w1"], outputs=["w2"])
    net.initialize("w2", [Msg(1), Tick])
    run = run_network(net, {}, 3)
    # The cycle's total delay is the one initializer tick, so each round
    # pushes the seeded value through both forwarders: it circulates forever.
    assert run.slots["w1"] == [(1,), (1,), (1,)]
    assert run.slots["w2"] == [(1,), (1,), (1,)]


def test_initializer_messages_after_the_last_tick_lead_the_first_produced_slot():
    net = NetworkSpec()
    net.add_machine("inc", None, lift_timed(lambda s, p: (s, (p + 1,))),
                    inputs=["a"], outputs=["b"])
    net.add_machine("fwd", None, forwarder(), inputs=["b"], outputs=["c"])
    net.initialize("b", [Msg(7), Tick, Msg(8), Msg(9)])
    run = run_network(net, {"a": inject_ticks([(1,), (2,), ()])}, 3)
    # The initializer's tick fills slot 0 of `b`; its trailing messages go in
    # front of what `inc` produces for its first slot, which lands in slot 1.
    assert run.slots["b"] == [(7,), (8, 9, 2), (3,)]
    assert run.slots["c"] == [(7,), (8, 9, 2), (3,)]


def test_initializer_messages_without_any_tick_reach_readers_in_slot_0():
    net = NetworkSpec()
    net.add_machine("inc", None, lift_timed(lambda s, p: (s, (p + 1,))),
                    inputs=["a"], outputs=["b"])
    net.add_machine("fwd", None, forwarder(), inputs=["b"], outputs=["c"])
    net.initialize("b", [Msg(5)])
    run = run_network(net, {"a": inject_ticks([(1,), ()])}, 2)
    assert run.slots["b"] == [(5, 2), ()]
    assert run.slots["c"] == [(5, 2), ()]


@pytest.mark.parametrize("items, fed, expected", [
    # The tick fills slot 0; the trailing message goes in front of the first fed slot.
    ([Msg(1), Tick, Msg(2)], [(9,), ()], [(1,), (2, 9)]),
    ([Msg(5)], [(1,), ()], [(5, 1), ()]),
])
def test_initializer_is_a_prefix_of_an_external_wire(items, fed, expected):
    net = NetworkSpec()
    net.add_machine("fwd", None, forwarder(), inputs=["a"], outputs=["b"])
    net.initialize("a", items)
    run = run_network(net, {"a": inject_ticks(fed)}, 2)
    assert run.slots["a"] == expected
    assert run.slots["b"] == expected


@pytest.mark.parametrize("item", [7, None, "Tick", (Tick,)])
def test_initialize_accepts_only_msg_and_tick_items(item):
    net = NetworkSpec()
    net.add_machine("fwd", None, forwarder(), inputs=["a"], outputs=["b"])
    with pytest.raises(ValueError) as caught:
        net.initialize("b", [item, Tick])
    assert "'b'" in str(caught.value)
    assert repr(item) in str(caught.value)


def test_component_must_close_each_slot_with_one_tick():
    swallow = lambda state, item: (state, ())
    # No tick; a non-Msg output ahead of two ticks (ticks are counted before
    # any payload is read); and one tick that is not last.
    stutter = lambda state, item: (state, ("raw", Tick, Tick) if item is Tick else ())
    early = lambda state, item: (state, (Tick, Msg("late")) if item is Tick else ())
    for delta, ticks in ((swallow, 0), (stutter, 2), (early, 1)):
        net = NetworkSpec()
        net.add_machine("bad", None, delta, inputs=["a"], outputs=["b"])
        with pytest.raises(ModelError, match=f"emitted {ticks} tick"):
            run_network(net, {"a": inject_ticks([()])}, 1)


def test_two_output_components_route_by_tag():
    def split(state, item):
        if item is Tick:
            return state, (Tick,)
        return state, (Msg(FromA(item.payload)), Msg(FromB(item.payload * 10)))

    net = NetworkSpec()
    net.add_machine("split", None, split, inputs=["a"], outputs=["left", "right"])
    run = run_network(net, {"a": inject_ticks([(3,)])}, 1)
    assert run.slots["left"] == [(3,)]
    assert run.slots["right"] == [(30,)]


def test_two_output_components_must_tag_their_payloads():
    leak = lift_timed(lambda state, p: (state, (p,)))
    net = NetworkSpec()
    net.add_machine("leak", None, leak, inputs=["a"], outputs=["left", "right"])
    with pytest.raises(ModelError):
        run_network(net, {"a": inject_ticks([(3,)])}, 1)


def test_network_spec_rejects_bad_wiring():
    net = NetworkSpec()
    net.add_machine("one", None, forwarder(), inputs=["a"], outputs=["b"])
    with pytest.raises(ValueError):
        net.add_machine("one", None, forwarder(), inputs=["c"], outputs=["d"])
    with pytest.raises(ValueError):
        net.add_machine("two", None, forwarder(), inputs=["c"], outputs=["b"])
    with pytest.raises(ValueError):
        net.add_machine("wide", None, forwarder(), inputs=["w", "x", "y"], outputs=["z"])


def test_network_rejects_missing_or_unknown_external_streams():
    net = NetworkSpec()
    net.add_machine("fwd", None, forwarder(), inputs=["a"], outputs=["b"])
    assert net.external_wires() == ("a",)
    with pytest.raises(ValueError):
        run_network(net, {}, 1)
    with pytest.raises(ValueError):
        run_network(net, {"a": inject_ticks([()]), "b": inject_ticks([()])}, 1)


def test_network_rejects_a_negative_slot_count():
    calls = []
    net = NetworkSpec()
    net.add_machine("fwd", None, _port_forwarder(calls, 1), inputs=["a"], outputs=["b"])
    net.initialize("b", [Tick] * 3)
    with pytest.raises(ValueError):
        run_network(net, {"a": inject_ticks([()])}, -1)
    assert calls == []
    assert run_network(net, {"a": inject_ticks([()])}, 0).slots == {"a": [], "b": []}


def _port_forwarder(calls, n_outputs):
    # Forwards every message (FromA/FromB-tagged when it has two inputs) to
    # each of its outputs, and records every call.
    def delta(state, item):
        calls.append(item)
        if item is Tick:
            return state, (Tick,)
        if n_outputs == 2:
            return state, (Msg(FromA(item.payload)), Msg(FromB(item.payload)))
        return state, (item,)

    return delta


@st.composite
def small_networks(draw):
    wires = ["w0", "w1", "w2", "w3", "w4", "w5"]
    unproduced = list(draw(st.permutations(wires)))
    components = []
    for index in range(draw(st.integers(1, 3))):
        count = draw(st.integers(1, 2))
        outputs, unproduced = unproduced[:count], unproduced[count:]
        inputs = draw(st.lists(st.sampled_from(wires), min_size=1, max_size=2))
        components.append((f"c{index}", inputs, outputs))
    initializers = draw(st.dictionaries(
        st.sampled_from(wires), st.lists(st.sampled_from([Msg(1), Msg(2), Tick]), max_size=3),
        max_size=3))
    return components, initializers


@given(small_networks())
def test_run_network_deadlocks_exactly_when_the_schedule_does(network):
    components, initializers = network
    calls = []
    net = NetworkSpec()
    for name, inputs, outputs in components:
        net.add_machine(name, None, _port_forwarder(calls, len(outputs)),
                        inputs=inputs, outputs=outputs)
    for wire, items in initializers.items():
        net.initialize(wire, items)
    external = {wire: inject_ticks([(7,), (), (8,)]) for wire in net.external_wires()}
    try:
        net._schedule()
    except DeadlockDetected:
        with pytest.raises(DeadlockDetected):
            run_network(net, external, 3)
        assert calls == []
    else:
        run = run_network(net, external, 3)
        assert all(len(run.slots[wire]) == 3 for wire in run.wire_order)


# ------------------------------------------------- quiet-slot fast-forward


def _tagged(n_outputs, p):
    # p as a component with n_outputs ports emits it: tagged by parity with two.
    if n_outputs == 2:
        return FromA(p) if p % 2 else FromB(p)
    return p


def _untagged(p):
    return p.payload if isinstance(p, (FromA, FromB)) else p


def _untimed(n_outputs, modulus, fussy):
    # State total.  A message p adds p to total (mod modulus) and forwards
    # p - 1 while p > 0, tagged by parity with two outputs, so traffic dies
    # out even around cycles.  A fussy machine raises ModelError on a total
    # of modulus - 1.
    def delta(total, p):
        p = _untagged(p)
        total = (total + p) % modulus
        if fussy and total == modulus - 1:
            raise ModelError(f"total reached {total}")
        return total, ((_tagged(n_outputs, p - 1),) if p > 0 else ())

    return delta


def _stateful(n_outputs, modulus, timer, fussy):
    # A hand-written tick-aware `_untimed`: state (total, countdown).  With
    # a timer, a message arms countdown = timer, and the tick that zeroes it
    # emits total.
    untimed = _untimed(n_outputs, modulus, fussy)

    def delta(state, item):
        total, countdown = state
        if item is Tick:
            if countdown > 1:
                return (total, countdown - 1), (Tick,)
            if countdown == 1:
                return (total, 0), (Msg(_tagged(n_outputs, total)), Tick)
            return state, (Tick,)
        total, outputs = untimed(total, item.payload)
        return (total, timer or countdown), tuple(map(Msg, outputs))

    return delta


def _timer_inner(n_outputs, modulus, arms, rearm, foreign):
    # An inner machine for attach_timer: state total.  A message p runs
    # `_untimed`, then issues SetTimer(n) for each n in arms[p % len(arms)]
    # (two in one step, -1 to disable, 0 is invalid).  A timeout emits total
    # and re-arms with `rearm` unless it is None.  With `foreign`, a total of
    # modulus - 1 also emits a bare payload, which attach_timer rejects.
    untimed = _untimed(n_outputs, modulus, False)

    def delta(total, event):
        if event is TimeoutEvent:
            rearming = () if rearm is None else (SetTimer(rearm),)
            return total, (MsgO(_tagged(n_outputs, total)),) + rearming
        p = _untagged(event.payload)
        total, outputs = untimed(total, p)
        outputs = tuple(map(MsgO, outputs))
        if foreign and total == modulus - 1:
            outputs += ("raw",)
        return total, outputs + tuple(SetTimer(n) for n in arms[p % len(arms)])

    return delta


timer_arms = st.lists(st.lists(st.sampled_from([1, 1, 2, 3, 5, -1, -1, 0]), max_size=2)
                      .map(tuple), min_size=1, max_size=3)


@st.composite
def components(draw, n_outputs):
    # (start state, delta) of one stateful component: hand-written
    # tick-aware, lifted by lift_timed, or owning a timer by attach_timer.
    modulus = draw(st.integers(2, 7))
    total = draw(st.integers(0, 1))
    fussy = draw(st.sampled_from([False, False, False, True]))
    kind = draw(st.sampled_from(["item", "lifted", "timer"]))
    if kind == "item":
        timer = draw(st.sampled_from([0, 0, 1, 3]))
        return (total, 0), _stateful(n_outputs, modulus, timer, fussy)
    if kind == "lifted":
        return total, lift_timed(_untimed(n_outputs, modulus, fussy))
    inner = _timer_inner(n_outputs, modulus, draw(timer_arms),
                         draw(st.sampled_from([None, None, 1, 2])), fussy)
    return (total, draw(st.sampled_from([-1, -1, 1, 3]))), attach_timer(inner)


def _idle_gapped_slots(draw, length):
    # Payload slots separated by idle gaps of up to 30 slots, cut or padded
    # to `length`.
    slots = []
    for gap, payloads in draw(st.lists(
            st.tuples(st.integers(0, 30), st.lists(st.integers(0, 4), min_size=1, max_size=2)),
            max_size=3)):
        slots += [()] * gap + [tuple(payloads)]
    return (slots + [()] * length)[:length]


def _slot_by_slot(step, start, slots):
    # (state, output payloads) after each slot of `step`, or the type and
    # message of the error it raises.
    state, results = start, []
    try:
        for slot in slots:
            state, outputs = step(state, slot)
            results.append((state, outputs))
    except Exception as exc:  # the differential compares errors too
        results.append((type(exc).__name__, str(exc)))
    return results


def _item_form_step(timed):
    # One slot through the item form: the slot's Msgs, then one Tick, which
    # must close the outputs.
    def step(state, slot):
        state, outputs = run_machine(state, timed, [*map(Msg, slot), Tick])
        assert outputs[-1] is Tick and Tick not in outputs[:-1]
        return state, tuple(item.payload for item in outputs[:-1])

    return step


payload_slots = st.lists(st.lists(st.integers(0, 4), max_size=3).map(tuple), max_size=12)


@given(payload_slots, st.integers(1, 2), st.integers(2, 7), st.booleans())
def test_lift_timed_slot_form_matches_its_item_form(slots, n_outputs, modulus, fussy):
    timed = lift_timed(_untimed(n_outputs, modulus, fussy))
    assert (_slot_by_slot(timed._slot_form, 0, slots)
            == _slot_by_slot(_item_form_step(timed), 0, slots))


@given(payload_slots, st.integers(1, 2), st.integers(2, 7), timer_arms,
       st.sampled_from([None, 1, 2]), st.booleans(), st.sampled_from([-1, 1, 3]))
def test_attach_timer_slot_form_matches_its_item_form(slots, n_outputs, modulus, arms, rearm,
                                                      foreign, counter):
    timed = attach_timer(_timer_inner(n_outputs, modulus, arms, rearm, foreign))
    assert (_slot_by_slot(timed._slot_form, (0, counter), slots)
            == _slot_by_slot(_item_form_step(timed), (0, counter), slots))


@st.composite
def stateful_networks(draw):
    # Up to three stateful components on five wires, each drawn by
    # `components`.  A wire read by its own
    # producer or by an earlier component may close a cycle, so it gets a
    # tick in its initializer: deadlocks are tested above, not here.
    wires = ["w0", "w1", "w2", "w3", "w4"]
    unproduced = list(draw(st.permutations(wires)))
    net = NetworkSpec()
    producer = {}
    for index in range(draw(st.integers(1, 3))):
        count = draw(st.integers(1, 2))
        outputs, unproduced = unproduced[:count], unproduced[count:]
        inputs = draw(st.lists(st.sampled_from(wires), min_size=1, max_size=2))
        start, delta = draw(components(len(outputs)))
        net.add_machine(f"c{index}", start, delta, inputs=inputs, outputs=outputs)
        producer.update(dict.fromkeys(outputs, index))
    items = st.sampled_from([Msg(1), Msg(3), Tick, Tick])
    initializers = draw(st.dictionaries(
        st.sampled_from(wires), st.lists(items, max_size=6), max_size=3))
    for index, comp in enumerate(net._components.values()):
        for wire in comp.inputs:
            if producer.get(wire, -1) >= index and Tick not in initializers.get(wire, []):
                initializers[wire] = initializers.get(wire, []) + [Tick]
    for wire, initializer in initializers.items():
        net.initialize(wire, initializer)
    slots = draw(st.integers(1, 90))
    short = draw(st.sampled_from([False, False, False, True]))
    length = draw(st.integers(0, slots - 1)) if short else slots
    external = {wire: _idle_gapped_slots(draw, length) for wire in net.external_wires()}
    return net, external, slots


def _wire_histories(net, external, slots):
    return run_network(net, external, slots).slots


def _outcome(evaluate, net, external, slots):
    # Every wire history `evaluate` records, or the type and message of the
    # error it raises.
    try:
        return evaluate(net, {w: inject_ticks(s) for w, s in external.items()}, slots)
    except Exception as exc:  # the differential compares errors too
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(stateful_networks())
def test_fast_forward_matches_full_stepping_on_random_networks(full_stepping, reference_run,
                                                                network):
    net, external, slots = network
    fast = _outcome(_wire_histories, net, external, slots)
    assert fast == _outcome(_wire_histories, full_stepping(net), external, slots)
    assert fast == _outcome(reference_run, net, external, slots)


def test_fast_forward_still_fires_a_long_armed_timer(full_stepping):
    net = NetworkSpec()
    net.add_machine("timer", (None, -1), attach_timer(arm_and_report),
                    inputs=["a"], outputs=["b"])
    fed = [(50,)] + [()] * 99
    # Armed in slot 0, the timer counts down through 49 all-empty slots and
    # fires in slot 49; an armed counter is a state change every slot, so
    # the network must not settle before then.
    run = run_network(net, {"a": inject_ticks(fed)}, 100)
    assert run.slots["b"] == [()] * 49 + [("fired",)] + [()] * 50
    assert run.slots == run_network(full_stepping(net), {"a": inject_ticks(fed)}, 100).slots


def test_fast_forward_resumes_on_late_input_and_keeps_short_input_errors():
    net = NetworkSpec()
    net.add_machine("inc", None, lift_timed(lambda s, p: (s, (p + 1,))),
                    inputs=["a"], outputs=["b"])
    net.initialize("b", [Tick, Tick])
    fed = [(1,)] + [()] * 40 + [(5,)] + [()] * 10
    run = run_network(net, {"a": inject_ticks(fed)}, 52)
    assert run.slots["b"] == [(), (), (2,)] + [()] * 40 + [(6,)] + [()] * 8
    with pytest.raises(ModelError, match="external input ended after 52 slots, 60 requested"):
        run_network(net, {"a": inject_ticks(fed)}, 60)
