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


class _Unsure:
    # A slot whose truth value cannot be told, as with an array.
    def __bool__(self):
        raise ValueError("truth value is ambiguous")


@pytest.mark.parametrize("fed, initializer, index", [
    ([[1], [2]], [], 0),
    ([(1,), [2]], [], 1),
    ([[1], (2,)], [Msg(9), Tick], 0),
    ([(1,), "2"], [Tick, Msg(9), Tick], 1),
    ([(), _Unsure()], [], 1),
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


@pytest.mark.parametrize("items, accepted", [
    ([Msg(1), Tick, Msg(2)], False),
    ([Msg(5)], False),
    ([], True),
    ([Msg(1), Tick], True),
])
def test_initializer_messages_must_be_closed_by_a_tick(items, accepted):
    net = NetworkSpec()
    net.add_machine("fwd", None, forwarder(), inputs=["a"], outputs=["b"])
    if accepted:
        net.initialize("a", items)
        expected = [(1,), (9,)] if items else [(9,), ()]
        assert run_network(net, {"a": inject_ticks([(9,), ()])}, 2).slots["b"] == expected
        return
    with pytest.raises(ValueError, match="initializer of wire 'a' .* after its last Tick"):
        net.initialize("a", items)


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
    net.add_machine("one", None, forwarder(), inputs=["i"], outputs=["b"])
    for name, inputs, outputs, message in [
        ("one", ["a"], ["d"], "duplicate component 'one'"),
        ("two", ["a"], ["b"], "wire 'b' already produced by 'one'"),
        ("c", ["a"], ["x", "x"], "component 'c' lists output wire 'x' twice"),
        ("wide", ["w", "x", "y"], ["z"], "components support one or two ports per direction"),
    ]:
        with pytest.raises(ValueError) as caught:
            net.add_machine(name, None, forwarder(), inputs=inputs, outputs=outputs)
        assert str(caught.value) == message
        # A rejected call leaves the spec as it was.
        assert (net.wire_order, list(net._components)) == (("i", "b"), ["one"])
    # So a reader of `x` finds an external wire, not a cycle.
    net.add_machine("r", None, forwarder(), inputs=["x"], outputs=["y"])
    run = run_network(net, {"i": inject_ticks([(1,)]), "x": inject_ticks([(2,)])}, 1)
    assert run.slots == {"i": [(1,)], "b": [(1,)], "x": [(2,)], "y": [(2,)]}


@pytest.mark.parametrize("inputs, outputs", [("ab", ["c"]), (["a"], "cd")])
def test_network_spec_rejects_a_str_of_ports(inputs, outputs):
    net = NetworkSpec()
    with pytest.raises(ValueError, match="component 'one': ports must be a sequence of wire names"):
        net.add_machine("one", None, forwarder(), inputs=inputs, outputs=outputs)
    assert net.wire_order == ()


def test_network_spec_rejects_a_second_initializer_of_a_wire():
    net = NetworkSpec()
    net.add_machine("fwd", None, forwarder(), inputs=["a"], outputs=["b"])
    net.initialize("a", [Msg(1), Tick]).initialize("a", [])
    with pytest.raises(ValueError, match="wire 'a' is already initialized"):
        net.initialize("a", [Tick])
    assert run_network(net, {"a": inject_ticks([(2,), ()])}, 2).slots["b"] == [(1,), (2,)]


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


@pytest.mark.parametrize("count", [True, False, 3.0, "3", None])
def test_a_slot_count_or_idle_tail_must_be_an_int_not_a_bool(count):
    calls = []
    net = NetworkSpec()
    net.add_machine("fwd", None, _port_forwarder(calls, 1), inputs=["a"], outputs=["b"])
    with pytest.raises(ValueError, match=f"slot count must be an integer, got {count!r}"):
        run_network(net, {"a": inject_ticks([()] * 3)}, count)
    assert calls == []
    if count is not None:
        with pytest.raises(ValueError, match="idle must be a non-negative integer or None"):
            TimedStream(tuple, count)


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
        st.sampled_from(wires),
        st.lists(st.sampled_from([Msg(1), Msg(2), Tick]), max_size=2).map(
            lambda drawn: [*drawn, Tick]),
        max_size=3))
    return components, initializers


@given(small_networks())
def test_run_network_deadlocks_exactly_when_the_schedule_does(reference_run, network):
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
        expected = reference_run(net, external, 3)
    except DeadlockDetected:
        calls.clear()
        with pytest.raises(DeadlockDetected):
            run_network(net, external, 3)
        assert calls == []
    else:
        assert run_network(net, external, 3).slots == expected


def _reference_schedule(components, initializers):
    # The placement rule, restated: a component waits for the producers of
    # its input wires, except along initialized wires.  Repeated passes in
    # insertion order place every component whose blockers are all placed,
    # earlier in the same pass included; a pass that places none is a
    # deadlock, naming the unplaced components in sorted order.
    producers = {wire: name for name, _, outputs in components for wire in outputs}
    blocking = [(name, [producers[wire] for wire in inputs
                        if wire in producers and wire not in initializers])
                for name, inputs, _ in components]
    order = []
    while len(order) < len(blocking):
        placed = len(order)
        for name, deps in blocking:
            if name not in order and all(dep in order for dep in deps):
                order.append(name)
        if len(order) == placed:
            pending = sorted(name for name, _ in blocking if name not in order)
            return f"components {pending} form a cycle with no tick-bearing initializer"
    return order


@given(small_networks())
def test_schedule_places_components_by_repeated_passes(network):
    components, initializers = network
    # Names that sort against insertion order, so the message's order shows.
    components = [(f"m{9 - index}", inputs, outputs)
                  for index, (_, inputs, outputs) in enumerate(components)]
    net = NetworkSpec()
    for name, inputs, outputs in components:
        net.add_machine(name, None, forwarder(), inputs=inputs, outputs=outputs)
    for wire, items in initializers.items():
        net.initialize(wire, items)
    try:
        scheduled = [comp.name for comp in net._schedule()]
    except DeadlockDetected as exc:
        scheduled = str(exc)
    assert scheduled == _reference_schedule(components, initializers)


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


# Where a fed slot is FAULT, the stream's own iterator raises KeyError.
FAULT = "fault"
idle_gaps = st.one_of(st.integers(0, 4), st.integers(0, 30), st.integers(0, 300))


def _idle_gapped_slots(draw, length):
    # Payload slots separated by idle gaps of up to 300 slots, cut or padded
    # to `length`.  One wire in four has a slot at a drawn index fed as a
    # list, and one in four a FAULT at a drawn index.
    slots = []
    for gap, payloads in draw(st.lists(
            st.tuples(idle_gaps, st.lists(st.integers(0, 4), min_size=1, max_size=2)),
            max_size=5)):
        slots += [()] * gap + [tuple(payloads)]
    slots = (slots + [()] * length)[:length]
    for bad in (list, lambda slot: FAULT):
        if slots and draw(st.sampled_from([False, False, False, True])):
            index = draw(st.integers(0, length - 1))
            slots[index] = bad(slots[index])
    return slots


def _fed_stream(slots, idle=0):
    # The slots as they stand, lists included, then `idle` empty ones; a
    # FAULT raises KeyError.
    def source():
        for index, slot in enumerate(slots):
            if slot == FAULT:
                raise KeyError(f"stream fault in slot {index}")
            yield slot

    return TimedStream(source, idle)


def _recording(calls):
    # For `rewire`: a delta that appends each call's item, or each slot its
    # slot form is called with, to `calls`, and keeps the slot form.
    def wrap(delta):
        def step(state, item):
            calls.append(item)
            return delta(state, item)

        form = getattr(delta, "_slot_form", None)
        if form is not None:
            def slot_form(state, payloads, tick=True):
                calls.append(payloads)
                return form(state, payloads, tick)

            step._slot_form = slot_form
        return step

    return wrap


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
    # `components`.  Every initializer ends in a tick.  A wire read by its
    # own producer or by an earlier component may close a cycle, so it gets
    # an initializer: deadlocks are tested above, not here.
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
        st.sampled_from(wires), st.lists(items, max_size=5).map(lambda drawn: [*drawn, Tick]),
        max_size=3))
    for index, comp in enumerate(net._components.values()):
        for wire in comp.inputs:
            if producer.get(wire, -1) >= index:
                initializers.setdefault(wire, [Tick])
    for wire, initializer in initializers.items():
        net.initialize(wire, initializer)
    # `run_network` steps a round in schedule order, the reference in
    # insertion order: the two agree, error for error, as every undelayed
    # wire runs from an earlier component to a later one.
    for index, comp in enumerate(net._components.values()):
        assert all(producer.get(wire, -1) < index for wire in comp.inputs
                   if wire not in net._initializers)
    slots = draw(st.one_of(st.integers(1, 90), st.integers(90, 600)))
    short = draw(st.sampled_from([False, False, False, True]))
    length = draw(st.integers(0, slots - 1)) if short else slots
    external = {wire: _idle_gapped_slots(draw, length) for wire in net.external_wires()}
    return net, external, slots


def _wire_histories(net, external, slots):
    return run_network(net, external, slots).slots


def _outcome(evaluate, net, streams, slots):
    # Every wire history `evaluate` records, or the type and message of the
    # error it raises.
    try:
        return evaluate(net, streams, slots)
    except Exception as exc:  # the differential compares errors too
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(stateful_networks())
def test_fast_forward_matches_full_stepping_on_random_networks(reference_run, rewire, network):
    net, external, slots = network
    calls = []
    net = rewire(net, delta=_recording(calls))
    streams = {w: _fed_stream(s) for w, s in external.items()}
    fast = _outcome(_wire_histories, net, streams, slots)
    assert fast == _outcome(reference_run, net, streams, slots)
    # An input error comes out before any delta is called, on both.
    if isinstance(fast, tuple) and (fast[0] == "KeyError" or fast[1].startswith("external ")):
        assert calls == []


def test_fast_forward_still_fires_a_long_armed_timer(reference_run):
    net = NetworkSpec()
    net.add_machine("timer", (None, -1), attach_timer(arm_and_report),
                    inputs=["a"], outputs=["b"])
    fed = [(50,)] + [()] * 99
    # Armed in slot 0, the timer counts down through 49 all-empty slots and
    # fires in slot 49; an armed counter is a state change every slot, so
    # the network must not settle before then.
    run = run_network(net, {"a": inject_ticks(fed)}, 100)
    assert run.slots["b"] == [()] * 49 + [("fired",)] + [()] * 50
    assert run.slots == reference_run(net, {"a": inject_ticks(fed)}, 100)


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


# ------------------------------------------- input errors before any delta


def _raised(rewire, evaluate, net, streams, slots):
    # The error `evaluate` raises on the network with every delta recorded,
    # as (type, message), and the recorded calls.
    calls = []
    with pytest.raises(Exception) as raised:
        evaluate(rewire(net, delta=_recording(calls)), streams, slots)
    return (type(raised.value), raised.value.args[0]), calls


@pytest.mark.parametrize("fussy", [True, False], ids=["delta-fails-first", "stream-fails"])
def test_a_stream_error_comes_before_any_delta(reference_run, rewire, fussy):
    # The stream fails in slot 5, and a fussy delta would fail in slot 2:
    # the stream's error wins all the same, and no delta is called.
    def forward(state, p):
        if fussy and p == 2:
            raise ModelError("fussy about 2")
        return state, (p,)

    net = NetworkSpec()
    net.add_machine("fwd", None, lift_timed(forward), inputs=["a"], outputs=["b"])
    fed = [(0,), (1,), (2,), (3,), (4,), FAULT, (6,), (7,)]
    for evaluate in (run_network, reference_run):
        assert _raised(rewire, evaluate, net, {"a": _fed_stream(fed)}, 8) == (
            (KeyError, "stream fault in slot 5"), [])


NOT_A_TUPLE = "external wire {!r} was fed a {} in slot 1, not a tuple of payloads"


@pytest.mark.parametrize("fed_a, fed_b, error, message", [
    # The first faulty wire in feed order wins, whatever the slot.
    ([(1,), FAULT], [(), [2]], KeyError, "stream fault in slot 1"),
    ([(1,), [2]], [(), FAULT], ModelError, NOT_A_TUPLE.format("a", "list")),
    ([(1,), (), FAULT], [(), [2]], KeyError, "stream fault in slot 2"),
    ([(1,), [2]], [(), (), FAULT], ModelError, NOT_A_TUPLE.format("a", "list")),
    # A fed slot that is not even iterable.
    ([(1,), None], [(), ()], ModelError, NOT_A_TUPLE.format("a", "NoneType")),
    # In one wire, the stream's own error beats an earlier slot that is not
    # a tuple: the stream is read before its slots are checked.
    ([(1,), [2], FAULT], [(), ()], KeyError, "stream fault in slot 2"),
    # A short wire ahead of a faulty one.
    ([(1,)], [(), [2]], ModelError, "external input ended after 1 slots, 3 requested"),
], ids=["fed_a0-fed_b0-KeyError", "fed_a1-fed_b1-ModelError", "fed_a2-fed_b2-KeyError",
        "fed_a3-fed_b3-ModelError", "fed_a4-fed_b4-ModelError", "list-before-fault",
        "short-before-faulty"])
def test_input_errors_come_out_by_round_then_feed_order(reference_run, rewire, fed_a, fed_b,
                                                        error, message):
    net = NetworkSpec()
    net.add_machine("c", 0, lift_timed(_counting(1)), inputs=["a", "b"], outputs=["x"])
    for evaluate in (run_network, reference_run):
        streams = {"a": _fed_stream(fed_a), "b": _fed_stream(fed_b)}
        assert _raised(rewire, evaluate, net, streams, 3) == ((error, message), [])


# ------------------------------------------- quiet stretches stepped, tails cut


def _bouncing(ticks, initializer):
    # `front` forwards each fed payload, and each payload `echo` sends back
    # less one while it stays above 0; `echo` copies every payload to `out`
    # and to `back`, which an initializer delays, as `am` is in the ABP
    # network.  Traffic dies out, so the network settles a few slots after
    # each input.  `echo` is a hand-written item form, so `ticks` gets one
    # entry per stepped slot.
    def front(state, p):
        if isinstance(p, FromA):
            return state, (p.payload,)
        return state, (p.payload - 1,) if p.payload > 1 else ()

    def echo(state, item):
        if item is Tick:
            ticks.append(item)
            return state, (Tick,)
        return state, (Msg(FromA(item.payload)), Msg(FromB(item.payload)))

    net = NetworkSpec()
    net.add_machine("front", None, lift_timed(front), inputs=["a", "back"], outputs=["mid"])
    net.add_machine("echo", None, echo, inputs=["mid"], outputs=["out", "back"])
    net.initialize("back", initializer)
    return net


ONE_TICK, MESSAGE_AND_TWO_TICKS = [Tick], [Msg(2), Tick, Tick]
LATE = [(2,)] + [()] * 10 + [(3,)]


@pytest.mark.parametrize("initializer, fed, slots, stepped", [
    # Settles after slot 3 (slot 5 with the longer initializer) and stays
    # settled to the horizon.
    (ONE_TICK, [(2,)], 40, 4),
    (MESSAGE_AND_TWO_TICKS, [(2,)], 40, 6),
    # Settles in its very last round: nothing is skipped.
    (ONE_TICK, [(2,)], 4, 4),
    (MESSAGE_AND_TWO_TICKS, [(2,)], 6, 6),
    # Falls quiet, steps through the quiet stretch to the late input in
    # slot 11, and settles after slot 15 (slot 18 with the longer
    # initializer).
    (ONE_TICK, LATE, 30, 16),
    (MESSAGE_AND_TWO_TICKS, LATE, 30, 19),
    # Steps through a quiet stretch to a late input in the last slot.
    (ONE_TICK, [(1,)] + [()] * 8 + [(1,)], 10, 10),
    (ONE_TICK, [(2,)], 1, 1),
    (MESSAGE_AND_TWO_TICKS, [(2,)], 1, 1),
    (ONE_TICK, [(2,)], 0, 0),
    (MESSAGE_AND_TWO_TICKS, [(2,)], 0, 0),
    # Read up front and cut, a long quiet tail steps no more rounds.
    (ONE_TICK, LATE, 100_000, 16),
])
def test_quiet_stretches_are_padded_to_the_reference_histories(reference_run, initializer, fed,
                                                               slots, stepped):
    fed = fed + [()] * (slots - len(fed))
    ticks = []
    run = run_network(_bouncing(ticks, initializer), {"a": inject_ticks(fed)}, slots)
    assert len(ticks) == stepped
    assert run.slots == reference_run(_bouncing([], initializer), {"a": inject_ticks(fed)}, slots)
    assert all(len(run.slots[wire]) == slots for wire in run.wire_order)


@pytest.mark.parametrize("bad, error, message", [
    (FAULT, KeyError, "stream fault in slot 20"),
    (None, ModelError, "external wire 'a' was fed a NoneType in slot 20, not a tuple of payloads"),
], ids=["stream-raises", "yields-None"])
def test_an_input_error_after_the_network_settled_still_raises(reference_run, rewire, bad,
                                                               error, message):
    # The network would settle after slot 3, long before the stream fails
    # in slot 20; the error is raised all the same, before any delta.
    fed = [(2,)] + [()] * 19 + [bad] + [()] * 9
    for evaluate in (run_network, reference_run):
        net, streams = _bouncing([], ONE_TICK), {"a": _fed_stream(fed)}
        assert _raised(rewire, evaluate, net, streams, 30) == ((error, message), [])


def test_an_initialized_external_wire_reads_its_last_fed_payload_late(reference_run):
    # `a`'s three-slot initializer delays its reader: fed slot k is read in
    # round 3 + k, so the payload fed in slot 7, the last round fed a
    # non-empty slot, reaches `b` in slot 10.  Rounds 8 and 9 are quiet and
    # come after that last round, so only the settle check's reach into the
    # initializer's slots keeps the run from stopping there.
    net = NetworkSpec()
    net.add_machine("fwd", None, lift_timed(echo), inputs=["a"], outputs=["b"])
    net.initialize("a", [Tick, Tick, Tick])
    fed = [(1,)] + [()] * 6 + [(2,)] + [()] * 22
    run = run_network(net, {"a": inject_ticks(fed)}, 30)
    assert run.slots == reference_run(net, {"a": inject_ticks(fed)}, 30)
    assert run.slots["b"][10] == (2,)


def test_a_stopped_run_stores_one_common_prefix_and_pads_its_view():
    run = run_network(_bouncing([], ONE_TICK), {"a": inject_ticks([(2,)] + [()] * 39)}, 40)
    # Stepped through slot 3, which left every wire empty: the stored
    # prefix ends there, and `slots` pads each wire to the horizon.
    assert run.horizon == 40
    assert run.stored == {"a": [(2,), (), ()], "back": [(), (2,), (1,)],
                          "mid": [(2,), (1,), ()], "out": [(2,), (1,), ()]}
    assert run.slots == {wire: stored + [()] * 37 for wire, stored in run.stored.items()}


def test_a_network_that_never_settles_runs_to_its_horizon(reference_run, rewire):
    # Each state is paired with a new NaN, so no state compares equal to the
    # one before it and the network has no fixed point: every round is
    # stepped and stored, through the generic adapter (the pairing deltas
    # have no slot form), with the histories of the plain network.
    def restless(delta):
        def step(pair, item):
            state, outputs = delta(pair[0], item)
            return (state, float("nan")), outputs

        return step

    fed = [(2,)] + [()] * 10 + [(3,)] + [()] * 18
    net = rewire(_bouncing([], ONE_TICK), lambda state: (state, float("nan")), restless)
    run = run_network(net, {"a": inject_ticks(fed)}, 30)
    assert all(len(stored) == 30 for stored in run.stored.values())
    assert run.slots == reference_run(_bouncing([], ONE_TICK), {"a": inject_ticks(fed)}, 30)


def test_the_reference_stops_a_network_whose_traffic_runs_away(reference_run):
    # Each payload comes back twice one slot later: 2**n payloads in slot n,
    # past the reference's payload budget within 16 slots.
    net = NetworkSpec()
    net.add_machine("twice", None, lift_timed(lambda state, p: (state, (p, p))),
                    inputs=["loop"], outputs=["loop"])
    net.initialize("loop", [Msg(1), Tick])
    with pytest.raises(AssertionError, match="produced more than 50000 payloads"):
        reference_run(net, {}, 40)


# ----------------------------------------------- idle tails filled, not read


def _fussy_counter(seen):
    # Counts payloads, forwards each, and fails on a 4; `seen` records every
    # payload it is called with, so it shows which rounds ran before an error.
    def delta(count, p):
        seen.append(p)
        if p == 4:
            raise ModelError("fussy about 4")
        return count + 1, (p,)

    net = NetworkSpec()
    net.add_machine("count", 0, lift_timed(delta), inputs=["a"], outputs=["b"])
    return net


@st.composite
def tailed_streams(draw):
    # A produced part of up to 25 slots, one in four with a list slot and
    # one in four with a FAULT, then an idle tail that is empty, short of
    # the slot count, exactly long enough, longer, or endless.
    slots = draw(st.integers(0, 60))
    produced = _idle_gapped_slots(draw, draw(st.integers(0, 25)))
    need = max(slots - len(produced), 0)
    idle = draw(st.one_of(st.just(0), st.integers(0, max(need - 1, 0)), st.just(need),
                          st.integers(need + 1, need + 100), st.none()))
    initializer = draw(st.sampled_from([None, [Tick], [Msg(1), Tick, Tick]]))
    return produced, idle, initializer, slots


@settings(max_examples=300, deadline=None)
@given(tailed_streams())
def test_a_filled_idle_tail_matches_the_tail_read_slot_by_slot(reference_run, drawn):
    produced, idle, initializer, slots = drawn
    tailed = _fed_stream(produced, idle)
    # The same slots with the tail produced: `slots` empty ones stand in
    # for an endless tail, as no run reads more.
    read = _fed_stream(produced + [()] * (slots if idle is None else idle))
    outcomes = []
    for evaluate, stream in [(_wire_histories, tailed), (_wire_histories, read),
                             (reference_run, tailed)]:
        seen = []
        net = _fussy_counter(seen)
        if initializer:
            net.initialize("a", initializer)
        outcomes.append((_outcome(evaluate, net, {"a": stream}, slots), seen))
    assert outcomes[0] == outcomes[1] == outcomes[2]


class _Unreadable(TimedStream):
    """A stream whose whole view may not be taken."""

    __slots__ = ()

    def slots(self):
        raise AssertionError("the idle tail was read")


def test_run_network_reads_only_the_produced_part_of_a_stream():
    yielded = []

    def source():
        for slot in [(1,), (), (2,)]:
            yielded.append(slot)
            yield slot

    seen = []
    run = run_network(_fussy_counter(seen), {"a": _Unreadable(source, 10**6)}, 10**6)
    assert yielded == [(1,), (), (2,)] and seen == [1, 2]
    assert run.horizon == 10**6 and run.stored["b"] == [(1,), (), (2,)]
    assert run.slots["a"] == [(1,), (), (2,)] + [()] * (10**6 - 3)


# -------------------------------------------------- pinned port shapes


def _counting(n_outputs):
    # Counts messages and sends each payload p, tagged or not, as
    # (count, p) to the first output; with two outputs, every payload
    # met at an even count also goes to the second, untouched.
    def delta(count, p):
        if n_outputs == 1:
            return count + 1, ((count, p),)
        return count + 1, (FromA((count, p)),) + ((FromB(p),) if count % 2 == 0 else ())

    return delta


def _hand_written(delta):
    # The same machine as `lift_timed(delta)`, without its slot rule.
    def step(state, item):
        if item is Tick:
            return state, (Tick,)
        state, outputs = delta(state, item.payload)
        return state, tuple(map(Msg, outputs))

    return step


A, B = FromA, FromB
FED = {"a": [(1, 2), (), (3,)], "b": [(), (4,), (5,)]}


@pytest.mark.parametrize("inputs, outputs, expected", [
    (["a"], ["x"], {"x": [((0, 1), (1, 2)), (), ((2, 3),)]}),
    (["a", "b"], ["x"], {"x": [((0, A(1)), (1, A(2))), ((2, B(4)),), ((3, A(3)), (4, B(5)))]}),
    (["a"], ["x", "y"], {"x": [((0, 1), (1, 2)), (), ((2, 3),)], "y": [(1,), (), (3,)]}),
    (["a", "b"], ["x", "y"], {
        "x": [((0, A(1)), (1, A(2))), ((2, B(4)),), ((3, A(3)), (4, B(5)))],
        "y": [(A(1),), (B(4),), (B(5),)],
    }),
    # Both ports read one wire: each slot's payloads come FromA, then again FromB.
    (["a", "a"], ["x"], {
        "x": [((0, A(1)), (1, A(2)), (2, B(1)), (3, B(2))), (), ((4, A(3)), (5, B(3)))],
    }),
])
@pytest.mark.parametrize("form", [lift_timed, _hand_written])
def test_port_shapes_match_pinned_histories(reference_run, form, inputs, outputs, expected):
    net = NetworkSpec()
    net.add_machine("c", 0, form(_counting(len(outputs))), inputs=inputs, outputs=outputs)
    external = {wire: FED[wire] for wire in net.external_wires()}
    expected = {**external, **expected}
    run = run_network(net, {w: inject_ticks(s) for w, s in external.items()}, 3)
    assert run.slots == expected
    assert reference_run(net, {w: inject_ticks(s) for w, s in external.items()}, 3) == expected


@pytest.mark.parametrize("form", [lift_timed, _hand_written])
def test_untagged_payload_of_a_two_output_component_is_pinned(reference_run, form):
    net = NetworkSpec()
    net.add_machine("leak", None, form(lambda state, p: (state, (p,))),
                    inputs=["a"], outputs=["left", "right"])
    message = "component 'leak' has two output ports but emitted untagged payload 3"
    for evaluate in (run_network, reference_run):
        with pytest.raises(ModelError) as caught:
            evaluate(net, {"a": inject_ticks([(), (3,)])}, 2)
        assert str(caught.value) == message


def test_two_ticks_in_one_slot_are_pinned(reference_run):
    twice = lambda state, item: (state, (Tick, Tick) if item is Tick else ())
    net = NetworkSpec()
    net.add_machine("bad", None, twice, inputs=["a", "b"], outputs=["c"])
    message = "component 'bad' emitted 2 tick(s) in one slot; expected exactly one, last"
    for evaluate in (run_network, reference_run):
        with pytest.raises(ModelError) as caught:
            evaluate(net, {"a": inject_ticks([(1,)]), "b": inject_ticks([()])}, 1)
        assert str(caught.value) == message
