import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abpsim import (
    INITIAL_BIT,
    FromA,
    FromB,
    IdentityStatus,
    ModelError,
    MsgI,
    MsgO,
    NetworkSpec,
    OracleCursor,
    OracleExhausted,
    OracleSpec,
    ScenarioSpec,
    SetTimer,
    Tick,
    TimeoutEvent,
    build_abp_network,
    check_identity,
    inject_ticks,
    lift_timed,
    make_sender_delta,
    medium_delta,
    receiver_delta,
    receiver_delta_tagged,
    run_machine,
    run_network,
    run_scenario,
    sender_delta,
)

payload = st.integers(0, 9)


def ack(bit):
    return MsgI(FromB(bit))


def data(value):
    return MsgI(FromA(value))


# ------------------------------------------------------------------ sender


def test_sender_first_payload_sends_and_arms():
    assert sender_delta((True, ()), data(3)) == (
        (True, (3,)), (MsgO((True, 3)), SetTimer(3)))


def test_sender_later_payloads_queue_silently():
    assert sender_delta((True, (3,)), data(4)) == ((True, (3, 4)), ())


def test_sender_matching_ack_on_last_message_goes_idle():
    assert sender_delta((True, (4,)), ack(True)) == ((False, ()), (SetTimer(-1),))


def test_sender_matching_ack_advances_to_the_next_payload():
    assert sender_delta((True, (3, 4)), ack(True)) == (
        (False, (4,)), (MsgO((False, 4)), SetTimer(3)))


def test_sender_ignores_stale_or_idle_acks():
    assert sender_delta((True, (3, 4)), ack(False)) == ((True, (3, 4)), ())
    assert sender_delta((True, ()), ack(True)) == ((True, ()), ())
    assert sender_delta((True, ()), ack(False)) == ((True, ()), ())


def test_sender_timeout_resends_the_buffer_head():
    assert sender_delta((True, (3, 4)), TimeoutEvent) == (
        (True, (3, 4)), (MsgO((True, 3)), SetTimer(3)))


def test_sender_timeout_with_empty_buffer_is_a_no_op():
    assert sender_delta((True, ()), TimeoutEvent) == ((True, ()), ())


def test_sender_rejects_unknown_events():
    with pytest.raises(ModelError):
        sender_delta((True, ()), MsgI("garbage"))
    with pytest.raises(ModelError):
        sender_delta((True, ()), "garbage")


def test_sender_timeout_constant_is_configurable():
    fast = make_sender_delta(timeout=1)
    _, outputs = fast((False, ()), data(7))
    assert outputs == (MsgO((False, 7)), SetTimer(1))


@given(st.booleans(), st.lists(payload, min_size=1, max_size=5))
def test_sender_never_reorders_its_buffer(bit, payloads):
    state = (bit, ())
    for p in payloads:
        state, _ = sender_delta(state, data(p))
    assert state == (bit, tuple(payloads))
    state, _ = sender_delta(state, ack(bit))
    assert state == (not bit, tuple(payloads[1:]))


# ------------------------------------------------------------------ oracle


def test_explicit_oracle_errors_past_its_end():
    spec = OracleSpec.explicit([True, False])
    assert spec.bit_at(0) is True
    assert spec.bit_at(1) is False
    with pytest.raises(OracleExhausted):
        spec.bit_at(2)


def test_cyclic_oracle_wraps():
    spec = OracleSpec.cyclic([True, False, False])
    assert [spec.bit_at(i) for i in range(7)] == [
        True, False, False, True, False, False, True]


def test_cyclic_oracle_requires_a_pass_bit():
    with pytest.raises(ValueError):
        OracleSpec.cyclic([])
    with pytest.raises(ValueError):
        OracleSpec.cyclic([False, False])


def test_bernoulli_oracle_is_deterministic_per_seed_and_position():
    spec = OracleSpec.bernoulli(0.5, 123)
    bits = [spec.bit_at(i) for i in range(64)]
    assert bits == [spec.bit_at(i) for i in range(64)]
    assert OracleSpec.bernoulli(0.5, 124).bit_at(0) in (True, False)


def test_bernoulli_probability_one_always_passes():
    spec = OracleSpec.bernoulli(1.0, 9)
    assert all(spec.bit_at(i) for i in range(50))


def test_bernoulli_rate_tracks_the_probability():
    spec = OracleSpec.bernoulli(0.5, 0)
    passes = sum(spec.bit_at(i) for i in range(1000))
    assert 400 < passes < 600


@pytest.mark.parametrize("p", [0.0, -0.1, 1.5])
def test_bernoulli_rejects_unfair_probabilities(p):
    with pytest.raises(ValueError):
        OracleSpec.bernoulli(p, 0)


@given(st.one_of(
    st.lists(st.booleans(), max_size=6).map(OracleSpec.explicit),
    st.lists(st.booleans(), min_size=1, max_size=6).map(
        lambda bits: OracleSpec.cyclic(bits[:-1] + [True])),
    st.tuples(st.floats(0.01, 1.0), st.integers(0, 2**32 - 1)).map(
        lambda pair: OracleSpec.bernoulli(*pair)),
))
def test_oracle_dict_round_trip(spec):
    assert OracleSpec.from_dict(spec.to_dict()) == spec


def test_oracle_from_dict_rejects_malformed_documents():
    with pytest.raises(ValueError):
        OracleSpec.from_dict({})
    with pytest.raises(ValueError):
        OracleSpec.from_dict({"kind": "weather"})
    with pytest.raises(ValueError):
        OracleSpec.from_dict({"kind": "bernoulli", "pass_probability": 0.5})
    with pytest.raises(ValueError):
        OracleSpec.from_dict(None)


def test_fairness_warnings_flag_hopeless_explicit_oracles():
    assert "no pass bits" in OracleSpec.explicit([False, False]).fairness_warning()
    assert "2 drop bit(s)" in OracleSpec.explicit([True, False, False]).fairness_warning()
    assert OracleSpec.explicit([False, True]).fairness_warning() is None
    assert OracleSpec.cyclic([False, True]).fairness_warning() is None
    assert OracleSpec.bernoulli(0.1, 0).fairness_warning() is None


def test_cursor_consumption_is_pure():
    cursor = OracleSpec.explicit([True, False]).cursor()
    bit, advanced = cursor.next_bit()
    assert bit is True
    assert cursor.position == 0 and advanced.position == 1
    assert cursor.peek_bit() is True
    assert advanced.peek_bit() is False


# ------------------------------------------------------------------ medium


def test_medium_consumes_one_bit_per_message():
    cursor = OracleSpec.explicit([True, False, True]).cursor()
    cursor, outputs = medium_delta(cursor, (True, 1))
    assert outputs == (((True, 1)),)
    cursor, outputs = medium_delta(cursor, (False, 2))
    assert outputs == ()
    assert cursor.position == 2


def test_medium_ticks_do_not_consume_oracle_bits():
    timed = lift_timed(medium_delta)
    start = OracleSpec.explicit([True]).cursor()
    state, outputs = run_machine(start, timed, [Tick, Tick, Tick])
    assert state == start
    assert outputs == (Tick, Tick, Tick)


def run_alone(start, delta, slots, outputs=("out",)):
    """Run one component over a one-component network fed `slots`."""
    net = NetworkSpec()
    net.add_machine("machine", start, delta, inputs=["in"], outputs=list(outputs))
    return run_network(net, {"in": inject_ticks(slots)}, len(slots))


def test_medium_component_filters_by_the_oracle():
    oracle = OracleSpec.explicit([True, False, True])
    run = run_alone(oracle.cursor(), lift_timed(medium_delta), [(1,), (2, 3)])
    assert run.slots["out"] == [(1,), (3,)]


def test_medium_exhausts_an_explicit_oracle():
    oracle = OracleSpec.explicit([True])
    with pytest.raises(OracleExhausted):
        run_alone(oracle.cursor(), lift_timed(medium_delta), [(1, 2)])


# ---------------------------------------------------------------- receiver


def test_receiver_delivers_on_the_expected_bit_and_flips():
    assert receiver_delta(True, (True, 7)) == (False, (True,), (7,))
    assert receiver_delta(False, (False, 9)) == (True, (False,), (9,))


def test_receiver_echoes_but_discards_stale_bits():
    assert receiver_delta(True, (False, 7)) == (True, (False,), ())
    assert receiver_delta(False, (True, 9)) == (False, (True,), ())


def test_receiver_tagged_orders_acks_before_deliveries():
    assert receiver_delta_tagged(True, (True, 7)) == (False, (FromA(True), FromB(7)))
    assert receiver_delta_tagged(True, (False, 7)) == (True, (FromA(False),))


def test_receiver_component_splits_acks_from_deliveries():
    run = run_alone(INITIAL_BIT, lift_timed(receiver_delta_tagged),
                    [((True, 5),), ((True, 6),)], outputs=("acks", "out"))
    assert run.slots["acks"] == [(True,), (True,)]
    assert run.slots["out"] == [(5,), ()]  # second message is a stale bit


# ------------------------------------------------------------- composition


def test_network_shape():
    net = build_abp_network(OracleSpec.cyclic([True]), OracleSpec.cyclic([True]))
    assert net.external_wires() == ("input",)
    assert set(net.wire_order) == {"input", "am", "ds", "dm", "as", "out"}


def perfect_media():
    return OracleSpec.cyclic([True]), OracleSpec.cyclic([True])


def compose(payload_slots, horizon, oracles):
    data_oracle, ack_oracle = oracles
    return check_identity(ScenarioSpec(name="compose", payload_slots=payload_slots,
                                       horizon=horizon, data_oracle=data_oracle,
                                       ack_oracle=ack_oracle))


def test_compose_is_the_identity_with_perfect_media():
    result = compose(((1,), (), (2, 3)), 5, perfect_media())
    assert result.status is IdentityStatus.PASS
    assert result.actual == (1, 2, 3)


def test_compose_observation_is_repeatable():
    scenario = ScenarioSpec(name="repeat", payload_slots=((1,),), horizon=8,
                            data_oracle=OracleSpec.cyclic([False, True]),
                            ack_oracle=OracleSpec.cyclic([True]))
    first, _ = run_scenario(scenario)
    second, _ = run_scenario(scenario)
    assert first.slots == second.slots
    assert all(len(history) == 8 for history in first.slots.values())
    assert [p for slot in first.slots["out"] for p in slot] == [1]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(payload, max_size=2), max_size=5))
def test_compose_identity_property_with_perfect_media(slots):
    sent = tuple(p for slot in slots for p in slot)
    horizon = len(slots) + 2 * len(sent) + 1
    result = compose(tuple(map(tuple, slots)), horizon, perfect_media())
    assert result.status is IdentityStatus.PASS
    assert result.actual == sent


@settings(max_examples=20, deadline=None)
@given(st.lists(payload, min_size=1, max_size=4), st.integers(0, 2**32 - 1))
def test_compose_identity_property_with_lossy_media(payloads, seed):
    oracles = (OracleSpec.bernoulli(0.7, seed), OracleSpec.bernoulli(0.7, seed ^ 1))
    # Generous horizon: ~24 resend attempts per payload at 0.49 end-to-end
    # pass rate leaves a residual failure probability around 1e-7.
    horizon = 1 + len(payloads) * 120
    result = compose(tuple((p,) for p in payloads), horizon, oracles)
    assert result.actual == tuple(payloads)
