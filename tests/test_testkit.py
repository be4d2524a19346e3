import dataclasses
import hashlib
import itertools
import json
import random
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abpsim import (
    FULL,
    OUTPUTS_ONLY,
    STATES_ONLY,
    CatalogEntry,
    ClassificationError,
    IdentityStatus,
    OracleSpec,
    PathCase,
    ScenarioSpec,
    TransitionCase,
    TransitionCatalog,
    Verdict,
    boundary_interior_paths,
    check_identity,
    generate_scenario,
    instrument,
    path_test,
    run_scenario,
    scenario_digest,
    trans_test,
)
from abpsim import testkit
from abpsim.abp import build_abp_network
from abpsim.golden import BUNDLED_SCENARIO_NAMES, SENDER_CATALOG, bundled_scenario


def stepper(state, item):
    if item == "inc":
        return state + 1, ("bumped",)
    if item == "noop":
        return state, ()
    raise RuntimeError(f"no rule for {item!r}")


# --------------------------------------------------------------- trans_test


def test_trans_test_passes_on_exact_match():
    case = TransitionCase("ok", 0, "inc", 1, ("bumped",))
    verdict = trans_test(stepper, case)
    assert verdict.passed and bool(verdict)
    assert verdict.actual == (1, ("bumped",))


def test_trans_test_reports_mismatches():
    case = TransitionCase("off", 0, "inc", 2, ())
    verdict = trans_test(stepper, case)
    assert not verdict.passed
    assert verdict.expected == (2, ())
    assert verdict.actual == (1, ("bumped",))
    assert verdict.error is None


def test_trans_test_folds_exceptions_into_the_verdict():
    case = TransitionCase("boom", 0, "explode", 0, ())
    verdict = trans_test(stepper, case)
    assert not verdict.passed
    assert "RuntimeError" in verdict.error


# ---------------------------------------------------------------- path_test


def test_path_test_full_mode_checks_state_and_outputs_per_step():
    case = PathCase("walk", 0, ("inc", "noop"), FULL,
                    ((1, ("bumped",)), (1, ())))
    steps = path_test(stepper, case)
    assert all(step.passed for step in steps)
    assert [step.index for step in steps] == [0, 1]


def test_path_test_marks_steps_after_a_divergence():
    case = PathCase("drift", 0, ("inc", "inc"), STATES_ONLY, (9, 2))
    first, second = path_test(stepper, case)
    assert not first.passed and not first.after_divergence
    # The second step is still evaluated, from the actual trajectory.
    assert second.passed and second.after_divergence
    assert second.actual == 2


def test_path_test_outputs_mode_compares_the_concatenation():
    case = PathCase("outs", 0, ("inc", "noop", "inc"), OUTPUTS_ONLY,
                    ("bumped", "bumped"))
    verdict = path_test(stepper, case)
    assert isinstance(verdict, Verdict) and verdict.passed


def test_path_test_stops_on_a_raising_delta():
    case = PathCase("burn", 0, ("inc", "explode", "inc"), STATES_ONLY, (1, 2, 3))
    steps = path_test(stepper, case)
    assert len(steps) == 2
    assert steps[0].passed
    assert not steps[1].passed and "RuntimeError" in steps[1].error

    outs = PathCase("burn2", 0, ("explode",), OUTPUTS_ONLY, ())
    verdict = path_test(stepper, outs)
    assert not verdict.passed and "RuntimeError" in verdict.error


@pytest.mark.parametrize("run", [
    lambda delta: trans_test(delta, TransitionCase("c", 0, 1, 0, ())),
    lambda delta: path_test(delta, PathCase("c", 0, (1,), FULL, ((0, ()),)))[-1],
    lambda delta: path_test(delta, PathCase("c", 0, (1,), STATES_ONLY, (0,)))[-1],
    lambda delta: path_test(delta, PathCase("c", 0, (1,), OUTPUTS_ONLY, ())),
], ids=["trans_test", FULL, STATES_ONLY, OUTPUTS_ONLY])
def test_testers_fold_non_iterable_outputs_into_a_failing_verdict(run):
    verdict = run(lambda state, item: (state, 5))
    assert not verdict.passed
    assert verdict.error.startswith("TypeError: ")


def test_path_case_validates_its_shape():
    with pytest.raises(ValueError):
        PathCase("bad", 0, ("inc",), "sideways", (1,))
    with pytest.raises(ValueError):
        PathCase("short", 0, ("inc", "inc"), STATES_ONLY, (1,))


# ------------------------------------------------------------------ catalog


def toy_catalog():
    return TransitionCatalog(
        "toy",
        classes={
            "even": lambda s: isinstance(s, int) and s % 2 == 0,
            "odd": lambda s: isinstance(s, int) and s % 2 == 1,
        },
        entries=[
            CatalogEntry("inc_even", "even", "odd", lambda i: i == "inc"),
            CatalogEntry("inc_odd", "odd", "even", lambda i: i == "inc"),
            CatalogEntry("noop_even", "even", "even", lambda i: i == "noop"),
        ],
    )


def test_catalog_rejects_duplicate_ids_and_unknown_classes():
    with pytest.raises(ValueError):
        TransitionCatalog("m", {"a": bool}, [
            CatalogEntry("t", "a", "a", bool), CatalogEntry("t", "a", "a", bool)])
    with pytest.raises(ValueError):
        TransitionCatalog("m", {"a": bool}, [CatalogEntry("t", "a", "ghost", bool)])


def test_classify_respects_source_class_pattern_and_guard():
    catalog = toy_catalog()
    assert catalog.classify(0, "inc") == "inc_even"
    assert catalog.classify(1, "inc") == "inc_odd"
    assert catalog.classify(0, "noop") == "noop_even"
    assert catalog.classify(1, "noop") is None
    assert catalog.class_of(2) == "even"
    assert catalog.class_of("x") is None


def test_overlapping_classes_are_a_classification_error():
    sloppy = TransitionCatalog(
        "sloppy",
        classes={"all": lambda s: True, "even": lambda s: s % 2 == 0},
        entries=[
            CatalogEntry("a", "all", "all", lambda i: True),
            CatalogEntry("b", "even", "even", lambda i: True),
        ],
    )
    with pytest.raises(ClassificationError):
        sloppy.class_of(2)
    with pytest.raises(ClassificationError):
        sloppy.classify(2, "x")


def test_sender_catalog_is_deterministic_on_its_golden_steps():
    steps = [((True, ()), 3), ((True, (3,)), True), ((True, (3, 4)), False),
             ((True, (3, 4)), True), ((False, ()), False)]
    # Each step lies in exactly one class and matches exactly one entry;
    # classify and class_of raise ClassificationError on a second match.
    for state, item in steps:
        assert SENDER_CATALOG.classify(state, item) is not None
        assert SENDER_CATALOG.class_of(state) is not None


# --------------------------------------------------------------- instrument


def test_instrument_is_behaviorally_transparent():
    wrapped, _ = instrument(stepper, toy_catalog())
    for state, item in [(0, "inc"), (1, "inc"), (4, "noop")]:
        assert wrapped(state, item) == stepper(state, item)


def test_instrument_records_transitions_and_unmatched_steps():
    wrapped, acc = instrument(stepper, toy_catalog())
    wrapped(0, "inc")
    wrapped(1, "inc")
    wrapped(1, "noop")  # no entry covers noop from odd: a test smell
    report = acc.report(toy_catalog())
    assert report.covered == frozenset({"inc_even", "inc_odd"})
    assert report.uncovered == frozenset({"noop_even"})
    assert not report.complete
    assert report.unclassified == 1
    assert report.class_coverage == {"even": 1, "odd": 2}


def test_instrument_counts_the_class_of_the_state_before_the_step():
    wrapped, acc = instrument(stepper, toy_catalog())
    wrapped(0, "inc")
    wrapped(2, "inc")
    # A step is recorded before the delta runs, so a raising step counts too.
    with pytest.raises(RuntimeError):
        wrapped(4, "explode")
    report = acc.report(toy_catalog())
    assert report.class_coverage == {"even": 3, "odd": 0}
    assert report.unclassified == 1


def test_report_completes_once_every_entry_fires():
    wrapped, acc = instrument(stepper, toy_catalog())
    for state, item in [(0, "inc"), (1, "inc"), (2, "noop")]:
        wrapped(state, item)
    report = acc.report(toy_catalog())
    assert report.complete
    assert report.unclassified == 0


def test_instrument_records_nothing_for_a_step_it_cannot_classify():
    # The step matches one entry, but its state lies in two classes.
    sloppy = TransitionCatalog(
        "sloppy",
        classes={"all": lambda s: True, "even": lambda s: s % 2 == 0},
        entries=[CatalogEntry("a", "all", "all", lambda i: i == "inc")],
    )
    wrapped, acc = instrument(stepper, sloppy)
    with pytest.raises(ClassificationError):
        wrapped(2, "inc")
    assert (acc.transitions, acc.classes) == (Counter(), Counter())


# ---------------------------------------------------- boundary-interior paths


def test_paths_of_a_two_class_cycle():
    pair = TransitionCatalog(
        "pair",
        classes={"A": lambda s: s == "A", "B": lambda s: s == "B"},
        entries=[CatalogEntry("ab", "A", "B", bool), CatalogEntry("ba", "B", "A", bool)],
    )
    assert boundary_interior_paths(pair, "A") == frozenset({("ab",), ("ab", "ba")})
    assert boundary_interior_paths(pair, "A", max_loop_unroll=2) == frozenset({
        ("ab",), ("ab", "ba"), ("ab", "ba", "ab"), ("ab", "ba", "ab", "ba")})


def test_paths_without_outgoing_edges_is_the_empty_path():
    lonely = TransitionCatalog("lonely", {"only": lambda s: True}, [])
    assert boundary_interior_paths(lonely, "only") == frozenset({()})


def test_paths_validate_their_arguments():
    with pytest.raises(ValueError):
        boundary_interior_paths(toy_catalog(), "ghost")
    with pytest.raises(ValueError):
        boundary_interior_paths(toy_catalog(), "even", max_loop_unroll=0)


def brute_force_paths(catalog, start_class, unroll, max_len):
    edges = {e.id: (e.source, e.target) for e in catalog.entries}

    def valid(seq):
        cls = start_class
        for eid in seq:
            src, tgt = edges[eid]
            if src != cls:
                return False
            cls = tgt
        return all(n <= unroll for n in Counter(seq).values())

    found = set()
    for length in range(1, max_len + 1):
        for seq in itertools.product(edges, repeat=length):
            if valid(seq):
                found.add(seq)
    return found


def test_sender_paths_match_brute_force_enumeration():
    result = boundary_interior_paths(SENDER_CATALOG, "empty_buffer")
    short = {p for p in result if len(p) <= 3}
    assert short == brute_force_paths(SENDER_CATALOG, "empty_buffer", 1, 3)
    # Unrolling once bounds a path by one use of each of the 8 edges, and a
    # full trail through both loops at each class exists.
    assert max(map(len, result)) == 8


def test_sender_paths_are_prefix_closed_valid_and_bounded():
    edges = {e.id: (e.source, e.target) for e in SENDER_CATALOG.entries}
    result = boundary_interior_paths(SENDER_CATALOG, "empty_buffer", max_loop_unroll=1)
    for path in result:
        cls = "empty_buffer"
        for eid in path:
            src, tgt = edges[eid]
            assert src == cls
            cls = tgt
        assert max(Counter(path).values()) <= 1
        if len(path) > 1:
            assert path[:-1] in result


# ----------------------------------------------------------------- scenarios


def small_scenario(**overrides):
    fields = dict(
        name="toy",
        payload_slots=((1,), (), (2,)),
        horizon=12,
        data_oracle=OracleSpec.cyclic([True]),
        ack_oracle=OracleSpec.cyclic([True]),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def test_scenario_validates_shape():
    with pytest.raises(ValueError):
        small_scenario(horizon=0)
    with pytest.raises(ValueError):
        small_scenario(payload_slots=((1,),) * 20)
    with pytest.raises(ValueError):
        small_scenario(timeout=0)
    # The horizon limit is checked before anything of that size is built.
    with pytest.raises(ValueError, match="exceeds the limit of 1000000 slots"):
        small_scenario(horizon=10**12)
    assert small_scenario(horizon=1_000_000).horizon == 1_000_000


def test_scenario_rejects_more_than_10000_payloads():
    # The limit counts payloads across slots, not slots.
    assert len(small_scenario(payload_slots=((7,) * 5_000,) * 2).payloads()) == 10_000
    with pytest.raises(ValueError, match="10001 payloads exceed the limit of 10000 payloads"):
        small_scenario(payload_slots=((7,) * 5_000, (), (7,) * 5_001))


def test_scenario_payloads_and_input_stream():
    scenario = small_scenario()
    assert scenario.payloads() == (1, 2)
    stream = scenario.input_stream()
    assert len(tuple(stream.slots())) == 12
    from abpsim import take_slots
    assert take_slots(stream, 4) == ((1,), (), (2,), ())


def test_scenario_dict_round_trip():
    scenario = small_scenario(seed=77, sender_bit=False)
    assert ScenarioSpec.from_dict(scenario.to_dict()) == scenario
    bare = small_scenario()
    assert "seed" not in bare.to_dict()
    assert ScenarioSpec.from_dict(bare.to_dict()) == bare


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(extra=1),
    lambda d: d.pop("horizon"),
    lambda d: d.update(horizon=0),
    lambda d: d.update(payload_slots=[[True]]),
    lambda d: d.update(payload_slots="nope"),
    lambda d: d.update(sender_bit=1),
    lambda d: d.update(name=7),
    lambda d: d.update(seed=True),
    lambda d: d.update(data_oracle={"kind": "weather"}),
])
def test_scenario_from_dict_rejects_malformed_documents(mutate):
    doc = small_scenario().to_dict()
    mutate(doc)
    with pytest.raises(ValueError):
        ScenarioSpec.from_dict(doc)


def test_scenario_digest_ignores_field_order_but_not_content():
    scenario = small_scenario()
    doc = scenario.to_dict()
    shuffled = json.loads(json.dumps(dict(reversed(list(doc.items())))))
    assert scenario_digest(ScenarioSpec.from_dict(shuffled)) == scenario_digest(scenario)
    assert scenario_digest(small_scenario(horizon=13)) != scenario_digest(scenario)


def test_generate_scenario_is_deterministic():
    assert generate_scenario(5) == generate_scenario(5)
    assert scenario_digest(generate_scenario(5)) != scenario_digest(generate_scenario(6))


@given(st.integers(0, 200))
@settings(max_examples=40)
def test_generate_scenario_respects_its_bounds(seed):
    bounds = (5, 300, 0.4)
    scenario = generate_scenario(seed, bounds)
    assert scenario.seed == seed
    assert scenario.name == f"seed-{seed}"
    assert len(scenario.payloads()) <= 5
    assert 1 <= scenario.horizon <= 300
    assert len(scenario.payload_slots) <= scenario.horizon
    for oracle in (scenario.data_oracle, scenario.ack_oracle):
        assert oracle.kind == "bernoulli"
        assert oracle.pass_probability >= 0.6


def test_generate_scenario_degrades_to_empty_when_the_horizon_is_tiny():
    scenario = generate_scenario(0, (10, 3, 0.5))
    assert scenario.payloads() == ()
    assert scenario.horizon >= 1
    assert check_identity(scenario).status is IdentityStatus.PASS


@pytest.mark.parametrize("bounds", [(-1, 100, 0.5), (5, 0, 0.5), (5, 100, 1.0)])
def test_generate_scenario_rejects_bad_bounds(bounds):
    with pytest.raises(ValueError):
        generate_scenario(0, bounds)


# ------------------------------------------------------------ identity check


def test_identity_passes_on_the_perfect_medium_scenario():
    result = check_identity(bundled_scenario("all_pass"))
    assert result.status is IdentityStatus.PASS
    assert bool(result)
    assert result.wires is None and result.divergence is None
    assert result.warnings == ()


def test_identity_reports_a_too_short_horizon_as_inconclusive():
    scenario = small_scenario(
        payload_slots=((1,),), horizon=2,
        data_oracle=OracleSpec.cyclic([False, True]))
    result = check_identity(scenario)
    assert result.status is IdentityStatus.INCONCLUSIVE_HORIZON
    assert not result.passed
    assert result.actual == () and result.expected == (1,)
    assert result.divergence is None
    assert result.wires is not None  # traces kept for diagnosis


def test_identity_fails_hard_on_divergence_with_traces():
    result = check_identity(bundled_scenario("mismatched_bits"))
    assert result.status is IdentityStatus.FAIL
    assert result.divergence == 0
    assert set(result.wires) == {"input", "am", "ds", "dm", "as", "out"}


def test_identity_carries_fairness_warnings():
    scenario = small_scenario(
        payload_slots=((1,),), horizon=5,
        data_oracle=OracleSpec.cyclic([True]),
        ack_oracle=OracleSpec.explicit([False, False, False]))
    result = check_identity(scenario)
    # Delivery still happens (data medium is perfect); the hopeless ack
    # oracle is flagged rather than silently tolerated.
    assert result.status is IdentityStatus.PASS
    assert any("ack oracle" in w for w in result.warnings)


# sha256 of the canonical JSON of every wire history of the 100 criterion-3
# scenarios drawn from random.Random("suite:0") plus the bundled scenarios,
# as recorded by the per-slot message/tick engine this runtime replaced.  A
# change to the network runtime must reproduce these histories byte for byte.
PINNED_WIRES_SHA256 = "c251bdca68d8ce90911b7278d94978029138cb3231d8c29770ee8944f173f9a9"


def test_run_scenario_reproduces_the_pinned_wire_histories():
    rng = random.Random("suite:0")
    scenarios = [generate_scenario(rng.randrange(2**32), (10, 10_000, 0.5))
                 for _ in range(100)]
    scenarios += [bundled_scenario(name) for name in BUNDLED_SCENARIO_NAMES]
    doc = []
    for scenario in scenarios:
        run, _ = run_scenario(scenario)
        doc.append([scenario.name, [[wire, run.slots[wire]] for wire in run.wire_order]])
    canonical = json.dumps(doc, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == PINNED_WIRES_SHA256


# ------------------------------------------------- quiet-slot fast-forward


@contextmanager
def abp_networks_rewired(rewrap):
    """Within the block, run_scenario runs `rewrap` of each ABP network."""
    with mock.patch.object(testkit, "build_abp_network",
                           lambda *args, **kwargs: rewrap(build_abp_network(*args, **kwargs))):
        yield


def _scenario_outcome(scenario):
    # Every wire history, or the type and message of the error raised.
    try:
        run, _ = run_scenario(scenario)
    except Exception as exc:  # the differential compares errors too
        return type(exc).__name__, str(exc)
    return run.slots


def _reference_outcome(scenario, reference_run):
    net = build_abp_network(scenario.data_oracle, scenario.ack_oracle, timeout=scenario.timeout,
                            sender_bit=scenario.sender_bit, receiver_bit=scenario.receiver_bit)
    try:
        return reference_run(net, {"input": scenario.input_stream()}, scenario.horizon)
    except Exception as exc:  # the differential compares errors too
        return type(exc).__name__, str(exc)


def _assert_fast_forward_matches_references(scenario, full_stepping, reference_run):
    fast = _scenario_outcome(scenario)
    with abp_networks_rewired(full_stepping):
        assert _scenario_outcome(scenario) == fast
    assert _reference_outcome(scenario, reference_run) == fast


@pytest.mark.parametrize("name", BUNDLED_SCENARIO_NAMES)
def test_fast_forward_matches_full_stepping_on_bundled_scenarios(full_stepping, reference_run,
                                                                  name):
    _assert_fast_forward_matches_references(bundled_scenario(name), full_stepping,
                                            reference_run)


oracle_specs = st.one_of(
    st.lists(st.booleans(), min_size=1, max_size=12).map(OracleSpec.explicit),
    st.lists(st.booleans(), min_size=1, max_size=6).filter(any).map(OracleSpec.cyclic),
    st.builds(OracleSpec.bernoulli, st.floats(0.3, 1.0), st.integers(0, 2**32 - 1)),
)


@st.composite
def abp_scenarios(draw):
    slots = []
    for gap, payloads in draw(st.lists(
            st.tuples(st.integers(0, 40), st.lists(st.integers(0, 9), min_size=1, max_size=2)),
            max_size=4)):
        slots += [()] * gap + [tuple(payloads)]
    return ScenarioSpec(
        name="drawn",
        payload_slots=tuple(slots),
        horizon=len(slots) + draw(st.integers(1, 80)),
        data_oracle=draw(oracle_specs),
        ack_oracle=draw(oracle_specs),
        timeout=draw(st.integers(1, 4)),
        sender_bit=draw(st.booleans()),
        receiver_bit=draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None)
@given(abp_scenarios())
def test_fast_forward_matches_full_stepping_on_abp_scenarios(full_stepping, reference_run,
                                                             scenario):
    _assert_fast_forward_matches_references(scenario, full_stepping, reference_run)


def test_fast_forward_calls_deltas_only_in_busy_slots(rewire):
    scenario = dataclasses.replace(bundled_scenario("single_drop"), horizon=100_000)
    calls = []

    def counted(delta):
        def step(state, item):
            calls.append(item)
            return delta(state, item)

        return step

    with abp_networks_rewired(lambda net: rewire(net, delta=counted)):
        run, _ = run_scenario(scenario)
    assert [p for slot in run.slots["out"] for p in slot] == [1]
    busy = sum(1 for index in range(scenario.horizon)
               if any(run.slots[wire][index] for wire in run.wire_order))
    # Four components each take a tick per stepped slot, plus one call per
    # message; the network settles a few slots after the last busy one.
    # Stepping every slot would take over 400,000 calls.
    assert busy < 20
    assert len(calls) <= 8 * (busy + 10)
