"""The contract of abpsim's value classes: the field-wise repr, equality,
hash and immutability that every trace, report and test relies on, and the
slot setters their constructors assign through."""

import copy
import operator
import pickle
from collections import Counter

import pytest

from abpsim import (
    CatalogEntry,
    CoverageAccumulator,
    CoverageReport,
    FromA,
    FromB,
    IdentityResult,
    IdentityStatus,
    Msg,
    MsgI,
    MsgO,
    NetworkRun,
    OracleCursor,
    OracleSpec,
    PathCase,
    STATES_ONLY,
    ScenarioSpec,
    SetTimer,
    Tick,
    TimeoutEvent,
    TransitionCase,
    Verdict,
    bundled_scenario,
)
from abpsim.golden import SENDER_CATALOG, MachineBinding, TableCase
from abpsim.runtime import _Component
from abpsim.streams import _Value

CURSOR = OracleCursor(OracleSpec.cyclic([1]), 2)
SCENARIO = ScenarioSpec("s", [[1, 2]], 5, OracleSpec.explicit([True]),
                        OracleSpec.bernoulli(0.5, 7), seed=3)

REPRS = [
    (FromA(1), "FromA(payload=1)"),
    (FromB((True, 3)), "FromB(payload=(True, 3))"),
    (MsgI(FromA("x")), "MsgI(payload=FromA(payload='x'))"),
    (MsgO((False, 2)), "MsgO(payload=(False, 2))"),
    (SetTimer(3), "SetTimer(slots=3)"),
    (Msg(FromA(1)), "Msg(FromA(payload=1))"),
    (CURSOR, "OracleCursor(spec=OracleSpec(kind='cyclic', bits=(True,), "
             "pass_probability=1.0, seed=0), position=2)"),
    (Verdict("c", True),
     "Verdict(case_id='c', passed=True, expected=None, actual=None, error=None, index=None)"),
    (Verdict("c", False, error="E", index=1),
     "Verdict(case_id='c', passed=False, expected=None, actual=None, error='E', index=1)"),
    (TransitionCase("t", (True, ()), 3, (True, (3,)), [SetTimer(3)]),
     "TransitionCase(id='t', start_state=(True, ()), input=3, expected_state=(True, (3,)), "
     "expected_outputs=(SetTimer(slots=3),))"),
    (PathCase("p", True, [1], STATES_ONLY, [False]),
     "PathCase(id='p', start_state=True, inputs=(1,), mode='states', expectation=(False,))"),
    (CatalogEntry("e", "a", "b", callable),
     "CatalogEntry(id='e', source='a', target='b', input_pattern=<built-in function callable>, "
     "guard=None)"),
    (CoverageReport(frozenset(), frozenset({"x"}), {"a": 1}, 0),
     "CoverageReport(covered=frozenset(), uncovered=frozenset({'x'}), class_coverage={'a': 1}, "
     "unclassified=0)"),
    (SCENARIO,
     "ScenarioSpec(name='s', payload_slots=((1, 2),), horizon=5, "
     "data_oracle=OracleSpec(kind='explicit', bits=(True,), pass_probability=1.0, seed=0), "
     "ack_oracle=OracleSpec(kind='bernoulli', bits=(), pass_probability=0.5, seed=7), "
     "timeout=3, sender_bit=True, receiver_bit=True, seed=3)"),
    (IdentityResult(IdentityStatus.PASS, (1,), (1,)),
     "IdentityResult(status=<IdentityStatus.PASS: 'pass'>, expected=(1,), actual=(1,), "
     "divergence=None, run=None, warnings=())"),
    (TableCase("sender", TransitionCase("t", 0, 1, 2, ())),
     "TableCase(machine='sender', case=TransitionCase(id='t', start_state=0, input=1, "
     "expected_state=2, expected_outputs=()), note='')"),
    (NetworkRun(("a",), {"a": [(), (1,)]}, 5),
     "NetworkRun(wire_order=('a',), stored={'a': [(), (1,)]}, horizon=5)"),
    (CoverageAccumulator(), "CoverageAccumulator(transitions=Counter(), classes=Counter())"),
]


def _row_id(value, name):
    """A table row's id: the verdict of one step of a path case (a `Verdict`
    with an index) is named StepVerdict, apart from a case's verdict."""
    return "Step" + name if type(value) is Verdict and value.index is not None else name


@pytest.mark.parametrize("value, text", REPRS,
                         ids=[_row_id(value, text.split("(")[0]) for value, text in REPRS])
def test_values_have_field_wise_reprs(value, text):
    assert repr(value) == text


# Pairs of a value and an equal, separately built one, all hashable.
EQUAL_PAIRS = [
    (FromA(1), FromA(1)),
    (FromB((True, 3)), FromB((True, 3))),
    (MsgI(FromA(2)), MsgI(FromA(2))),
    (MsgO((False, 2)), MsgO((False, 2))),
    (SetTimer(-1), SetTimer(-1)),
    (Msg(3), Msg(3)),
    (CURSOR, OracleCursor(OracleSpec(kind="cyclic", bits=(True,)), position=2)),
    (Verdict("c", True), Verdict(case_id="c", passed=True, expected=None)),
    (Verdict("c", True, index=0), Verdict(case_id="c", passed=True, expected=None, index=0)),
    (TransitionCase("t", 0, 1, 2, [3]), TransitionCase("t", 0, 1, 2, (3,))),
    (PathCase("p", True, [1], STATES_ONLY, [False]),
     PathCase("p", True, (1,), STATES_ONLY, (False,))),
    (SCENARIO, ScenarioSpec.from_dict(SCENARIO.to_dict())),
    (bundled_scenario("single_drop"), bundled_scenario("single_drop")),
]


@pytest.mark.parametrize("left, right", EQUAL_PAIRS,
                         ids=[_row_id(l, repr(l))[:20] for l, _ in EQUAL_PAIRS])
def test_equal_values_compare_and_hash_equal(left, right):
    assert left is not right
    assert left == right and not left != right
    assert hash(left) == hash(right)
    assert len({left, right}) == 1


def test_values_hash_as_their_field_tuples():
    assert hash(FromA(1)) == hash((1,))
    assert hash(CURSOR) == hash((CURSOR.spec, 2))
    assert hash(SetTimer(3)) != hash(SetTimer(4))


def test_values_of_different_classes_or_fields_differ():
    assert FromA(1) != FromB(1)
    assert MsgI(1) != MsgO(1)
    assert MsgI(1) != (1,)
    assert (1,) != MsgI(1)
    assert FromA(1) != FromA(2)
    assert Verdict("c", True) != Verdict("c", True, error="E")
    assert OracleSpec.explicit([True]) != OracleSpec.cyclic([True])
    # Fields compare as a tuple does, so an identical NaN makes equal values.
    nan = float("nan")
    assert MsgI(nan) == MsgI(nan)


def test_values_holding_dicts_compare_by_fields_and_do_not_hash():
    assert NetworkRun(("a",), {"a": [()]}, 1) == NetworkRun(("a",), {"a": [()]}, 1)
    assert NetworkRun(("a",), {"a": [()]}, 1) != NetworkRun(("a",), {"a": [(1,)]}, 1)
    assert NetworkRun(("a",), {"a": [()]}, 1) != NetworkRun(("a",), {"a": [()]}, 2)
    assert CoverageAccumulator() == CoverageAccumulator(Counter(), Counter())
    for value in (NetworkRun((), {}, 0), CoverageAccumulator()):
        with pytest.raises(TypeError):
            hash(value)


@pytest.mark.parametrize("value, field", [
    (FromA(1), "payload"), (SetTimer(3), "slots"), (Msg(1), "payload"),
    (CURSOR, "position"), (Verdict("c", True), "passed"), (SCENARIO, "horizon"),
    (TransitionCase("t", 0, 1, 2, ()), "expected_outputs"),
])
def test_values_are_immutable(value, field):
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.unknown = 0
    assert repr(value) == before


def test_accumulator_defaults_are_fresh_counters():
    first, second = CoverageAccumulator(), CoverageAccumulator()
    first.transitions["t"] += 1
    assert second.transitions == Counter() and first.transitions == Counter({"t": 1})


def test_keyword_construction_and_defaults():
    spec = OracleSpec("bernoulli", pass_probability=0.5, seed=1)
    assert spec == OracleSpec(kind="bernoulli", bits=(), pass_probability=0.5, seed=1)
    assert SetTimer(slots=2) == SetTimer(2) and FromB(payload=1) == FromB(1)
    verdict = Verdict(case_id="c", passed=False, actual=4)
    assert (verdict.expected, verdict.actual, verdict.error) == (None, 4, None)
    scenario = ScenarioSpec(name="k", payload_slots=[[1]], horizon=4,
                            data_oracle=spec, ack_oracle=spec)
    assert scenario.payload_slots == ((1,),)
    assert (scenario.timeout, scenario.sender_bit, scenario.receiver_bit, scenario.seed) == \
        (3, True, True, None)
    assert TableCase("m", scenario).note == ""
    with pytest.raises(TypeError):
        FromA()
    with pytest.raises(TypeError):
        SetTimer(1, 2)


# The messages of the bound checks that no other test pins.
@pytest.mark.parametrize("changes, message", [
    ({"horizon": 0}, "scenario 'b': horizon must be at least 1"),
    ({"payload_slots": [[1]] * 6}, "scenario 'b': 6 payload slots exceed horizon 5"),
    ({"timeout": 0}, "scenario 'b': timeout must be at least 1"),
])
def test_scenario_bounds_are_checked_on_construction(changes, message):
    fields = dict(name="b", payload_slots=[], horizon=5, data_oracle=OracleSpec.explicit([1]),
                  ack_oracle=OracleSpec.explicit([1]))
    with pytest.raises(ValueError) as error:
        ScenarioSpec(**{**fields, **changes})
    assert str(error.value) == message


@pytest.mark.parametrize("value", [FromA(1), CURSOR, SCENARIO, Verdict("c", True),
                                   NetworkRun(("a",), {"a": [(1,)]}, 1)])
def test_values_survive_copy_and_pickle(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)


@pytest.mark.parametrize("signal", [Tick, TimeoutEvent], ids=repr)
def test_signals_stay_single_instances_through_calls_copies_and_pickles(signal):
    twins = {"call": type(signal)(), "copy": copy.copy(signal),
             "deepcopy": copy.deepcopy(signal)}
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        twins[f"pickle protocol {protocol}"] = pickle.loads(pickle.dumps(signal, protocol))
    assert [how for how, twin in twins.items() if twin is not signal] == []


def _value_classes(base=_Value):
    for cls in base.__subclasses__():
        yield cls
        yield from _value_classes(cls)


# One value of every value class in the package, its fields all distinct, so
# that a constructor which sets one field from another's argument shows.
EXAMPLES = {type(value): value for value, _ in REPRS}
EXAMPLES.update({type(value): value for value in [
    OracleSpec("bernoulli", (True,), 0.5, 7),
    Verdict("c", True, 1, 2, "E"),
    CatalogEntry("e", "a", "b", callable, len),
    ScenarioSpec("s", [[1, 2]], 5, OracleSpec.explicit([True]), OracleSpec.bernoulli(0.5, 7),
                 timeout=4, sender_bit=False, receiver_bit=True, seed=3),
    IdentityResult(IdentityStatus.FAIL, (1,), (2,), 0, NetworkRun(("a",), {"a": [()]}, 5),
                   ("w",)),
    CoverageAccumulator(Counter("t"), Counter("c")),
    MachineBinding(len, SENDER_CATALOG),
    _Component("c", 0, len, ("a",), ("b",)),
]})
# Every example, and a step verdict: a `Verdict` whose index is set too.
VALUES = [*EXAMPLES.values(), Verdict("c", False, 1, 2, "E", 3)]


def test_every_value_class_has_an_example():
    classes = {cls for cls in _value_classes() if cls.__module__.startswith("abpsim.")}
    assert classes == set(EXAMPLES)


@pytest.mark.parametrize("value", VALUES, ids=lambda v: _row_id(v, type(v).__name__))
def test_value_classes_bind_one_setter_per_field_in_slot_order(value):
    cls = type(value)
    assert len(cls._setters) == len(cls.__slots__)
    bare = cls.__new__(cls)
    marks = [object() for _ in cls.__slots__]
    for setter, mark in zip(cls._setters, marks):
        setter(bare, mark)
    assert [getattr(bare, name) for name in cls.__slots__] == marks
    # Set through the setters, the value's own fields rebuild it.
    twin = cls.__new__(cls)
    for setter, field in zip(cls._setters, value._fields(value)):
        setter(twin, field)
    assert twin == value


@pytest.mark.parametrize("value", VALUES, ids=lambda v: _row_id(v, type(v).__name__))
def test_constructors_set_each_field_from_its_own_argument(value):
    fields = dict(zip(value.__slots__, value._fields(value)))
    rebuilt = type(value)(**fields)
    assert {name: getattr(rebuilt, name) for name in value.__slots__} == fields


@pytest.mark.parametrize("value", VALUES, ids=lambda v: _row_id(v, type(v).__name__))
def test_every_value_refuses_assignment_and_deletion(value):
    before = value._fields(value)
    for name in value.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert all(map(operator.is_, value._fields(value), before))


class _Counted:
    """A leaf that counts the comparisons made with it."""

    def __init__(self, calls):
        self.calls = calls

    def __eq__(self, other):
        self.calls.append(other)
        return True


def test_equality_compares_each_field_once_at_any_depth():
    # Compared field by field, nested one-field values cost one leaf
    # comparison; a field tuple naming a field twice would cost 2**depth
    # (4,096 here, and too many to finish at the parser's 100 levels).
    calls = []
    left, right = _Counted(calls), _Counted([])
    for wrap in [FromA, MsgI, Msg, SetTimer, MsgO, FromB] * 2:
        left, right = wrap(left), wrap(right)
    assert left == right
    assert len(calls) == 1
