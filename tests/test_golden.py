import json
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from abpsim import (
    ModelError,
    MsgO,
    OracleSpec,
    ScenarioSpec,
    SetTimer,
    TransitionCase,
    parse_table,
    parse_value,
)
from abpsim import golden
from abpsim.golden import (
    BUNDLED_SCENARIO_NAMES,
    BUNDLED_TABLE_NAMES,
    MACHINES,
    POSITIVE_SCENARIO_NAMES,
    TableCase,
    bundled_scenario,
    bundled_table,
    bundled_tables,
    load_scenario_file,
    load_table_file,
)


def test_bundled_tables_cover_three_machines():
    cases = bundled_tables()
    by_machine = {}
    for tc in cases:
        by_machine.setdefault(tc.machine, []).append(tc)
    assert set(by_machine) == set(BUNDLED_TABLE_NAMES)
    assert len(by_machine["sender"]) == 8
    assert len(by_machine["receiver"]) == 4
    assert len(by_machine["medium"]) == 4
    ids = [tc.case.id for tc in cases]
    assert len(ids) == len(set(ids))


def test_bundled_lookup_rejects_unknown_names():
    with pytest.raises(ValueError):
        bundled_table("router")
    with pytest.raises(ValueError):
        bundled_scenario("perfect_storm")


def test_bundled_scenario_names_are_loadable():
    for name in BUNDLED_SCENARIO_NAMES:
        scenario = bundled_scenario(name)
        assert scenario.name == name
    assert set(POSITIVE_SCENARIO_NAMES) < set(BUNDLED_SCENARIO_NAMES)


def sender_record(**overrides):
    record = {
        "id": "s_demo",
        "machine": "sender",
        "start": "[true,[]]",
        "input": "3",
        "expectState": "[true,[3]]",
        "expectOutputs": "[MsgO(true,3),SetTimer(3)]",
    }
    record.update(overrides)
    return record


def test_parse_table_accepts_both_document_shapes():
    record = sender_record()
    for doc in ([record], {"cases": [record]}):
        (case,) = parse_table(doc)
        assert case.machine == "sender"
        assert case.case.start_state == (True, ())
        assert case.case.expected_outputs == (MsgO((True, 3)), SetTimer(3))


def test_parse_table_keeps_notes():
    (case,) = parse_table([sender_record(note="first send arms the timer")])
    assert "arms" in case.note


@pytest.mark.parametrize("doc,fragment", [
    (42, "object or list"),
    ({"cases": 42}, "'cases'"),
    ([42], "not an object"),
    ([{"id": "x"}], "missing field"),
    ([sender_record(flavor="spicy")], "unknown field"),
    ([sender_record(machine="router")], "unknown machine"),
    ([sender_record(input="flurb")], "field 'input'"),
    ([sender_record(expectOutputs="3")], "sequence literal"),
    ([sender_record(start=5)], "case 's_demo': field 'start'"),
    ([sender_record(expectOutputs=["MsgO(true,3)"])], "case 's_demo': field 'expectOutputs'"),
    ([sender_record(machine=["sender"])], "case 's_demo': field 'machine'"),
    ([sender_record(machine={"name": "sender"})], "case 's_demo': field 'machine'"),
    ([sender_record(id=1)], "case 1: field 'id': must be a string"),
    ([sender_record(note={"a": 1})], "case 's_demo': field 'note': must be a string"),
    ([sender_record(comment=["x"])], "case 's_demo': field 'comment': must be a string"),
    ([sender_record(), sender_record(input="4")], "case 's_demo': duplicate id (records 0 and 1)"),
    ([sender_record(), sender_record(id="x"), sender_record()], "(records 0 and 2)"),
])
def test_parse_table_rejects_malformed_documents(doc, fragment):
    with pytest.raises(ValueError) as err:
        parse_table(doc, source="unit")
    assert fragment in str(err.value)
    assert "unit" in str(err.value)


# ------------------------------------------------- one parse per literal

def test_parse_table_parses_each_distinct_literal_once(monkeypatch):
    calls = Counter()

    def counting_parse_value(text):
        calls[text] += 1
        return parse_value(text)

    monkeypatch.setattr(golden, "parse_value", counting_parse_value)
    doc = [sender_record(id=f"s{i}") for i in range(3)] + [sender_record(
        id="s3", start="[true,[3]]", expectState="[true,[3,3]]", expectOutputs="[]")]
    cases = parse_table(doc)
    assert calls == Counter({"[true,[]]": 1, "3": 1, "[true,[3]]": 1,
                             "[MsgO(true,3),SetTimer(3)]": 1, "[true,[3,3]]": 1, "[]": 1})
    assert cases[0].case.expected_outputs is cases[2].case.expected_outputs
    # The memo lives for one call: parsing the document again parses again.
    assert parse_table(doc) == cases
    assert set(calls.values()) == {2}


def parse_table_per_field(records, source):
    """What parse_table gives for records with unique string ids, known
    machines and no missing or unknown fields, checking every record in
    full and calling parse_value once for every field it reads."""
    cases = []
    for record in records:
        label = record["id"]
        for key in ("note", "comment"):
            if key in record and not isinstance(record[key], str):
                raise ValueError(f"{source}: case {label!r}: field {key!r}: must be a string, "
                                 f"not {type(record[key]).__name__}")
        values = {}
        for key in ("expectOutputs", "start", "input", "expectState"):
            try:
                values[key] = parse_value(record[key])
            except ValueError as exc:
                raise ValueError(f"{source}: case {label!r}: field {key!r}: {exc}") from None
            if key == "expectOutputs" and not isinstance(values[key], tuple):
                raise ValueError(f"{source}: case {label!r}: field 'expectOutputs': "
                                 "must be a sequence literal")
        cases.append(TableCase(record["machine"], TransitionCase(
            label, values["start"], values["input"], values["expectState"],
            values["expectOutputs"]), record.get("note", record.get("comment", ""))))
    return cases


# Texts are drawn with replacement, so that they repeat within and across
# records. "1" and "true" (and "[1]" and "[true]", ...) are equal values but
# different texts. Records take one of eight layouts (note and comment each
# present or not, keys in either order), so that layouts repeat within a
# table. Bad values, bad notes and comments included, are spliced in at drawn
# places, so that most tables get past their first record before one is met.
valid_literals = st.sampled_from(
    ["1", "true", "0", "false", "3", "[1]", "[true]", "[true,[1]]", "[true,[true]]",
     "[true,[]]", "Tick", "Timeout", "Oracle([true],0)", "[MsgO(true,3),SetTimer(3)]"]
)
sequence_literals = st.sampled_from(
    ["[]", "[1]", "[true]", "[0]", "[false]", "[MsgO(true,3),SetTimer(3)]"]
)
bad_literals = st.sampled_from(["Msg(", "[1,", "@", "", 5, True, None, ["3"], {"a": "1"}])
repeating_tables = st.lists(st.builds(
    lambda record, reverse: dict(reversed(record.items())) if reverse else record,
    st.fixed_dictionaries(
        {"machine": st.sampled_from(sorted(MACHINES)), "start": valid_literals,
         "input": valid_literals, "expectState": valid_literals,
         "expectOutputs": sequence_literals | valid_literals},
        optional={"note": st.just("a note"), "comment": st.just("")},
    ),
    st.booleans(),
), max_size=8)
bad_fields = st.lists(st.tuples(
    st.integers(0, 3),
    st.sampled_from(["start", "input", "expectState", "expectOutputs", "note", "comment"]),
    bad_literals), max_size=2)


def outcome(parse, records):
    try:
        return repr(parse(records, "unit"))
    except ValueError as exc:
        return f"ValueError: {exc}"


@given(repeating_tables, bad_fields)
def test_parse_table_agrees_with_one_parse_per_field(records, bad):
    records = [dict(record, id=f"c{index}") for index, record in enumerate(records)]
    for index, key, value in bad:
        if index < len(records):
            records[index][key] = value
    assert outcome(parse_table, records) == outcome(parse_table_per_field, records)


# ------------------------------------------------- one check per layout

def test_parse_table_checks_values_of_a_repeated_layout():
    doc = [sender_record(id="a", note="fine"), sender_record(id="b", note=5)]
    with pytest.raises(ValueError, match="case 'b': field 'note': must be a string, not int"):
        parse_table(doc, source="unit")


def test_parse_table_checks_a_new_layout_after_many_records():
    doc = [sender_record(id=f"s{i}") for i in range(1000)]
    doc.append(sender_record(id="late", flavor="spicy"))
    with pytest.raises(ValueError, match="unit: case 'late': unknown field 'flavor'"):
        parse_table(doc, source="unit")
    doc[-1] = {key: value for key, value in sender_record(id="late").items() if key != "input"}
    with pytest.raises(ValueError, match="unit: case 'late': missing field 'input'"):
        parse_table(doc, source="unit")


def test_parse_table_accepts_fields_in_any_order():
    record = sender_record(note="n")
    reordered = dict(reversed(record.items()))
    assert list(reordered) != list(record)
    assert parse_table([record, dict(reordered, id="t")]) == [
        TableCase("sender", TransitionCase(id, (True, ()), 3, (True, (3,)),
                                           (MsgO((True, 3)), SetTimer(3))), "n")
        for id in ("s_demo", "t")
    ]


def test_load_table_file_round_trips(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps([sender_record()]))
    (case,) = load_table_file(path)
    assert case.case.id == "s_demo"


def test_load_scenario_file_round_trips(tmp_path):
    scenario = ScenarioSpec(
        name="disk", payload_slots=((4,),), horizon=6,
        data_oracle=OracleSpec.cyclic([True]),
        ack_oracle=OracleSpec.bernoulli(0.9, 3))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario.to_dict()))
    assert load_scenario_file(path) == scenario


def test_sender_table_delta_adapts_untagged_inputs():
    delta = MACHINES["sender"].delta
    state, outputs = delta((True, ()), 3)
    assert state == (True, (3,))
    state, outputs = delta((True, (3,)), True)
    assert state == (False, ())
    with pytest.raises(ModelError):
        delta((True, ()), "neither")


def test_medium_catalog_distinguishes_pass_and_drop(step_entry):
    catalog, delta = MACHINES["medium"].catalog, MACHINES["medium"].delta
    from abpsim import Msg, Tick
    passing = OracleSpec.explicit([True]).cursor()
    dropping = OracleSpec.explicit([False]).cursor()
    assert step_entry(catalog, delta, passing, Msg((True, 1))) == "m_pass"
    assert step_entry(catalog, delta, dropping, Msg((True, 1))) == "m_drop"
    assert step_entry(catalog, delta, passing, Tick) == "m_tick"


# --------------------------------------------------- malformed documents

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=10,
)

# Table records and scenario documents with their required fields, each
# holding a well-formed or an arbitrary value, so that draws get past the
# shape checks into the field checks.
def either(valid):
    return valid | json_values


literals = either(st.sampled_from(
    ["[true,[]]", "[true,[3]]", "3", "true", "[]", "[MsgO(true,3),SetTimer(3)]",
     "Oracle([true],0)", "Msg(", "[1,", "@", ""]
))
table_records = st.fixed_dictionaries(
    {"id": either(st.text(max_size=4)),
     "machine": either(st.sampled_from(["sender", "receiver", "medium", "router"])),
     "start": literals, "input": literals, "expectState": literals, "expectOutputs": literals},
    optional={"note": json_values, "comment": json_values},
)
table_documents = (json_values | st.lists(table_records, max_size=3)
                   | st.fixed_dictionaries({"cases": st.lists(table_records, max_size=3)}))

oracle_documents = either(st.fixed_dictionaries(
    {"kind": either(st.sampled_from(["explicit", "cyclic", "bernoulli", "weather"]))},
    optional={"bits": either(st.lists(st.booleans(), max_size=3)),
              "pass_probability": either(st.floats()),
              "seed": either(st.integers())},
))
scenario_documents = json_values | st.fixed_dictionaries(
    {"payload_slots": either(st.lists(st.lists(st.integers(), max_size=3), max_size=3)),
     "horizon": either(st.integers(-2, 2_000_000)),
     "data_oracle": oracle_documents, "ack_oracle": oracle_documents},
    optional={"name": either(st.text(max_size=4)), "timeout": either(st.integers(-2, 5)),
              "sender_bit": either(st.booleans()), "receiver_bit": either(st.booleans()),
              "seed": either(st.integers())},
)


@given(table_documents)
def test_parse_table_raises_only_value_errors(doc):
    try:
        parse_table(doc)
    except ValueError:  # LiteralError included
        pass


@given(scenario_documents)
def test_scenario_from_dict_raises_only_value_errors(doc):
    try:
        ScenarioSpec.from_dict(doc)
    except ValueError:
        pass
