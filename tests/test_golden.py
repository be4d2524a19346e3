import copy
import gc
import json
import os
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given
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
from abpsim import cli, golden
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


# ------------------------------------------- texts shared while decoding

# Table files as JSON text, each record a list of key-value pairs so that a
# key may repeat (the decoder keeps its last value).  Records start valid,
# with unique ids; spliced pairs then repeat a key, rename the machine, break
# a literal, repeat an id, or put a non-string, a list, or an object (record
# shaped or not) in a field.  The cases document may carry shared field names
# of its own, an object ahead of its records among them, and may itself be
# nested in a field.
def json_text(value):
    if isinstance(value, list) and value and isinstance(value[0], tuple):
        return "{" + ", ".join(f"{json.dumps(key)}: {json_text(item)}"
                               for key, item in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(json_text, value)) + "]"
    return json.dumps(value)


shared_fields = ["machine", "start", "input", "expectState", "expectOutputs"]
field_keys = st.sampled_from(["id", *shared_fields, "note", "comment", "flavor"])
texts = st.sampled_from(["sender", "medium", "receiver", "router", "[true,[]]", "[true,[3]]",
                         "3", "true", "1", "[]", "[1]", "[true]", "Tick", "Timeout",
                         "Oracle([true],0)", "[MsgO(true,3),SetTimer(3)]", "Msg(", "c0", ""])
valid_record_pairs = st.fixed_dictionaries({
    "machine": st.sampled_from(["sender", "medium", "receiver"]),
    "start": st.sampled_from(["[true,[]]", "[true,[3]]", "true", "Oracle([true],0)", "3"]),
    "input": st.sampled_from(["3", "true", "1", "Tick", "Timeout", "Msg([true,3])"]),
    "expectState": st.sampled_from(["[true,[3]]", "false", "Oracle([true],1)", "1"]),
    "expectOutputs": st.sampled_from(["[]", "[1]", "[true]", "[MsgO(true,3),SetTimer(3)]"]),
}).map(lambda record: list(record.items()))
# Equal values of different types (1 == 1.0 == True) must stay apart.
scalars = texts | st.sampled_from([None, True, False, 0, 1, 0.0, 1.0, 3])
field_values = scalars | st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=3)
                      | st.lists(st.tuples(field_keys, children), min_size=1, max_size=6)),
    max_leaves=8,
)
record_splices = st.lists(st.tuples(st.integers(0, 5), field_keys, field_values), max_size=4)


@st.composite
def table_file_texts(draw):
    records = [[("id", f"c{index}"), *pairs]
               for index, pairs in enumerate(draw(st.lists(valid_record_pairs, max_size=6)))]
    for index, key, value in draw(record_splices):
        if index < len(records):
            records[index].append((key, value))
    shape = draw(st.sampled_from(["list", "cases", "nested"]))
    if shape == "list":
        return json_text(records)
    # The decoder passes each object to the hook once its last value is
    # decoded: the object in "start" is shared before the records.
    prelude = [(key, draw(field_values)) for key in shared_fields]
    doc = [("machine", "sender"), ("start", prelude), ("cases", records)]
    if shape == "nested":
        doc = [("input", doc), ("cases", records)]
    return json_text(doc)


def load_outcome(load, path):
    try:
        return repr(load(path))
    except ValueError as exc:
        return f"ValueError: {exc}"


def load_unshared(path):
    with open(path, encoding="utf-8") as handle:
        return parse_table(json.load(handle), source=str(path))


@example('{"start": {"input": 1}, "cases": [{"id": "c0", "machine": "sender", '
         '"start": "[true,[]]", "input": true, "expectState": "[true,[]]", '
         '"expectOutputs": "[]"}]}')
@given(table_file_texts())
def test_load_table_file_agrees_with_an_unshared_decode(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "table.json"
    path.write_text(text, encoding="utf-8")
    assert load_outcome(load_table_file, path) == load_outcome(load_unshared, path)


def test_load_table_file_shares_machine_and_literal_texts_only(tmp_path, monkeypatch):
    path = tmp_path / "table.json"
    path.write_text(json.dumps([sender_record(id=f"s{i}", note="a note") for i in range(2)]))
    # Each record as the decoder's hook returns it: the loader drops the
    # records once their cases are built.
    documents = []
    make_hook = golden._text_sharing_hook

    def capturing_hook():
        hook = make_hook()
        return lambda obj: documents.append(hook(obj)) or documents[-1]

    monkeypatch.setattr(golden, "_text_sharing_hook", capturing_hook)
    load_table_file(path)
    first, second = documents
    for key in ("machine", "start", "input", "expectState", "expectOutputs"):
        assert first[key] is second[key]
    assert first["note"] is not second["note"]
    # Non-strings keep their own objects: 1 == True.
    hook = golden._text_sharing_hook()
    assert [hook({"input": 1})["input"], hook({"input": True})["input"]] == [1, True]
    assert hook({"input": True})["input"] is True


def _repeating_table(path, count):
    """A table file of `count` rows whose literals repeat, as tables' do,
    and whose ids are unique; most rows fail."""
    rng = random.Random(0)
    states = {"sender": [f"[{bit},[{payloads}]]" for bit in ("true", "false")
                         for payloads in ("", "3", "3,4", "7,1,2")],
              "medium": [f"Oracle([true,false,true],{i})" for i in range(3)],
              "receiver": ["true", "false"]}
    inputs = {"sender": ["3", "4", "true", "false", "Timeout"],
              "medium": ["Tick", "Msg(true)", "Msg([true,3])", "Msg([false,4])"],
              "receiver": ["[true,3]", "[false,4]", "[true,7]"]}
    outputs = ["[]", "[MsgO(true,3),SetTimer(3)]", "[SetTimer(-1)]", "[Msg([true,3])]",
               "[FromA(true),FromB(3)]", "[FromA(false)]"]
    records = []
    for index in range(count):
        machine = ("sender", "medium", "receiver")[index % 3]
        records.append({"id": f"{machine[0]}{index}", "machine": machine,
                        "start": rng.choice(states[machine]),
                        "input": rng.choice(inputs[machine]),
                        "expectState": rng.choice(states[machine]),
                        "expectOutputs": rng.choice(outputs)})
    path.write_text(json.dumps({"cases": records}), encoding="utf-8")
    return records


def test_load_table_file_peaks_lower_than_an_unshared_decode(tmp_path):
    path = tmp_path / "table.json"
    records = _repeating_table(path, 6000)
    peaks = []
    tracemalloc.start()
    try:
        for load in (load_table_file, load_unshared):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            cases = load(path)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            assert len(cases) == len(records)
            del cases
    finally:
        tracemalloc.stop()
    shared, unshared = peaks
    # Measured 3.0 and 5.0 MB (ratio 0.59, Python 3.11; 3.2 MB while the
    # loader kept its records until every case was built); when nothing is
    # shared both peak alike.
    assert shared < 0.85 * unshared


def _traced_peak(action) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_coverage_of_a_table_peaks_little_above_decoding_it(tmp_path):
    path = tmp_path / "table.json"
    _repeating_table(path, 5000)
    decode = _traced_peak(lambda: golden._load_json(path, golden._text_sharing_hook()))
    coverage = _traced_peak(lambda: cli.run(["coverage", "--no-bundled", "--tables", str(path),
                                             "--format", "json", "--out", os.devnull]))
    # Measured 1.27 times the decode (Python 3.11).  Records kept until every
    # case was built, and the report joined whole before it was written,
    # peaked at 2.0 times.
    assert coverage < 1.5 * decode


@pytest.mark.parametrize("command", ["test", "coverage"])
def test_a_human_report_peaks_no_higher_than_the_json_one(tmp_path, command):
    path = tmp_path / "table.json"
    _repeating_table(path, 5000)

    def peak(format):
        return _traced_peak(lambda: cli.run([command, "--no-bundled", "--tables", str(path),
                                             "--format", format, "--out", os.devnull]))

    human, json_ = peak("human"), peak("json")
    # Measured 0.94 (test) and 0.96 (coverage) times the JSON report's peak
    # (Python 3.11).  Human reports joined whole before they were written
    # peaked at 1.53 and 1.64 times, and at 1.87 and 1.74 times on 20,000
    # rows.
    assert human <= 1.2 * json_, (human, json_)


def test_parse_table_leaves_its_document_unchanged():
    records = json.loads(golden._bundled_text("tables", "sender"))["cases"]
    for doc in ({"cases": records}, records):
        before = copy.deepcopy(doc)
        assert len(parse_table(doc)) == len(records)
        assert doc == before


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
