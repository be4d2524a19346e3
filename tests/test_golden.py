import json

import pytest

from abpsim import ModelError, MsgO, OracleSpec, ScenarioSpec, SetTimer, parse_table
from abpsim.golden import (
    BUNDLED_SCENARIO_NAMES,
    BUNDLED_TABLE_NAMES,
    MACHINES,
    POSITIVE_SCENARIO_NAMES,
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
])
def test_parse_table_rejects_malformed_documents(doc, fragment):
    with pytest.raises(ValueError) as err:
        parse_table(doc, source="unit")
    assert fragment in str(err.value)
    assert "unit" in str(err.value)


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


def test_medium_catalog_distinguishes_pass_and_drop():
    catalog = MACHINES["medium"].catalog
    from abpsim import Msg, Tick
    passing = OracleSpec.explicit([True]).cursor()
    dropping = OracleSpec.explicit([False]).cursor()
    assert catalog.classify(passing, Msg((True, 1))) == "m_pass"
    assert catalog.classify(dropping, Msg((True, 1))) == "m_drop"
    assert catalog.classify(passing, Tick) == "m_tick"
