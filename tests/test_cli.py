import contextlib
import enum
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
import zipfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abpsim import (
    FULL,
    OUTPUTS_ONLY,
    STATES_ONLY,
    MsgO,
    NetworkRun,
    PathCase,
    ScenarioSpec,
    SetTimer,
    bundled_scenario,
    format_value,
    generate_scenario,
    run_scenario,
    scenario_digest,
)
from abpsim import abp, cli
from abpsim.golden import BUNDLED_TABLE_NAMES, MACHINES, MachineBinding
from abpsim.cli import run

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cmd(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- simulate


def test_simulate_human_trace(capsys):
    code, out, err = run_cmd(capsys, "simulate", "--scenario", "single_drop")
    assert code == 0
    assert "scenario single_drop" in out
    assert scenario_digest(bundled_scenario("single_drop")) in out
    for wire in ("input", "ds", "dm", "as", "am", "out"):
        assert f"\n  {wire}" in out or out.startswith(f"  {wire}")
    assert "[true,1]" in out and "~" in out
    assert "\x1b[" not in out  # not a tty, so no color codes


def test_simulate_json_document(capsys):
    code, out, _ = run_cmd(capsys, "simulate", "--scenario", "all_pass",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"meta", "wires", "verdicts", "coverage"}
    assert doc["meta"]["scenario"] == "all_pass"
    assert doc["verdicts"] == [] and doc["coverage"] is None
    names = [wire["name"] for wire in doc["wires"]]
    assert set(names) == {"input", "am", "ds", "dm", "as", "out"}
    out_wire = next(w for w in doc["wires"] if w["name"] == "out")
    assert out_wire["slots"][0] == ["1"]


def test_simulate_from_a_seed(capsys):
    code, out, _ = run_cmd(capsys, "simulate", "--seed", "9", "--format", "json")
    assert code == 0
    assert json.loads(out)["meta"]["seed"] == 9


def test_simulate_flag_validation(capsys):
    assert run_cmd(capsys, "simulate")[0] == 2
    assert run_cmd(capsys, "simulate", "--scenario", "all_pass", "--seed", "1")[0] == 2
    code, _, err = run_cmd(capsys, "simulate", "--scenario", "no_such_thing")
    assert code == 2 and "no_such_thing" in err


@pytest.mark.parametrize("flag, value", [("--count", "3"), ("--drop", "0.1"),
                                         ("--horizon", "50")])
def test_simulate_rejects_generator_bounds_with_a_scenario(capsys, flag, value):
    code, out, err = run_cmd(capsys, "simulate", "--scenario", "all_pass", flag, value)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and flag in err


def test_simulate_scenario_file_to_a_json_file(tmp_path, capsys):
    # The shape of run the benchmark makes: --scenario FILE --format json --out PATH.
    scenario = tmp_path / "all_pass.json"
    scenario.write_text(json.dumps(bundled_scenario("all_pass").to_dict()))
    out_path = tmp_path / "trace.json"
    code, out, _ = run_cmd(capsys, "simulate", "--scenario", str(scenario),
                           "--format", "json", "--out", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["meta"]["scenario"] == "all_pass"


def test_simulate_rejects_a_horizon_over_the_limit(tmp_path, capsys):
    doc = bundled_scenario("all_pass").to_dict()
    doc["horizon"] = 10**12
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cmd(capsys, "simulate", "--scenario", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "exceeds the limit of 1000000 slots" in err


@pytest.mark.parametrize("source", ["file", "seed"])
def test_simulate_rejects_more_than_10000_payloads(tmp_path, capsys, source):
    if source == "file":
        doc = bundled_scenario("all_pass").to_dict()
        doc["payload_slots"] = [[1] * 10_001]
        path = tmp_path / "crowded.json"
        path.write_text(json.dumps(doc))
        argv = ("--scenario", str(path))
    else:
        # Seed 3 draws 19,981 payloads under these bounds.
        argv = ("--seed", "3", "--count", "20000", "--drop", "0", "--horizon", "1000000")
    code, out, err = run_cmd(capsys, "simulate", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "exceed the limit of 10000 payloads" in err


def test_simulate_reports_model_errors_as_exit_1(tmp_path, capsys):
    # Two payloads in one slot but only one explicit oracle bit: the data
    # medium exhausts its oracle mid-run.
    doc = {
        "name": "starved", "payload_slots": [[1, 2]], "horizon": 2,
        "data_oracle": {"kind": "explicit", "bits": [True]},
        "ack_oracle": {"kind": "cyclic", "bits": [True]},
    }
    path = tmp_path / "starved.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cmd(capsys, "simulate", "--scenario", str(path))
    assert code == 1
    assert "OracleExhausted" in err


def test_simulate_warns_about_unfair_oracles(tmp_path, capsys):
    doc = {
        "name": "hopeless", "payload_slots": [[1]], "horizon": 3,
        "data_oracle": {"kind": "explicit", "bits": [False, False]},
        "ack_oracle": {"kind": "cyclic", "bits": [True]},
    }
    path = tmp_path / "hopeless.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cmd(capsys, "simulate", "--scenario", str(path))
    assert code == 0
    assert "warning" in err and "no pass bits" in err


# Two payloads and two data bits, the last a drop: the warned-of tail loses
# the second send, and its resend asks the data medium for a third bit.
_DRY_ORACLE = {
    "name": "dry", "payload_slots": [[1], [2]], "horizon": 20,
    "data_oracle": {"kind": "explicit", "bits": [True, False]},
    "ack_oracle": {"kind": "cyclic", "bits": [True]},
}
_DRY_WARNING = ("data oracle: explicit oracle ends in 1 drop bit(s); messages reaching that "
                "tail are lost")
_DRY_ERROR = "OracleExhausted: explicit oracle of 2 bits, bit 2 requested"


def test_simulate_warns_before_a_run_that_raises(tmp_path, capsys):
    path = tmp_path / "dry.json"
    path.write_text(json.dumps(_DRY_ORACLE))
    assert run_cmd(capsys, "simulate", "--scenario", str(path)) == \
        (1, "", f"warning: {_DRY_WARNING}\nerror: {_DRY_ERROR}\n")


@pytest.mark.parametrize("oracle", [
    {"kind": "bernoulli", "pass_probability": "x", "seed": 1},
    {"kind": "bernoulli", "pass_probability": True, "seed": 1},
    {"kind": "bernoulli", "pass_probability": 0.5, "seed": 1.7},
    {"kind": "bernoulli", "pass_probability": 0.5, "seed": "1"},
    {"kind": "explicit", "bits": 5},
    {"kind": "cyclic", "bits": ["no"]},
    {"kind": "explicit", "bits": [1, 0]},
    "x",
    [{"kind": "cyclic", "bits": [True]}],
], ids=["probability-string", "probability-bool", "seed-float", "seed-string",
        "bits-int", "bits-strings", "bits-ints", "not-an-object-string", "not-an-object-list"])
def test_simulate_rejects_malformed_oracle_fields(tmp_path, capsys, oracle):
    doc = {
        "name": "odd", "payload_slots": [[1]], "horizon": 4,
        "data_oracle": oracle,
        "ack_oracle": {"kind": "cyclic", "bits": [True]},
    }
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cmd(capsys, "simulate", "--scenario", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "data_oracle" in err


# -------------------------------------------------------------------- test


def test_test_default_suite_passes(capsys):
    code, out, _ = run_cmd(capsys, "test")
    assert code == 0
    assert "20 passed, 0 failed of 20 cases" in out


def test_test_negative_scenario_exits_1(capsys):
    code, out, _ = run_cmd(capsys, "test", "--scenario", "mismatched_bits",
                           "--no-bundled")
    assert code == 1
    assert "FAIL identity abp/mismatched_bits" in out
    assert "divergence at message 0" in out


def test_test_json_report(capsys):
    code, out, _ = run_cmd(capsys, "test", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["passed"] == 20 and doc["meta"]["failed"] == 0
    kinds = {row["kind"] for row in doc["verdicts"]}
    assert kinds == {"transition", "path", "identity"}
    assert all(row["status"] == "pass" for row in doc["verdicts"])


def test_test_inconclusive_horizon_counts_as_failure(tmp_path, capsys):
    doc = {
        "name": "short", "payload_slots": [[1]], "horizon": 2,
        "data_oracle": {"kind": "cyclic", "bits": [False, True]},
        "ack_oracle": {"kind": "cyclic", "bits": [True]},
    }
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cmd(capsys, "test", "--scenario", str(path), "--no-bundled")
    assert code == 1
    assert "INCONCLUSIVE" in out


def test_test_fairness_warning_fails_a_passing_scenario(tmp_path, capsys):
    doc = {
        "name": "deaf", "payload_slots": [[1]], "horizon": 5,
        "data_oracle": {"kind": "cyclic", "bits": [True]},
        "ack_oracle": {"kind": "explicit", "bits": [False, False, False]},
    }
    path = tmp_path / "deaf.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cmd(capsys, "test", "--scenario", str(path), "--no-bundled")
    assert code == 1
    assert "fairness warning" in out


def test_test_reports_a_model_error_as_a_failing_row(tmp_path, capsys):
    # One explicit bit for two payloads: the data medium runs out of bits.
    doc = {
        "name": "short_oracle", "payload_slots": [[1], [2]], "horizon": 20,
        "data_oracle": {"kind": "explicit", "bits": [True]},
        "ack_oracle": {"kind": "cyclic", "bits": [True]},
    }
    path = tmp_path / "short_oracle.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cmd(capsys, "test", "--scenario", str(path), "--format", "json")
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["meta"]["passed"] == 18 and report["meta"]["failed"] == 1
    *others, row = report["verdicts"]
    assert row == {"kind": "identity", "machine": "abp", "id": "short_oracle", "status": "fail",
                   "detail": "OracleExhausted: explicit oracle of 1 bits, bit 1 requested"}
    assert len(others) == 18 and all(other["status"] == "pass" for other in others)


def test_a_raising_identity_row_carries_the_fairness_warning(tmp_path, capsys):
    path = tmp_path / "dry.json"
    path.write_text(json.dumps(_DRY_ORACLE))
    code, out, err = run_cmd(capsys, "test", "--scenario", str(path), "--no-bundled",
                             "--format", "json")
    assert (code, err) == (1, "")
    [row] = json.loads(out)["verdicts"]
    assert row == {"kind": "identity", "machine": "abp", "id": "dry", "status": "fail",
                   "detail": f"{_DRY_ERROR}; fairness warning: {_DRY_WARNING}"}


def test_test_reports_a_raising_model_as_failing_rows(capsys, monkeypatch):
    # A sender that raises IndexError once its buffer holds more than three
    # payloads: an exception no model-error class names.
    make_sender_delta = abp.make_sender_delta

    def make_raising_sender_delta(timeout):
        sender_delta = make_sender_delta(timeout)

        def raising_sender_delta(state, event):
            if len(state[1]) > 3:
                raise IndexError("tuple index out of range")
            return sender_delta(state, event)

        return raising_sender_delta

    monkeypatch.setattr(abp, "make_sender_delta", make_raising_sender_delta)
    code, out, err = run_cmd(capsys, "test", "--count", "100", "--seed", "0", "--format", "json")
    assert (code, err) == (1, "")
    report = json.loads(out)
    rows = report["verdicts"]
    assert len(rows) == 118
    assert report["meta"]["passed"] + report["meta"]["failed"] == len(rows)
    raising = [row for row in rows
               if row.get("detail") == "IndexError: tuple index out of range"]
    assert raising and report["meta"]["failed"] == len(raising)
    assert all(row["kind"] == "identity" and row["status"] == "fail" for row in raising)


def test_running_out_of_memory_in_an_identity_check_exits_2(capsys, monkeypatch):
    def no_memory(scenario):
        raise MemoryError

    monkeypatch.setattr(cli, "check_identity", no_memory)
    assert run_cmd(capsys, "test", "--no-bundled", "--scenario", "single_drop") == \
        (2, "", "error: out of memory\n")


def test_running_out_of_memory_in_a_table_row_exits_2(capsys, monkeypatch):
    # Not one failing row per case: the whole command ends, as it does for
    # an identity row.
    def no_memory(state, event):
        raise MemoryError

    monkeypatch.setitem(MACHINES, "sender", MachineBinding(no_memory, MACHINES["sender"].catalog))
    table = str(SRC / "abpsim" / "tables" / "sender.json")
    assert run_cmd(capsys, "test", "--no-bundled", "--tables", table) == \
        (2, "", "error: out of memory\n")


def test_test_inconclusive_row_carries_the_fairness_warning(tmp_path, capsys):
    # The one data bit drops the first send, and the horizon ends before a
    # resend would ask for a second bit.
    doc = {
        "name": "all_drop", "payload_slots": [[1]], "horizon": 2,
        "data_oracle": {"kind": "explicit", "bits": [False]},
        "ack_oracle": {"kind": "cyclic", "bits": [True]},
    }
    path = tmp_path / "all_drop.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cmd(capsys, "test", "--scenario", str(path), "--no-bundled",
                           "--format", "json")
    assert code == 1
    [row] = json.loads(out)["verdicts"]
    assert row["status"] == "inconclusive-horizon"
    assert row["detail"] == ("sent [1], delivered []; fairness warning: data oracle: explicit "
                             "oracle contains no pass bits; nothing can ever be delivered")


# Every payload but the first is delivered: 2,001 slots on each of six wires.
_BIG_FAIL = ScenarioSpec.from_dict({**bundled_scenario("mismatched_bits").to_dict(),
                                    "payload_slots": [[p % 10] for p in range(2000)],
                                    "horizon": 20_000})


def _traced(action):
    """The bytes still held after `action()`, and the peak during it."""
    gc.collect()
    tracemalloc.start()
    try:
        action()
        gc.collect()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_a_fail_row_keeps_its_scenario_and_writes_the_wires_of_its_run():
    rows = []
    held, _ = _traced(lambda: rows.append(cli._identity_row(_BIG_FAIL)))
    [row] = rows
    assert row["status"] == "fail"
    # The row's detail text takes 8 kB; the run's slot lists alone, 96 kB.
    assert held < 50_000
    # Its document holds the run's wires, run again as the row is written.
    run = run_scenario(_BIG_FAIL)
    plain = [{"name": wire, "slots": [[format_value(p, strict=False) for p in slot]
                                      for slot in run.slots[wire]]} for wire in run.wire_order]
    doc = {"meta": {}, "verdicts": [row]}
    expected = {"meta": {}, "verdicts": [{**row, "wires": plain}]}
    assert _document(doc).split("\n") == _stdlib_lines(expected)


def test_fail_rows_are_written_one_run_at_a_time():
    row = cli._identity_row(_BIG_FAIL)
    one, three = (_traced(lambda: cli._emit(cli._json_chunks({"verdicts": [row] * count}),
                                            os.devnull))[1]
                  for count in (1, 3))
    # A run kept until the next one is made would take about 80% more.
    assert three < 1.2 * one


def test_test_runs_extra_table_files(tmp_path, capsys):
    table = [{
        "id": "x1", "machine": "sender", "start": "[true,[]]", "input": "true",
        "expectState": "[true,[]]", "expectOutputs": "[]",
    }]
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(table))
    code, out, _ = run_cmd(capsys, "test", "--no-bundled", "--tables", str(path))
    assert code == 0
    assert "1 passed, 0 failed of 1 cases" in out


def test_test_rejects_unparseable_table_files(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_cmd(capsys, "test", "--tables", str(path))[0] == 2
    path.write_text(json.dumps([{"id": "x", "machine": "router"}]))
    assert run_cmd(capsys, "test", "--tables", str(path))[0] == 2


@pytest.mark.parametrize("content,message", [
    (None, "No such file or directory"),
    ("{not json", "Expecting property name"),
    (json.dumps([{"id": "a", "machine": "sender", "start": "[true,[]]", "input": "@",
                  "expectState": "[true,[]]", "expectOutputs": "[]"}]),
     "case 'a': field 'input': unexpected character '@'"),
], ids=["missing", "json-syntax", "bad-case"])
def test_table_errors_name_their_file_once(tmp_path, capsys, content, message):
    path = tmp_path / "table.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run_cmd(capsys, "test", "--tables", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: table {path}: ") and message in err
    assert err.count(str(path)) == 1


def test_scenario_directory_error_names_it_once(tmp_path, capsys):
    code, out, err = run_cmd(capsys, "simulate", "--scenario", str(tmp_path))
    assert code == 2 and out == ""
    assert err == f"error: scenario {str(tmp_path)!r}: Is a directory\n"


@pytest.mark.parametrize("field,value", [("start", 5), ("machine", ["x"]), ("id", 1),
                                         ("note", {"a": 1}), ("comment", 5)],
                         ids=["start-int", "machine-list", "id-int", "note-dict", "comment-int"])
def test_test_rejects_malformed_table_fields(tmp_path, capsys, field, value):
    record = {"id": "bad", "machine": "sender", "start": "[true,[]]", "input": "3",
              "expectState": "[true,[3]]", "expectOutputs": "[]"}
    record[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([record]))
    code, _, err = run_cmd(capsys, "test", "--tables", str(path))
    assert code == 2
    assert err.startswith("error: ") and f"field '{field}'" in err


def test_test_rejects_duplicate_ids_within_a_table(tmp_path, capsys):
    record = {"id": "twice", "machine": "sender", "start": "[true,[]]", "input": "3",
              "expectState": "[true,[3]]", "expectOutputs": "[MsgO(true,3),SetTimer(3)]"}
    path = tmp_path / "twice.json"
    path.write_text(json.dumps([record, record]))
    code, out, err = run_cmd(capsys, "test", "--tables", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "'twice': duplicate id (records 0 and 1)" in err


def test_test_accepts_ids_repeated_across_table_files(capsys):
    path = str(Path(cli.__file__).parent / "tables" / "sender.json")
    code, out, _ = run_cmd(capsys, "test", "--no-bundled", "--tables", path, path)
    assert code == 0
    assert "16 passed, 0 failed of 16 cases" in out


@pytest.mark.parametrize("flag, value", [("--seed", "5"), ("--drop", "0.1"),
                                         ("--horizon", "50")])
def test_test_rejects_random_scenario_flags_without_count(capsys, flag, value):
    code, out, err = run_cmd(capsys, "test", flag, value)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and flag in err and "--count" in err


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(0, 2**64), st.integers(-(2**64), -1)), st.integers(0, 30))
@example(0, 100)
@example(2**32 - 1, 5)
def test_test_count_draws_its_seeds_as_the_stdlib_generator_does(suite_seed, count):
    args = cli.build_parser().parse_args(["test", "--count", str(count),
                                          "--seed", str(suite_seed)])
    scenarios, seed = cli._test_scenarios(args)
    rng = random.Random(f"suite:{suite_seed}")
    assert seed == suite_seed
    assert [scenario.seed for scenario in scenarios] == [rng.randrange(2**32)
                                                        for _ in range(count)]


def test_test_rejects_negative_count(capsys):
    assert run_cmd(capsys, "test", "--count", "-1")[0] == 2


def test_test_rejects_a_count_over_the_limit(capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    for name in ("generate_scenario", "trans_test", "path_test", "check_identity"):
        monkeypatch.setattr(cli, name, no_run)
    code, out, err = run_cmd(capsys, "test", "--count", str(cli.MAX_TEST_COUNT + 1))
    assert code == 2 and out == ""
    assert err.startswith("error: --count") and str(cli.MAX_TEST_COUNT) in err


def test_test_rejects_a_too_deeply_nested_table_literal(tmp_path, capsys):
    record = {"id": "deep", "machine": "sender", "start": "[" * 5000 + "]" * 5000,
              "input": "3", "expectState": "[true,[3]]", "expectOutputs": "[]"}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps([record]))
    code, out, err = run_cmd(capsys, "test", "--tables", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "field 'start'" in err and "deeper than 100" in err


@pytest.mark.parametrize("argv", [("simulate", "--scenario"), ("test", "--tables")],
                         ids=["scenario", "table"])
def test_too_deeply_nested_json_files_are_usage_errors(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cmd(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "nests too deeply" in err


def test_test_failing_row_details_the_mismatch(tmp_path, capsys):
    table = [{
        "id": "wrong", "machine": "sender", "start": "[true,[]]", "input": "3",
        "expectState": "[true,[]]", "expectOutputs": "[]",
    }]
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(table))
    code, out, _ = run_cmd(capsys, "test", "--no-bundled", "--tables", str(path))
    assert code == 1
    assert "FAIL transition sender/wrong" in out
    assert "expected" in out and "actual" in out


def test_failing_path_rows_describe_what_their_mode_compares():
    # A sender state (bit, buffer) has the shape of a (state, outputs) pair,
    # so only the case's mode says which of the two a row is showing.
    def case(mode, expectation):
        return "sender", PathCase(id=mode, start_state=(True, ()), inputs=(3,), mode=mode,
                                  expectation=expectation)

    wrong_outputs = (MsgO((True, 4)), SetTimer(3))
    rows = cli._suite_rows(
        [], [case(STATES_ONLY, [(True, (4,))]), case(OUTPUTS_ONLY, wrong_outputs),
             case(FULL, [((True, (4,)), wrong_outputs)])],
        {"sender": MACHINES["sender"].delta})
    assert [row["detail"] for row in rows] == [
        "step 0: expected [true,[4]]; actual [true,[3]]",
        "expected [MsgO(true,4),SetTimer(3)]; actual   [MsgO(true,3),SetTimer(3)]",
        "step 0: expected state [true,[4]], outputs [MsgO(true,4),SetTimer(3)]; "
        "actual state [true,[3]], outputs [MsgO(true,3),SetTimer(3)]",
    ]


def test_test_writes_reports_to_a_file(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    code, stdout, _ = run_cmd(capsys, "test", "--out", str(out_path))
    assert code == 0
    assert stdout == ""
    text = out_path.read_text()
    assert "20 passed" in text
    assert "\x1b[" not in text


@pytest.mark.parametrize("argv", [
    ("simulate", "--scenario", "single_drop"),
    ("generate", "--seed", "1"),
    ("test",),
    ("coverage",),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("target", ["missing/x.txt", ".", None],
                         ids=["missing-dir", "directory", "empty"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv, target):
    # A path under a missing directory, a directory itself, and an empty
    # path, which names no file and is not stdout either.
    out_path = "" if target is None else str(tmp_path / target)
    code, stdout, err = run_cmd(capsys, *argv, "--out", out_path)
    assert code == 2 and stdout == ""
    assert err.startswith("error: --out ") and out_path in err


_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")


def _cli(*argv, stdout=subprocess.DEVNULL):
    # Block-buffered, as stdout is by default: a small document's bytes only
    # reach the device, and fail, at the final flush.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", "abpsim.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=60, env=env)


@_full
@pytest.mark.parametrize("argv", [
    # Small enough to fail only at the final flush.
    ("generate", "--seed", "1"),
    ("test", "--scenario", "mismatched_bits", "--format", "json"),
    # 20,363 slots on each wire: a write after the first fails.
    ("simulate", "--seed", "1", "--count", "3000", "--horizon", "100000", "--format", "json"),
    ("simulate", "--seed", "1", "--count", "3000", "--horizon", "100000"),
], ids=lambda argv: " ".join(argv[:2]) + (" json" if "json" in argv else ""))
def test_a_full_stdout_is_a_usage_error(argv):
    with open("/dev/full", "w") as full:
        result = _cli(*argv, stdout=full)
    assert (result.returncode, result.stderr) == (2, "error: stdout: No space left on device\n")


@_full
def test_a_full_out_file_is_a_usage_error():
    result = _cli("simulate", "--seed", "1", "--count", "3000", "--horizon", "100000",
                  "--format", "json", "--out", "/dev/full")
    assert (result.returncode, result.stderr) == (
        2, "error: --out /dev/full: No space left on device\n")


# ---------------------------------------------------------------- coverage


def test_coverage_default_is_complete(capsys):
    code, out, _ = run_cmd(capsys, "coverage")
    assert code == 0
    assert "sender: 8/8 transitions covered" in out
    assert "medium: 3/3 transitions covered" in out
    assert "receiver: 4/4 transitions covered" in out


def test_coverage_json_shape(capsys):
    code, out, _ = run_cmd(capsys, "coverage", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["coverage"]) == {"sender", "medium", "receiver"}
    sender = doc["coverage"]["sender"]
    assert sender["uncovered"] == [] and len(sender["covered"]) == 8
    assert sender["unclassified"] == 0


def test_coverage_incomplete_catalog_exits_1(tmp_path, capsys):
    table = [{
        "id": "only_one", "machine": "sender", "start": "[true,[]]", "input": "3",
        "expectState": "[true,[3]]", "expectOutputs": "[MsgO(true,3),SetTimer(3)]",
    }]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(table))
    code, out, _ = run_cmd(capsys, "coverage", "--no-bundled", "--tables", str(path),
                           "--require-coverage", "sender")
    assert code == 1
    assert "INCOMPLETE" in out
    assert "uncovered" in out


def test_coverage_requires_known_machines(capsys):
    assert run_cmd(capsys, "coverage", "--require-coverage", "router")[0] == 2


def test_coverage_failing_case_exits_1_even_when_complete(tmp_path, capsys):
    table = [{
        "id": "lies", "machine": "sender", "start": "[true,[]]", "input": "true",
        "expectState": "[false,[]]", "expectOutputs": "[]",
    }]
    path = tmp_path / "lies.json"
    path.write_text(json.dumps(table))
    code, out, _ = run_cmd(capsys, "coverage", "--tables", str(path))
    assert code == 1
    assert "1 case(s) failed" in out
    # The failing case is named as `test` names it, detail line included.
    _, tested, _ = run_cmd(capsys, "test", "--no-bundled", "--tables", str(path))
    failing = tested.splitlines()[:2]
    assert failing[0] == "FAIL transition sender/lies"
    assert out.endswith("\n".join([*failing, "1 case(s) failed"]) + "\n")


def test_coverage_counts_case_verdicts_per_machine(tmp_path, capsys):
    table = [{
        "id": "lies", "machine": "sender", "start": "[true,[]]", "input": "true",
        "expectState": "[false,[]]", "expectOutputs": "[]",
    }]
    path = tmp_path / "lies.json"
    path.write_text(json.dumps(table))
    code, out, _ = run_cmd(capsys, "coverage", "--tables", str(path), "--format", "json")
    assert code == 1
    doc = json.loads(out)
    for machine, coverage in doc["coverage"].items():
        statuses = [row["status"] for row in doc["verdicts"] if row["machine"] == machine]
        assert coverage["verdicts"] == {"pass": statuses.count("pass"),
                                        "fail": statuses.count("fail")}
    sender = doc["coverage"]["sender"]["verdicts"]
    assert sender["fail"] == 1 and sender["pass"] > 0
    assert doc["coverage"]["medium"]["verdicts"]["fail"] == 0

    code, out, _ = run_cmd(capsys, "coverage", "--tables", str(path))
    assert code == 1
    assert f"\n  case verdicts: {sender['pass']} pass, 1 fail\n" in out


def test_coverage_counts_steps_no_entry_matches_as_unclassified(tmp_path, capsys):
    # No catalog entry takes a bare payload to the receiver or a tick to the
    # untimed sender; each row's step is counted before its delta raises.
    table = [
        {"id": "bare", "machine": "receiver", "start": "true", "input": "5",
         "expectState": "true", "expectOutputs": "[]"},
        {"id": "tick", "machine": "sender", "start": "[true,[]]", "input": "Tick",
         "expectState": "[true,[]]", "expectOutputs": "[]"},
    ]
    path = tmp_path / "unclassified.json"
    path.write_text(json.dumps(table))
    argv = ("coverage", "--no-bundled", "--tables", str(path))
    code, out, _ = run_cmd(capsys, *argv, "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert {name: c["unclassified"] for name, c in doc["coverage"].items()} == {
        "medium": 0, "receiver": 1, "sender": 1}

    code, out, _ = run_cmd(capsys, *argv)
    assert code == 1
    assert out.count("\n  unclassified steps: 1 (test smell)\n") == 2


# ---------------------------------------------------------------- generate


def test_generate_writes_a_replayable_scenario(tmp_path, capsys):
    out_path = tmp_path / "generated.json"
    code, _, _ = run_cmd(capsys, "generate", "--seed", "3", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc == generate_scenario(3, (10, 10_000, 0.3)).to_dict()


def test_generate_honors_inline_bounds(capsys):
    code, out, _ = run_cmd(capsys, "generate", "--seed", "4", "--count", "2",
                           "--horizon", "50", "--drop", "0.1")
    assert code == 0
    doc = json.loads(out)
    assert doc == generate_scenario(4, (2, 50, 0.1)).to_dict()


def test_generate_requires_a_seed(capsys):
    with pytest.raises(SystemExit) as err:
        run(["generate"])
    assert err.value.code == 2


def test_generate_writes_json_only(capsys):
    with pytest.raises(SystemExit) as err:
        run(["generate", "--seed", "1", "--format", "human"])
    assert err.value.code == 2 and capsys.readouterr().out == ""
    assert run_cmd(capsys, "generate", "--seed", "1", "--format", "json") == \
        run_cmd(capsys, "generate", "--seed", "1")


def test_generate_rejects_certain_loss(capsys):
    code, _, err = run_cmd(capsys, "generate", "--seed", "1", "--drop", "1.0")
    assert code == 2
    assert "drop probability" in err


def test_generate_rejects_a_horizon_over_the_limit(capsys):
    # 50,000 payloads need more than a million slots at seed 0's drop rates.
    code, out, err = run_cmd(capsys, "generate", "--seed", "0", "--count", "50000",
                             "--horizon", str(10**12))
    assert code == 2 and out == ""
    assert "exceeds the limit of 1000000 slots" in err


@pytest.mark.parametrize("count", ["10000000", "100000000"])
def test_generate_refuses_huge_bounds_before_drawing_them(count):
    # Drawing every arrival of such a scenario takes seconds and hundreds of
    # MB, and the larger count ends in a MemoryError under the limit.  The
    # child runs under a 2 GB address-space limit and a short timeout, so a
    # generator that draws before it checks fails here without allocating
    # for real.
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
            f"sys.path.insert(0, {str(SRC)!r}); from abpsim.cli import main; main()")
    result = subprocess.run(
        [sys.executable, "-B", "-I", "-S", "-c", code,
         "generate", "--seed", "1", "--count", count, "--horizon", str(10**12)],
        capture_output=True, text=True, timeout=5)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("error: ") and "exceeds the limit of 1000000" in result.stderr


# Each flag the four subcommands take (--out aside, which writes files),
# with small valid values and malformed ones; None marks a flag without a
# value.
_FLAG_VALUES = {
    "--scenario": st.sampled_from(["single_drop", "mismatched_bits", "no_such_scenario", ""]),
    "--tables": st.sampled_from([str(SRC / "abpsim" / "tables" / "sender.json"),
                                 "no_such_table.json", ""]),
    "--no-bundled": None,
    "--seed": st.integers(-2, 2**40).map(str) | st.just("x"),
    "--count": st.integers(-2, 4).map(str) | st.sampled_from(["", "1.5"]),
    "--drop": st.sampled_from(["0", "0.25", "0.5", "1", "-0.5", "nan", "inf", "x"]),
    "--horizon": st.integers(-1, 3000).map(str) | st.just("x"),
    "--require-coverage": st.sampled_from(sorted(MACHINES) + ["nobody"]),
    "--format": st.sampled_from(["human", "json", "xml"]),
}


@st.composite
def cli_argv(draw):
    argv = [draw(st.sampled_from(["simulate", "test", "coverage", "generate"]))]
    for flag in draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES)), max_size=4)):
        argv.append(flag)
        if _FLAG_VALUES[flag] is not None:
            argv.append(draw(_FLAG_VALUES[flag]))
    return argv


@settings(max_examples=100, deadline=None)
@given(cli_argv())
def test_cli_flags_end_in_exit_0_1_or_2(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, sink.getvalue())


# ------------------------------------------------------------------- misc


def test_version_flag_exits_cleanly():
    with pytest.raises(SystemExit) as err:
        run(["--version"])
    assert err.value.code == 0


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        run([])
    assert err.value.code == 2


def test_running_out_of_memory_exits_2_with_one_line(capsys, monkeypatch):
    def no_memory(scenario):
        raise MemoryError

    monkeypatch.setattr(cli, "run_scenario", no_memory)
    assert run_cmd(capsys, "simulate", "--scenario", "single_drop") == \
        (2, "", "error: out of memory\n")


# How a command ends -> its argv and its return code or exception.
_COMMAND_ENDS = {
    "exit 0": (["simulate", "--scenario", "single_drop"], 0),
    "exit 1": (["test", "--no-bundled", "--scenario", "mismatched_bits"], 1),
    "exit 2": (["simulate", "--scenario", "no_such_thing"], 2),
    "usage exit": (["simulate", "--no-such-flag"], SystemExit),
    "exception": (["simulate", "--scenario", "all_pass"], RuntimeError),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collecting", "paused"])
@pytest.mark.parametrize("end", list(_COMMAND_ENDS))
def test_run_pauses_the_collector_for_the_command_only(end, enabled, capsys, monkeypatch):
    argv, expected = _COMMAND_ENDS[end]
    seen = []

    def watched(scenario):
        seen.append(gc.isenabled())
        if scenario.name == "all_pass":
            raise RuntimeError("unexpected")
        return run_scenario(scenario)

    monkeypatch.setattr(cli, "run_scenario", watched)
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            outcome = run(argv)
        except (SystemExit, RuntimeError) as exc:
            outcome = type(exc)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    capsys.readouterr()
    assert outcome == expected
    assert seen == ([False] if end in ("exit 0", "exception") else [])


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "abpsim.cli", "test", "--no-bundled", "--count", "0"],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert "0 failed" in result.stdout


# ------------------------------------------------------------ JSON output

json_scalars = (st.none() | st.booleans() | st.integers() | st.text()
                | st.floats(allow_nan=True, allow_infinity=True))
json_documents = st.dictionaries(st.text(), st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20))


class _Level(enum.IntEnum):
    HIGH = 7


class _Text(str):
    pass


@given(json_documents)
@example({"floats": [float("nan"), float("inf"), -float("inf"), -0.0, 1e16, 0.1],
          "text": "\u00e9\u2028\x00\ud83d\ude00\"", "empty": [{}, [], ""], "": None})
@example({"int subclass": _Level.HIGH, "str subclass": [_Text("\u00e9\"")]})
@example({"negative zero": -0.0, "largest": [1e308, -1e308], "big int": [2**64 + 1, -2**70]})
def test_json_text_is_the_stdlib_indented_sorted_encoding(doc):
    assert cli._json_text(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("leaf", [object(), {1, 2}], ids=["object", "set"])
def test_a_leaf_json_cannot_hold_raises_the_stdlibs_type_error(leaf):
    doc = {"rows": [{"value": leaf}]}
    with pytest.raises(TypeError) as expected:
        json.dumps(doc, sort_keys=True, indent=2)
    with pytest.raises(TypeError) as raised:
        cli._json_text(doc)
    assert str(raised.value) == str(expected.value)


def _document(doc) -> str:
    return "".join(cli._json_chunks(doc))


def _wire_text(slots, quiet=0) -> str:
    # The human text of `slots` followed by `quiet` empty slots.
    return "".join(cli._blocks(slots, cli._slot_text, " ", len(slots) + quiet))


def _wires_json(wires):
    # `_wires_json` of one run per (name, slots, quiet) triple: its one wire
    # stores `slots`, followed by `quiet` empty slots.
    return [wire for name, slots, quiet in wires
            for wire in cli._wires_json(NetworkRun((name,), {name: slots}, len(slots) + quiet))]


def test_wires_json_tells_equal_slots_of_different_types_apart():
    slots = [(True,), (1,), (True, 1), (1, 1), (1,), (True, 1), ((True, 1),), ((1, 1),)]
    doc = {"wires": _wires_json([("a", slots, 0), ("b", slots[::-1], 0)])}
    a, b = (wire["slots"] for wire in json.loads(_document(doc))["wires"])
    assert a == [["true"], ["1"], ["true", "1"], ["1", "1"], ["1"],
                 ["true", "1"], ["[true,1]"], ["[1,1]"]]
    assert b == a[::-1]


def test_wire_text_tells_equal_slots_of_different_types_apart():
    slots = [(True,), (1,), (), (True, 1), (1, 1), (1,), (True,), ((True, 1),), ((1, 1),)]
    assert _wire_text(slots) == ("true ~ 1 ~ ~ true 1 ~ 1 1 ~ 1 ~ true ~ "
                                 "[true,1] ~ [1,1] ~")
    assert _wire_text([]) == ""
    assert _wire_text([], 3) == "~ ~ ~"
    assert _wire_text([(1,)], 2) == "1 ~ ~ ~"


# A slot payload: an int, a bool, a signed message (bool, int), or a nested
# tuple of those; (True,) and (1,) compare equal but render differently.
_payloads = st.recursive(
    st.integers(-5, 5) | st.booleans() | st.tuples(st.booleans(), st.integers(0, 3)),
    lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6)
_slots = st.lists(st.sampled_from([(), (True,), (1,), (False,), (0,)])
                  | st.lists(_payloads, max_size=3).map(tuple), max_size=12)
_TAIL = cli._TAIL_BLOCK
# A wire: its name, its stored slots and the empty slots of its quiet tail.
_wires = st.lists(st.tuples(st.text(max_size=3), _slots, st.integers(0, 2 * _TAIL + 1)),
                  max_size=4)

_BLOCK = cli._BLOCK
_PATTERN = [(), (1,), (True,), (True, 1), ((True, 1),), ((1, 1),), (0,), (False,)]


def _long_wire(length):
    """`length` slots cycling through _PATTERN, with (True,) last in each
    block and (1,) first in the next: slots rendered in different blocks."""
    slots = [_PATTERN[i % len(_PATTERN)] for i in range(length)]
    for boundary in range(_BLOCK, length, _BLOCK):
        slots[boundary - 1:boundary + 1] = [(True,), (1,)]
    return slots


_LONG_WIRES = [(f"w{length}", _long_wire(length), quiet)
               for length, quiet in [(0, 0), (1, 1), (_BLOCK - 1, _TAIL - 1), (_BLOCK, _TAIL),
                                     (_BLOCK + 1, _TAIL + 1), (2 * _BLOCK + 1, 2 * _TAIL + 1)]]
# Quiet tails of 1, _TAIL and more slots after no stored slot and after one.
_TAILS = [("a", [], 1), ("b", [], _TAIL + 1), ("c", [(1,)], _TAIL), ("d", [(True,)], 2 * _TAIL)]


def _stdlib_lines(doc):
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").split("\n")


@given(_wires)
@example([("a", [(True,), (1,), (), (True,), ((True, 1),), ((1, 1),)], 0), ("b", [], 0)])
@example(_LONG_WIRES)
@example(_TAILS)
def test_wires_json_is_the_stdlib_encoding_of_its_literals(wires):
    literals = [[[format_value(p, strict=False) for p in slot] for slot in slots] + [[]] * quiet
                for _, slots, quiet in wires]
    plain = [{"name": name, "slots": slots} for (name, _, _), slots in zip(wires, literals)]
    doc = {"meta": {"tool": "abpsim"}, "wires": _wires_json(wires), "verdicts": [],
           "coverage": None}
    expected = {**doc, "wires": plain}
    # Compared as lists of lines and words, whose first difference pytest
    # reports at once; its diff of two long texts takes minutes.
    assert _document(doc).split("\n") == _stdlib_lines(expected)
    # A FAIL identity row of `test` embeds its wires three levels deeper.
    row = {"kind": "identity", "status": "fail", "wires": _wires_json(wires)}
    doc = {"meta": {}, "wires": [], "verdicts": [{"id": 1}, row], "coverage": None}
    expected = {**doc, "verdicts": [{"id": 1}, {**row, "wires": plain}]}
    assert _document(doc).split("\n") == _stdlib_lines(expected)
    # The human trace: each slot's literals and a "~", space-separated.
    for (_, slots, quiet), wire in zip(wires, literals):
        assert _wire_text(slots, quiet).split(" ") == " ".join(
            " ".join([*slot, "~"]) for slot in wire).split(" ")


_FAIL_ROW = cli._identity_row(bundled_scenario("mismatched_bits"))


def _plain_literals(slots, length):
    return [[format_value(p, strict=False) for p in slot] for slot in slots] + (
        [[]] * (length - len(slots)))


def _long_list(length):
    """`length` items of every kind a document holds, with a FAIL identity
    row and a `_Slots` on either side of the first block boundary and a
    list of `_BLOCK` + 1 items in the second block; and the same list as
    the stdlib encodes it."""
    kinds = [7, "text", None, 0.5, True, {"b": [1, "x"], "a": {}}, [[], {"k": -1}], "",
             ("tuple", 2)]
    items = [kinds[i % len(kinds)] for i in range(length)]
    plain = list(items)
    run = run_scenario(bundled_scenario("mismatched_bits"))
    wires = [{"name": wire, "slots": _plain_literals(run.stored[wire], run.horizon)}
             for wire in run.wire_order]
    slots = [(1,), (), (True, 2)]
    for index, item, plain_item in [
            (_BLOCK - 1, _FAIL_ROW, {**_FAIL_ROW, "wires": wires}),
            (_BLOCK, cli._Slots(slots, 5), _plain_literals(slots, 5)),
            (_BLOCK + 2, list(range(_BLOCK + 1)), list(range(_BLOCK + 1)))]:
        if index < length:
            items[index], plain[index] = item, plain_item
    return items, plain


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("length", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
def test_long_lists_are_the_stdlib_encoding_at_every_depth(length, depth):
    items, plain = _long_list(length)
    # The list one, two or three containers deep, as a tuple at depth two.
    nest = [lambda v: {"list": v}, lambda v: {"list": (v, 1)},
            lambda v: {"outer": {"list": [0, v]}}][depth - 1]
    assert _document(nest(items)).split("\n") == _stdlib_lines(nest(plain))
    # With nothing deferred, `_json_text` writes the same list in one text.
    doc = nest(plain)
    assert cli._json_text(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _repeated_bundled_table(path, count):
    """A table file of `count` rows: the bundled rows repeated, each with a
    unique id."""
    rows = [row for name in BUNDLED_TABLE_NAMES
            for row in json.loads((SRC / "abpsim" / "tables" / f"{name}.json").read_text(
                encoding="utf-8"))["cases"]]
    path.write_text(json.dumps([dict(rows[i % len(rows)], id=f"r{i}") for i in range(count)]),
                    encoding="utf-8")


def test_no_piece_of_a_long_report_holds_more_than_one_block(tmp_path, monkeypatch):
    path = tmp_path / "table.json"
    _repeated_bundled_table(path, 5000)
    pieces = []
    monkeypatch.setattr(cli, "_emit", lambda chunks, out_path: pieces.extend(chunks))
    assert run(["coverage", "--no-bundled", "--tables", str(path), "--format", "json"]) == 0
    doc = json.loads("".join(pieces))
    rows = doc["verdicts"]
    assert len(rows) == 5000
    # A block of rows, at the depth of the document's rows.
    block_text = max(len(json.dumps({"verdicts": rows[start:start + _BLOCK]}, sort_keys=True,
                                    indent=2)) for start in range(0, len(rows), _BLOCK))
    assert max(map(len, pieces)) <= block_text < len("".join(pieces)) / 4


def _render_peak(render, horizon) -> int:
    """Peak traced bytes of writing the `simulate` document of single_drop,
    run to `horizon` slots; the run itself is made before tracing starts."""
    scenario = ScenarioSpec.from_dict({**bundled_scenario("single_drop").to_dict(),
                                       "horizon": horizon})
    run = run_scenario(scenario)
    tracemalloc.start()
    try:
        cli._emit(render(scenario, run), os.devnull)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("render", [cli._trace_json, cli._trace_text], ids=["json", "human"])
def test_rendering_memory_does_not_grow_with_the_horizon(render):
    # A wire's whole text at 100,000 slots is about 1.2 MB in JSON and 0.2 MB in
    # the human format; written block by block, no text holds it.
    short, long = _render_peak(render, 50_000), _render_peak(render, 100_000)
    assert long < 1.2 * short, (short, long)


def test_rendering_memory_does_not_grow_with_distinct_slots():
    # The texts kept for later blocks of a wire are bounded too.
    def peak(length):
        slots = [(n,) for n in range(length)]
        tracemalloc.start()
        try:
            for _ in cli._blocks(slots, cli._slot_text, " ", length):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(20_000), peak(40_000)
    assert long < 1.2 * short, (short, long)


# ------------------------------------------------------- pinned documents

# sha256 of each document as the CLI printed it before timed streams stored
# slots; any change to these bytes is a change of behaviour.
PINNED_DOCUMENTS = [
    (("simulate", "--scenario", "single_drop", "--format", "json"), 0,
     "1d92d3e0affc4c1f65ff0439381cbf23cd0afe416cb0e76680efc307ee2a0fe5"),
    (("simulate", "--seed", "7", "--format", "json"), 0,
     "baa9993a2b3fe48ec05b2d98ddb4e4402b9fd43f4e9620971d7ddcf69685d468"),
    (("test", "--count", "100", "--seed", "0", "--format", "json"), 0,
     "c10591ee68cbcb81fc19ab08587c21157a8da00d88ffea9f4d1db6a5ecdafd7b"),
    (("test", "--format", "json"), 0,
     "5302eec576d626dce4921c5e0994a9e243d42976ab0b6cdabc2733d21b50d501"),
    (("test", "--scenario", "mismatched_bits", "--format", "json"), 1,
     "7c821c26c5d9bbbf8424f258445418661c1ab5394e7f64bb42c8598de97d529c"),
    (("coverage", "--format", "json"), 0,
     "1d61bd94784859874b485aa7ec4ad12e17beb9cef0144cd8f17acd4a2d9de216"),
]


@pytest.mark.parametrize("argv, exit_code, sha256", PINNED_DOCUMENTS,
                         ids=[" ".join(argv) for argv, _, _ in PINNED_DOCUMENTS])
def test_cli_documents_are_pinned(capsys, argv, exit_code, sha256):
    code, out, _ = run_cmd(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_readme_quick_start_is_the_simulate_output(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI quick start", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    command, expected = block.split("\n", 1)
    assert command == "$ abpsim simulate --scenario single_drop"
    code, out, _ = run_cmd(capsys, "simulate", "--scenario", "single_drop")
    assert code == 0 and out == expected


# ----------------------------------------------------------------- start-up


def _isolated(path, *argv, cwd=None):
    """Run the CLI in a fresh ``python -I -S`` interpreter whose only path
    beyond the standard library is `path`; ``-B`` leaves no bytecode in the
    source tree."""
    code = f"import sys; sys.path.insert(0, {str(path)!r}); from abpsim.cli import main; main()"
    return subprocess.run([sys.executable, "-B", "-I", "-S", "-c", code, *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=60)


def _modules_after_cli_import():
    """The modules a fresh ``python -I -S`` interpreter holds once it has
    imported `abpsim.cli`."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import abpsim.cli; "
            "print(' '.join(sorted(sys.modules)))")
    result = subprocess.run([sys.executable, "-B", "-I", "-S", "-c", code],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "abpsim.cli" in loaded
    return loaded


def test_cli_import_loads_no_heavy_stdlib_modules():
    # These cost about a third of the import on a cold start, and no output
    # depends on them.  `random` (about 0.6 ms) is its C generator's wrapper.
    loaded = _modules_after_cli_import()
    assert sorted(loaded & {"dataclasses", "inspect", "ast", "dis", "importlib.resources",
                            "random"}) == []


def test_cli_import_loads_no_openssl():
    # Both digests come from the interpreter's builtin hash modules; OpenSSL
    # raised the import's peak RSS by about 3.7 MB (Python 3.11).
    assert "_hashlib" not in _modules_after_cli_import()


def test_cli_runs_from_a_zip_of_the_package(tmp_path):
    archive = tmp_path / "abpsim.zip"
    with zipfile.ZipFile(archive, "w") as bundle:
        for path in sorted((SRC / "abpsim").rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                bundle.write(path, path.relative_to(SRC).as_posix())
    for argv in (("test",), ("simulate", "--scenario", "single_drop")):
        zipped = _isolated(archive, *argv, cwd=tmp_path)
        source = _isolated(SRC, *argv, cwd=tmp_path)
        assert zipped.returncode == source.returncode == 0, zipped.stderr
        assert zipped.stdout == source.stdout and zipped.stderr == source.stderr == ""
