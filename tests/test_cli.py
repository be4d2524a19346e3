import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from abpsim import (
    FULL,
    OUTPUTS_ONLY,
    STATES_ONLY,
    MsgO,
    PathCase,
    SetTimer,
    bundled_scenario,
    generate_scenario,
    scenario_digest,
)
from abpsim import cli
from abpsim.golden import MACHINES
from abpsim.cli import run


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


@pytest.mark.parametrize("oracle", [
    {"kind": "bernoulli", "pass_probability": "x", "seed": 1},
    {"kind": "bernoulli", "pass_probability": True, "seed": 1},
    {"kind": "bernoulli", "pass_probability": 0.5, "seed": 1.7},
    {"kind": "bernoulli", "pass_probability": 0.5, "seed": "1"},
    {"kind": "explicit", "bits": 5},
    {"kind": "cyclic", "bits": ["no"]},
    {"kind": "explicit", "bits": [1, 0]},
], ids=["probability-string", "probability-bool", "seed-float", "seed-string",
        "bits-int", "bits-strings", "bits-ints"])
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


@pytest.mark.parametrize("field,value", [("start", 5), ("machine", ["x"])],
                         ids=["start-int", "machine-list"])
def test_test_rejects_malformed_table_fields(tmp_path, capsys, field, value):
    record = {"id": "bad", "machine": "sender", "start": "[true,[]]", "input": "3",
              "expectState": "[true,[3]]", "expectOutputs": "[]"}
    record[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([record]))
    code, _, err = run_cmd(capsys, "test", "--tables", str(path))
    assert code == 2
    assert err.startswith("error: ") and f"field '{field}'" in err


@pytest.mark.parametrize("flag, value", [("--seed", "5"), ("--drop", "0.1"),
                                         ("--horizon", "50")])
def test_test_rejects_random_scenario_flags_without_count(capsys, flag, value):
    code, out, err = run_cmd(capsys, "test", flag, value)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and flag in err and "--count" in err


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
@pytest.mark.parametrize("target", ["missing/x.txt", "."], ids=["missing-dir", "directory"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv, target):
    # A path under a missing directory, and a directory itself.
    out_path = tmp_path / target
    code, stdout, err = run_cmd(capsys, *argv, "--out", str(out_path))
    assert code == 2 and stdout == ""
    assert err.startswith("error: --out ") and str(out_path) in err


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


# ------------------------------------------------------------------- misc


def test_version_flag_exits_cleanly():
    with pytest.raises(SystemExit) as err:
        run(["--version"])
    assert err.value.code == 0


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        run([])
    assert err.value.code == 2


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


@given(json_documents)
@example({"floats": [float("nan"), float("inf"), -float("inf"), -0.0, 1e16, 0.1],
          "text": "\u00e9\u2028\x00\ud83d\ude00\"", "empty": [{}, [], ""], "": None})
def test_json_text_is_the_stdlib_indented_sorted_encoding(doc):
    assert cli._json_text(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_wires_json_tells_equal_slots_of_different_types_apart():
    slots = [(True,), (1,), (True, 1), (1, 1), (1,), (True, 1), ((True, 1),), ((1, 1),)]
    wires = cli._wires_json([("a", slots), ("b", slots[::-1])])
    assert wires[0]["slots"] == [["true"], ["1"], ["true", "1"], ["1", "1"], ["1"],
                                 ["true", "1"], ["[true,1]"], ["[1,1]"]]
    assert wires[1]["slots"] == wires[0]["slots"][::-1]


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
