"""Command-line front end.

Four subcommands: ``simulate`` runs one scenario and emits the full wire
trace; ``test`` runs the golden transition tables, the bundled path cases,
and end-to-end identity scenarios; ``coverage`` runs the same suites under
instrumentation and reports catalog coverage; ``generate`` writes a
replayable random scenario file.

Exit codes: 0 success, 1 test or model failure, 2 usage or parse error.
JSON output is byte-deterministic for identical inputs: every document is
written by `_json_text`, whose bytes equal ``json.dumps(doc,
sort_keys=True, indent=2)`` plus a newline, and a `wires` section renders
each distinct slot once.  Human output honors NO_COLOR.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any, Dict, List, Optional, Tuple

from . import __version__
from .abp import OracleExhausted
from .golden import (
    BUNDLED_SCENARIO_NAMES,
    MACHINES,
    POSITIVE_SCENARIO_NAMES,
    TableCase,
    bundled_path_cases,
    bundled_scenario,
    bundled_tables,
    load_scenario_file,
    load_table_file,
)
from .literals import format_value
from .runtime import DeadlockDetected, InvalidTimerValue, ModelError
from .testkit import (
    FULL,
    IdentityStatus,
    ScenarioSpec,
    StepVerdict,
    Verdict,
    check_identity,
    generate_scenario,
    instrument,
    path_test,
    run_scenario,
    scenario_digest,
    trans_test,
)

_MODEL_ERRORS = (ModelError, DeadlockDetected, OracleExhausted, InvalidTimerValue)

DEFAULT_MAX_PAYLOADS = 10
DEFAULT_MAX_HORIZON = 10_000
DEFAULT_DROP = 0.3
# Most random scenarios one `test --count` run may generate; all of them are
# built before the first one runs.
MAX_TEST_COUNT = 10_000


class UsageError(Exception):
    """Bad flags or unparseable input files; maps to exit code 2."""


def _styler(to_file: bool = False):
    if to_file or os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return lambda text, _code: text
    return lambda text, code: f"\x1b[{code}m{text}\x1b[0m"


def _render_payload(payload) -> str:
    return format_value(payload, strict=False)


def _wire_text(slots) -> str:
    parts = []
    for slot in slots:
        parts.extend(map(_render_payload, slot))
        parts.append("~")
    return " ".join(parts)


def _wires_json(wires) -> List[dict]:
    """The JSON `wires` list for (name, slots) pairs: each slot a list of
    payload literals.  Each distinct slot is rendered once; slots are told
    apart by repr, since ``(True,)`` and ``(1,)`` compare equal."""
    rendered: Dict[str, List[str]] = {}

    def render(slot):
        key = repr(slot)
        literals = rendered.get(key)
        if literals is None:
            literals = rendered[key] = [_render_payload(p) for p in slot]
        return literals

    return [{"name": wire, "slots": list(map(render, slots))} for wire, slots in wires]


def _emit(text: str, out_path: Optional[str]):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_text(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, byte for byte,
    for documents of str-keyed dicts, lists, tuples, str, int, bool, None
    and float.  The stdlib encodes indented JSON in pure Python; this
    writer makes one call per container and none per string."""
    return _json_value(doc, "\n") + "\n"


def _json_value(value, newline: str) -> str:
    """The indent-2 JSON text of `value`; `newline` is a newline and the
    indent of the line `value` starts on."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_encode_str(item) if type(item) is str else _json_value(item, inner)
                 for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        members = []
        for key in sorted(value):
            item = value[key]
            members.append(_encode_str(key) + ": " + (
                _encode_str(item) if type(item) is str else _json_value(item, inner)))
        return "{" + inner + ("," + inner).join(members) + newline + "}"
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        # The forms `json` gives floats, NaN and the infinities included.
        if value != value:
            return "NaN"
        if value == float("inf"):
            return "Infinity"
        if value == -float("inf"):
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _meta(scenario: Optional[ScenarioSpec] = None, seed: Optional[int] = None,
          extra: Optional[dict] = None) -> dict:
    meta: Dict[str, Any] = {"tool": "abpsim", "version": __version__}
    if scenario is not None:
        meta["scenario"] = scenario.name
        meta["digest"] = scenario_digest(scenario)
        meta["seed"] = scenario.seed
        meta["horizon"] = scenario.horizon
    if seed is not None:
        meta["seed"] = seed
    if extra:
        meta.update(extra)
    return meta


def _resolve_scenario(ref: str) -> ScenarioSpec:
    try:
        if os.path.exists(ref):
            return load_scenario_file(ref)
        if ref in BUNDLED_SCENARIO_NAMES:
            return bundled_scenario(ref)
    except (ValueError, json.JSONDecodeError, OSError) as exc:
        raise UsageError(f"scenario {ref!r}: {exc}") from None
    raise UsageError(
        f"scenario {ref!r}: no such file or bundled scenario "
        f"(bundled: {', '.join(BUNDLED_SCENARIO_NAMES)})"
    )


def _inline_bounds(args) -> Tuple[int, int, float]:
    count = DEFAULT_MAX_PAYLOADS if args.count is None else args.count
    horizon = DEFAULT_MAX_HORIZON if args.horizon is None else args.horizon
    drop = DEFAULT_DROP if args.drop is None else args.drop
    return count, horizon, drop


def _reject_flags(args, names, context: str):
    """A usage error naming every inline flag in `names` that was given."""
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if given:
        raise UsageError(f"{', '.join(given)}: {context}")


def _generate_checked(seed: int, bounds: Tuple[int, int, float]) -> ScenarioSpec:
    try:
        return generate_scenario(seed, bounds)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load_tables(args) -> List[TableCase]:
    cases: List[TableCase] = []
    if not args.no_bundled:
        cases.extend(bundled_tables())
    for path in args.tables:
        try:
            cases.extend(load_table_file(path))
        except (ValueError, json.JSONDecodeError, OSError) as exc:
            raise UsageError(f"table {path}: {exc}") from None
    return cases


def _warn(message: str):
    print(f"warning: {message}", file=sys.stderr)


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    if args.scenario and args.seed is not None:
        raise UsageError("--scenario and --seed are mutually exclusive in simulate")
    if args.scenario:
        _reject_flags(args, ("count", "drop", "horizon"),
                      "only used with --seed (generated scenarios), not --scenario")
        scenario = _resolve_scenario(args.scenario)
    elif args.seed is not None:
        scenario = _generate_checked(args.seed, _inline_bounds(args))
    else:
        raise UsageError("simulate needs --scenario or --seed")

    run, warnings = run_scenario(scenario)
    for warning in warnings:
        _warn(warning)

    if args.format == "json":
        wires = _wires_json((wire, run.slots[wire]) for wire in run.wire_order)
        doc = {"meta": _meta(scenario), "wires": wires, "verdicts": [], "coverage": None}
        _emit(_json_text(doc), args.out)
    else:
        lines = [f"scenario {scenario.name or '(unnamed)'}  "
                 f"digest {scenario_digest(scenario)}  horizon {scenario.horizon}"]
        width = max(len(w) for w in run.wire_order)
        for wire in run.wire_order:
            lines.append(f"  {wire.ljust(width)}  {_wire_text(run.slots[wire])}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# -------------------------------------------------------------------- test


def _verdict_row(kind: str, machine: str, verdict: Verdict | StepVerdict, pairs: bool,
                 note: str = "") -> dict:
    """One report row for a Verdict or a path case's first failing
    StepVerdict; `pairs` says whether its expected and actual values are
    (state, outputs) pairs rather than a single state or output tuple."""
    row: Dict[str, Any] = {
        "kind": kind,
        "machine": machine,
        "id": verdict.case_id,
        "status": "pass" if verdict.passed else "fail",
    }
    if not verdict.passed:
        expected = _describe(verdict.expected, pairs)
        actual = _describe(verdict.actual, pairs)
        if isinstance(verdict, StepVerdict):
            row["detail"] = (f"step {verdict.index}: expected {expected}; actual {actual}"
                             + (f"; {verdict.error}" if verdict.error else ""))
        else:
            row["detail"] = verdict.error or f"expected {expected}; actual   {actual}"
        if note:
            row["note"] = note
    return row


def _describe(value, pair: bool) -> str:
    # A step that raised has no actual value, pair or not.
    if pair and value is not None:
        state, outputs = value
        return (f"state {format_value(state, strict=False)}, "
                f"outputs {format_value(outputs, strict=False)}")
    return format_value(value, strict=False)


def _suite_rows(table_cases, path_cases, deltas) -> List[dict]:
    """One report row per transition case, then per path case, each run on
    its machine's delta in `deltas`.  A path case's row shows its first
    failing step."""
    rows = [_verdict_row("transition", table_case.machine,
                         trans_test(deltas[table_case.machine], table_case.case), True,
                         table_case.note)
            for table_case in table_cases]
    for machine, case in path_cases:
        verdict = path_test(deltas[machine], case)
        if not isinstance(verdict, Verdict):
            verdict = next((step for step in verdict if not step.passed), Verdict(case.id, True))
        rows.append(_verdict_row("path", machine, verdict, case.mode == FULL))
    return rows


def _identity_row(scenario: ScenarioSpec) -> dict:
    row: Dict[str, Any] = {"kind": "identity", "id": scenario.name or "(unnamed)",
                           "machine": "abp"}
    try:
        result = check_identity(scenario)
    except _MODEL_ERRORS as exc:
        row["status"] = "fail"
        row["detail"] = f"{type(exc).__name__}: {exc}"
        return row

    if result.status is IdentityStatus.PASS and not result.warnings:
        row["status"] = "pass"
        return row
    if result.status is IdentityStatus.PASS:
        row["status"] = "fail"
        row["detail"] = "fairness warning: " + "; ".join(result.warnings)
        return row

    row["status"] = result.status.value
    sent = format_value(result.expected, strict=False)
    got = format_value(result.actual, strict=False)
    detail = f"sent {sent}, delivered {got}"
    if result.divergence is not None:
        detail += f", first divergence at message {result.divergence}"
    if result.warnings:
        detail += "; fairness warning: " + "; ".join(result.warnings)
    row["detail"] = detail
    if result.status is IdentityStatus.FAIL and result.wires is not None:
        row["wires"] = _wires_json(result.wires.items())
    return row


def _test_scenarios(args) -> Tuple[List[ScenarioSpec], Optional[int]]:
    scenarios: List[ScenarioSpec] = []
    suite_seed = None
    if args.count is None:
        _reject_flags(args, ("seed", "drop", "horizon"),
                      "only used with --count N (random scenarios)")
    if args.scenario:
        scenarios.append(_resolve_scenario(args.scenario))
    if args.count is not None:
        if not 0 <= args.count <= MAX_TEST_COUNT:
            raise UsageError(f"--count must lie between 0 and {MAX_TEST_COUNT}")
        suite_seed = 0 if args.seed is None else args.seed
        _, horizon, drop = _inline_bounds(args)
        rng = random.Random(f"suite:{suite_seed}")
        for _ in range(args.count):
            scenarios.append(
                _generate_checked(rng.randrange(2**32), (DEFAULT_MAX_PAYLOADS, horizon, drop))
            )
    if not args.scenario and args.count is None and not args.no_bundled:
        scenarios.extend(bundled_scenario(name) for name in POSITIVE_SCENARIO_NAMES)
    return scenarios, suite_seed


def _rows_text(rows, style) -> List[str]:
    lines = []
    for row in rows:
        status = row["status"]
        if status == "pass":
            tag = style("PASS", "32")
        elif status == "inconclusive-horizon":
            tag = style("INCONCLUSIVE", "33")
        else:
            tag = style("FAIL", "31")
        lines.append(f"{tag} {row['kind']} {row['machine']}/{row['id']}")
        if row.get("detail"):
            lines.append(f"     {row['detail']}")
    return lines


def cmd_test(args) -> int:
    deltas = {name: binding.delta for name, binding in MACHINES.items()}
    cases = _load_tables(args)
    scenarios, suite_seed = _test_scenarios(args)
    rows = _suite_rows(cases, () if args.no_bundled else bundled_path_cases(), deltas)
    rows.extend(_identity_row(scenario) for scenario in scenarios)

    passed = sum(1 for row in rows if row["status"] == "pass")
    failed = len(rows) - passed
    if args.format == "json":
        doc = {
            "meta": _meta(seed=suite_seed, extra={"passed": passed, "failed": failed}),
            "wires": [],
            "verdicts": rows,
            "coverage": None,
        }
        text = _json_text(doc)
    else:
        style = _styler(to_file=args.out is not None)
        lines = _rows_text(rows, style)
        summary = f"{passed} passed, {failed} failed of {len(rows)} cases"
        lines.append(summary if failed else style(summary, "32"))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------- coverage


def _coverage_json(report, passes: int, fails: int) -> dict:
    return {
        "covered": sorted(report.covered),
        "uncovered": sorted(report.uncovered),
        "classes": dict(sorted(report.class_coverage.items())),
        "verdicts": {"pass": passes, "fail": fails},
        "unclassified": report.unclassified,
    }


def cmd_coverage(args) -> int:
    required = args.require_coverage or sorted(MACHINES)
    unknown = [name for name in required if name not in MACHINES]
    if unknown:
        raise UsageError(f"--require-coverage: unknown machine(s) {', '.join(unknown)}")

    deltas = {}
    accumulators = {}
    for name, binding in MACHINES.items():
        deltas[name], accumulators[name] = instrument(binding.delta, binding.catalog)

    rows = _suite_rows(_load_tables(args), () if args.no_bundled else bundled_path_cases(),
                       deltas)
    verdicts = Counter((row["machine"], row["status"]) for row in rows)
    reports = {name: accumulators[name].report(MACHINES[name].catalog) for name in MACHINES}
    failed_cases = sum(1 for row in rows if row["status"] != "pass")
    incomplete = [name for name in required if not reports[name].complete]

    if args.format == "json":
        doc = {
            "meta": _meta(extra={"required": sorted(required)}),
            "wires": [],
            "verdicts": rows,
            "coverage": {name: _coverage_json(report, verdicts[name, "pass"],
                                              verdicts[name, "fail"])
                         for name, report in reports.items()},
        }
        text = _json_text(doc)
    else:
        style = _styler(to_file=args.out is not None)
        lines = []
        for name in sorted(reports):
            report = reports[name]
            total = len(report.covered) + len(report.uncovered)
            mark = style("ok", "32") if report.complete else style("INCOMPLETE", "31")
            lines.append(f"{name}: {len(report.covered)}/{total} transitions covered [{mark}]")
            if report.uncovered:
                lines.append(f"  uncovered: {', '.join(sorted(report.uncovered))}")
            hits = ", ".join(f"{cls}={count}"
                             for cls, count in sorted(report.class_coverage.items()))
            lines.append(f"  class hits: {hits}")
            lines.append(f"  case verdicts: {verdicts[name, 'pass']} pass, "
                         f"{verdicts[name, 'fail']} fail")
            if report.unclassified:
                lines.append(f"  unclassified steps: {report.unclassified} (test smell)")
        if failed_cases:
            lines.append(f"{failed_cases} case(s) failed")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if not incomplete and failed_cases == 0 else 1


# ---------------------------------------------------------------- generate


def cmd_generate(args) -> int:
    scenario = _generate_checked(args.seed, _inline_bounds(args))
    _emit(_json_text(scenario.to_dict()), args.out)
    return 0


# -------------------------------------------------------------------- main


def _add_common(parser, *, scenario=False, tables=False, inline=False, coverage=False):
    if scenario:
        parser.add_argument("--scenario", metavar="PATH|NAME",
                            help="scenario file, or a bundled name: "
                                 + ", ".join(BUNDLED_SCENARIO_NAMES))
    if tables:
        parser.add_argument("--tables", metavar="PATH", nargs="+", action="extend", default=[],
                            help="extra test-table files (JSON)")
        parser.add_argument("--no-bundled", action="store_true",
                            help="skip the bundled tables, path cases, and scenarios")
    if inline:
        parser.add_argument("--seed", type=int, help="seed for generated scenarios")
        parser.add_argument("--count", type=int,
                            help="max payloads (simulate/generate) or number of random "
                                 f"scenarios (test, at most {MAX_TEST_COUNT})")
        parser.add_argument("--drop", type=float,
                            help=f"max drop probability (default {DEFAULT_DROP})")
        parser.add_argument("--horizon", type=int,
                            help=f"max slot horizon (default {DEFAULT_MAX_HORIZON})")
    if coverage:
        parser.add_argument("--require-coverage", metavar="MACHINE", nargs="+",
                            action="extend", default=[],
                            help="machines whose catalogs must be fully covered "
                                 "(default: all bundled machines)")
    parser.add_argument("--format", choices=("human", "json"), default="human")
    parser.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abpsim",
        description="Simulate and test the alternating bit protocol model.",
    )
    parser.add_argument("--version", action="version", version=f"abpsim {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser("simulate", help="run one scenario and emit the wire trace")
    _add_common(simulate, scenario=True, inline=True)
    simulate.set_defaults(handler=cmd_simulate)

    test = commands.add_parser("test", help="run golden tables, path cases, and identity scenarios")
    _add_common(test, scenario=True, tables=True, inline=True)
    test.set_defaults(handler=cmd_test)

    coverage = commands.add_parser("coverage", help="run the suites under coverage instrumentation")
    _add_common(coverage, tables=True, coverage=True)
    coverage.set_defaults(handler=cmd_coverage)

    generate = commands.add_parser("generate", help="write a replayable random scenario")
    _add_common(generate, inline=True)
    generate.set_defaults(handler=cmd_generate)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate" and args.seed is None:
        parser.error("generate requires --seed")
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _MODEL_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main(argv=None):
    raise SystemExit(run(argv))


if __name__ == "__main__":
    main()
