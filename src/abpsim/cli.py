"""Command-line front end.

Four subcommands: ``simulate`` runs one scenario and emits the full wire
trace; ``test`` runs the golden transition tables, the bundled path cases,
and end-to-end identity scenarios; ``coverage`` runs the same suites under
instrumentation and reports catalog coverage; ``generate`` writes a
replayable random scenario file.

Exit codes: 0 success, 1 test or model failure, 2 usage or parse error (a
report that cannot be written to ``--out`` or stdout is one, and so is
running out of memory).  JSON output is byte-deterministic for identical
inputs: its bytes equal ``json.dumps(doc, sort_keys=True, indent=2)`` plus
a newline.  `_emit` writes every document as it is rendered.  The JSON
skeleton is joined by `_json_text`, with each wire's `slots` left out
(a FAIL identity row's wires are run again when they are written); each
wire, in both formats, is rendered and written a block of `_BLOCK`
slots at a time, so no text holds a whole wire or document.  Each distinct
slot of a wire is rendered once, while at most `_KEPT_TEXTS` texts are
kept, and each block is joined with no interpreted step per slot.  A run
stores no slot of its quiet tail; the tail is written as the text of one
empty slot, repeated.  Human output honors NO_COLOR.

`run` pauses the cyclic garbage collector for the one command and restores
its previous state after it.  A command keeps tens of thousands of small
container objects alive (a big table's cases, oracle cursors, wire slots)
and none of them is in a reference cycle, so each collection pass would
scan them all and free nothing; the only cycles a command leaves behind
are a few hundred objects of the argument parser, freed by the next pass
after the command.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

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


def _rendered_slots(slots, render, texts: dict) -> List[str]:
    """``render(slot)`` for each slot, called once per distinct slot whose
    text `texts` does not hold yet, which then holds it.  Slots are told
    apart by repr, since ``(True,)`` and ``(1,)`` compare equal."""
    keys = list(map(repr, slots))
    fresh = dict(zip(keys, slots))
    for key in fresh.keys() - texts.keys():
        texts[key] = render(fresh[key])
    return list(map(texts.__getitem__, keys))


# Slots rendered per piece of a wire's text: the most of a wire that any one
# text holds.
_BLOCK = 1024
# Most distinct slot texts kept from one block of a wire for the next ones.
_KEPT_TEXTS = 4 * _BLOCK
# Empty slots per piece of a wire's quiet tail.  Each piece's text, at most
# about 4 kB in JSON, stays below the 8 kB chunk in which the text writer
# gathers short pieces before it encodes them; a longer piece is encoded on
# its own, and the peak of writing a long tail then varied by some 16 kB
# with where the tail's last piece ended.
_TAIL_BLOCK = 256


def _blocks(slots, render, sep: str, length: int) -> Iterator[str]:
    """``sep.join(map(render, wire))`` in pieces of `_BLOCK` slots, each
    rendered when the one before it has been consumed, where `wire` is
    `slots` padded with empty slots to `length`.  Each distinct slot is
    rendered once, unless the wire has more than `_KEPT_TEXTS` of them; the
    padding is the text of one empty slot, repeated, `_TAIL_BLOCK` slots a
    piece."""
    texts: Dict[str, str] = {}
    head = ""
    for start in range(0, len(slots), _BLOCK):
        if len(texts) > _KEPT_TEXTS:
            texts.clear()
        yield _joined(head, _rendered_slots(slots[start:start + _BLOCK], render, texts),
                      sep, "")
        head = sep
    empty = render(())
    for start in range(len(slots), length, _TAIL_BLOCK):
        yield head + sep.join([empty] * min(_TAIL_BLOCK, length - start))
        head = sep


def _slot_text(slot) -> str:
    return " ".join([*map(_render_payload, slot), "~"])


class _Slots:
    """A wire's `slots` in a document, padded with empty slots to `length`:
    `_json_chunks` renders them where they sit, a block at a time, each
    slot a list of payload literals."""

    __slots__ = ("slots", "length")

    def __init__(self, slots, length: int):
        self.slots = slots
        self.length = length


def _wires_json(run) -> List[dict]:
    """The JSON `wires` list of a run: each wire's stored slots, padded with
    empty slots to the run's horizon, left for `_json_chunks` to render."""
    return [{"name": wire, "slots": _Slots(run.stored[wire], run.horizon)}
            for wire in run.wire_order]


def _slots_json(slots, length: int, newline: str) -> Iterator[str]:
    """The JSON text of a wire's `slots`, padded with empty slots to
    `length`, in pieces; `newline` is a newline and the indent of the line
    the list starts on."""
    if not length:
        yield "[]"
        return
    inner = newline + "  "
    head, sep, tail = "[" + inner + "  ", "," + inner + "  ", inner + "]"

    def slot_json(slot) -> str:
        # A slot's list of payload literals, one level inside the wire's list.
        if not slot:
            return "[]"
        return _joined(head, [_encode_str(_render_payload(p)) for p in slot], sep, tail)

    yield "[" + inner
    yield from _blocks(slots, slot_json, "," + inner, length)
    yield newline + "]"


# Stands in the document text for each deferred value; never in encoded
# JSON, since `_encode_str` escapes every control character.
_MARK = "\x00"


def _json_chunks(doc: dict) -> Iterator[str]:
    """The JSON text of `doc`, as `_json_text` gives it, in pieces.  Each
    `_Slots` and `ScenarioSpec` in it is rendered at its `_MARK`'s depth as
    the pieces are consumed: a scenario as the `wires` list of its run,
    which is run again there and dropped once written."""
    deferred: List[Tuple[Any, str]] = []
    return _filled(_json_text(doc, deferred), deferred)


def _filled(text: str, deferred: List[Tuple[Any, str]]) -> Iterator[str]:
    """`text` in pieces, each `_MARK` replaced by its value in `deferred`."""
    pieces = iter(text.split(_MARK))
    yield next(pieces)
    for (value, newline), piece in zip(deferred, pieces):
        if type(value) is _Slots:
            yield from _slots_json(value.slots, value.length, newline)
        else:
            # Rebinding `inner` drops the last run before this one is made.
            inner: list = []
            text = _json_value(_wires_json(run_scenario(value)[0]), newline, inner)
            yield from _filled(text, inner)
        yield piece


def _json_text(doc: dict, deferred: Optional[list] = None) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, byte for byte,
    for documents of str-keyed dicts, lists, tuples, str, int, bool, None
    and float; each `_Slots` or `ScenarioSpec` becomes a `_MARK`, it and
    the newline of its line appended to `deferred`.  The stdlib encodes
    indented JSON in pure Python; this writer makes one call per container
    and none per string or int, hands every other leaf to `json.dumps`, and
    joins each container, the final newline included, in one `join`."""
    if not doc:
        return "{}\n"
    return _joined("{\n  ", _members(doc, "\n  ", deferred), ",\n  ", "\n}\n")


def _joined(head: str, items: List[str], sep: str, tail: str) -> str:
    """``head + sep.join(items) + tail`` for a non-empty `items`, which it
    changes.  The text of a large container is copied once, by the join;
    only its first and last items are copied again."""
    items[0] = head + items[0]
    items[-1] += tail
    return sep.join(items)


def _members(value: dict, inner: str, deferred: Optional[list]) -> List[str]:
    """The ``"key": value`` texts of a non-empty dict's members, sorted by key."""
    members = []
    for key in sorted(value):
        item = value[key]
        members.append(_encode_str(key) + ": " + (
            _encode_str(item) if type(item) is str else _json_value(item, inner, deferred)))
    return members


def _json_value(value, newline: str, deferred: Optional[list]) -> str:
    """The indent-2 JSON text of `value`; `newline` is a newline and the
    indent of the line `value` starts on."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_encode_str(item) if type(item) is str
                 else _json_value(item, inner, deferred) for item in value]
        return _joined("[" + inner, items, "," + inner, newline + "]")
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        return _joined("{" + inner, _members(value, inner, deferred), "," + inner,
                       newline + "}")
    if type(value) is _Slots or type(value) is ScenarioSpec:
        deferred.append((value, newline))
        return _MARK
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value)


def _emit(chunks: Iterable[str], out_path: Optional[str]):
    """Write each chunk to `out_path`, or to stdout, as `chunks` yields it.
    A write, flush or close that fails is a usage error."""
    if out_path is not None:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.writelines(chunks)
        except OSError as exc:
            raise UsageError(f"--out {out_path}: {exc.strerror or exc}") from None
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except OSError as exc:
        # The interpreter flushes stdout again as it exits, and that flush
        # would fail too; a closed stdout is not flushed.
        try:
            sys.stdout.close()
        except OSError:
            pass
        raise UsageError(f"stdout: {exc.strerror or exc}") from None


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
    except OSError as exc:
        raise UsageError(f"scenario {ref!r}: {exc.strerror or exc}") from None
    except ValueError as exc:
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
        except OSError as exc:
            raise UsageError(f"table {path}: {exc.strerror or exc}") from None
        except ValueError as exc:  # its message starts with the path
            raise UsageError(f"table {exc}") from None
    return cases


def _warn(message: str):
    print(f"warning: {message}", file=sys.stderr)


# ---------------------------------------------------------------- simulate


def _trace_text(scenario: ScenarioSpec, run) -> Iterator[str]:
    """The human `simulate` document: a header line, then one line per wire."""
    yield (f"scenario {scenario.name or '(unnamed)'}  "
           f"digest {scenario_digest(scenario)}  horizon {scenario.horizon}\n")
    width = max(map(len, run.wire_order))
    for wire in run.wire_order:
        yield f"  {wire.ljust(width)}  "
        yield from _blocks(run.stored[wire], _slot_text, " ", run.horizon)
        yield "\n"


def _trace_json(scenario: ScenarioSpec, run) -> Iterator[str]:
    """The JSON `simulate` document."""
    return _json_chunks({"meta": _meta(scenario), "wires": _wires_json(run), "verdicts": [],
                         "coverage": None})


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

    render = _trace_json if args.format == "json" else _trace_text
    _emit(render(scenario, run), args.out)
    return 0


# -------------------------------------------------------------------- test


def _verdict_row(kind: str, machine: str, verdict: Verdict, pairs: bool,
                 note: str = "") -> dict:
    """One report row for a case's Verdict, or for a path case's first
    failing step's; `pairs` says whether its expected and actual values are
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
        if verdict.index is not None:
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
        verdicts = path_test(deltas[machine], case)
        verdict = next((step for step in verdicts if not step.passed), Verdict(case.id, True))
        rows.append(_verdict_row("path", machine, verdict, case.mode == FULL))
    return rows


def _identity_row(scenario: ScenarioSpec) -> dict:
    row: Dict[str, Any] = {"kind": "identity", "id": scenario.name or "(unnamed)",
                           "machine": "abp"}
    try:
        result = check_identity(scenario)
    except MemoryError:
        raise
    except Exception as exc:  # a model that raises fails its row
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
    if result.status is IdentityStatus.FAIL:
        row["wires"] = scenario  # `_json_chunks` writes its run's wires
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
        chunks = _json_chunks(doc)
    else:
        style = _styler(to_file=args.out is not None)
        lines = _rows_text(rows, style)
        summary = f"{passed} passed, {failed} failed of {len(rows)} cases"
        lines.append(summary if failed else style(summary, "32"))
        chunks = ["\n".join(lines) + "\n"]
    _emit(chunks, args.out)
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
        chunks = _json_chunks(doc)
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
            lines.extend(_rows_text((row for row in rows if row["status"] != "pass"), style))
            lines.append(f"{failed_cases} case(s) failed")
        chunks = ["\n".join(lines) + "\n"]
    _emit(chunks, args.out)
    return 0 if not incomplete and failed_cases == 0 else 1


# ---------------------------------------------------------------- generate


def cmd_generate(args) -> int:
    scenario = _generate_checked(args.seed, _inline_bounds(args))
    _emit(_json_chunks(scenario.to_dict()), args.out)
    return 0


# -------------------------------------------------------------------- main


def _add_common(parser, *, scenario=False, tables=False, inline=False, coverage=False,
                formats=("human", "json")):
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
    parser.add_argument("--format", choices=formats, default=formats[0])
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
    _add_common(generate, inline=True, formats=("json",))
    generate.set_defaults(handler=cmd_generate)
    return parser


def run(argv=None) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.command == "generate" and args.seed is None:
            parser.error("generate requires --seed")
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _MODEL_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


def main(argv=None):
    raise SystemExit(run(argv))


if __name__ == "__main__":
    main()
