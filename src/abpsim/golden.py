"""Bundled test artifacts: transition catalogs, golden tables, reference
scenarios, and the bindings that connect table machine names to deltas.

Tables address machines by name; each binding carries the table-facing
delta (with any input adaptation) and the declared transition catalog used
for coverage.  The sender's table inputs are untagged for readability:
an integer is a payload, a boolean an acknowledgement bit, ``Timeout`` the
timer event.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Tuple

from .abp import OracleCursor, medium_delta, receiver_delta_tagged, sender_delta
from .literals import parse_value
from .runtime import (
    Delta,
    FromA,
    FromB,
    ModelError,
    MsgI,
    MsgO,
    SetTimer,
    TimeoutEvent,
    lift_timed,
)
from .streams import Msg, Tick, _Value
from .testkit import (
    OUTPUTS_ONLY,
    STATES_ONLY,
    CatalogEntry,
    PathCase,
    ScenarioSpec,
    TransitionCase,
    TransitionCatalog,
)


class MachineBinding(_Value):
    __slots__ = ("delta", "catalog")

    def __init__(self, delta: Delta, catalog: TransitionCatalog):
        set_delta, set_catalog = self._setters
        set_delta(self, delta)
        set_catalog(self, catalog)


class TableCase(_Value):
    __slots__ = ("machine", "case", "note")

    def __init__(self, machine: str, case: TransitionCase, note: str = ""):
        set_machine, set_case, set_note = self._setters
        set_machine(self, machine)
        set_case(self, case)
        set_note(self, note)


def _sender_event(raw):
    if raw is TimeoutEvent:
        return raw
    if isinstance(raw, bool):
        return MsgI(FromB(raw))
    if isinstance(raw, int):
        return MsgI(FromA(raw))
    raise ModelError(f"sender table input {raw!r} is neither payload, ack, nor Timeout")


def _sender_table_delta(state, raw):
    return sender_delta(state, _sender_event(raw))


def _is_payload(item) -> bool:
    return isinstance(item, int) and not isinstance(item, bool)


def _is_ack(item) -> bool:
    return isinstance(item, bool)


def _is_timeout(item) -> bool:
    return item is TimeoutEvent


def _is_signed(item) -> bool:
    return isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], bool)


SENDER_CATALOG = TransitionCatalog(
    "sender",
    classes={
        "empty_buffer": lambda s: isinstance(s, tuple) and len(s) == 2 and not s[1],
        "nonempty_buffer": lambda s: isinstance(s, tuple) and len(s) == 2 and bool(s[1]),
    },
    entries=[
        CatalogEntry("t_send_first", "empty_buffer", "nonempty_buffer", _is_payload),
        CatalogEntry("t_enqueue", "nonempty_buffer", "nonempty_buffer", _is_payload),
        CatalogEntry("t_ack_idle", "empty_buffer", "empty_buffer", _is_ack),
        CatalogEntry("t_ack_stale", "nonempty_buffer", "nonempty_buffer", _is_ack,
                     guard=lambda s, i: i != s[0]),
        CatalogEntry("t_ack_final", "nonempty_buffer", "empty_buffer", _is_ack,
                     guard=lambda s, i: i == s[0] and len(s[1]) == 1),
        CatalogEntry("t_ack_advance", "nonempty_buffer", "nonempty_buffer", _is_ack,
                     guard=lambda s, i: i == s[0] and len(s[1]) >= 2),
        CatalogEntry("t_timeout_idle", "empty_buffer", "empty_buffer", _is_timeout),
        CatalogEntry("t_timeout_resend", "nonempty_buffer", "nonempty_buffer", _is_timeout),
    ],
)

MEDIUM_CATALOG = TransitionCatalog(
    "medium",
    classes={"forwarding": lambda s: isinstance(s, OracleCursor)},
    entries=[
        CatalogEntry("m_pass", "forwarding", "forwarding",
                     lambda i: isinstance(i, Msg), guard=lambda s, i: s.peek_bit()),
        CatalogEntry("m_drop", "forwarding", "forwarding",
                     lambda i: isinstance(i, Msg), guard=lambda s, i: not s.peek_bit()),
        CatalogEntry("m_tick", "forwarding", "forwarding", lambda i: i is Tick),
    ],
)

RECEIVER_CATALOG = TransitionCatalog(
    "receiver",
    classes={
        "expect_true": lambda s: s is True,
        "expect_false": lambda s: s is False,
    },
    entries=[
        CatalogEntry("r_accept_true", "expect_true", "expect_false",
                     lambda i: _is_signed(i) and i[0] is True),
        CatalogEntry("r_stale_true", "expect_true", "expect_true",
                     lambda i: _is_signed(i) and i[0] is False),
        CatalogEntry("r_accept_false", "expect_false", "expect_true",
                     lambda i: _is_signed(i) and i[0] is False),
        CatalogEntry("r_stale_false", "expect_false", "expect_false",
                     lambda i: _is_signed(i) and i[0] is True),
    ],
)

MACHINES: Dict[str, MachineBinding] = {
    "sender": MachineBinding(_sender_table_delta, SENDER_CATALOG),
    "medium": MachineBinding(lift_timed(medium_delta), MEDIUM_CATALOG),
    "receiver": MachineBinding(receiver_delta_tagged, RECEIVER_CATALOG),
}

BUNDLED_TABLE_NAMES = ("sender", "receiver", "medium")
BUNDLED_SCENARIO_NAMES = ("all_pass", "single_drop", "mismatched_bits")
# Scenarios expected to pass the identity check; the remaining bundled one
# is a negative control that deliberately breaks the protocol.
POSITIVE_SCENARIO_NAMES = ("all_pass", "single_drop")


def parse_table(doc: Any, source: str = "<table>") -> List[TableCase]:
    """The cases of one table document (a list of records, or an object
    whose ``cases`` is one); a malformed document is a ValueError naming
    `source`, the case and the field.

    Field names are checked once per record layout, the tuple of a record's
    keys, since missing and unknown fields depend on the keys alone; every
    value is checked in every record.  Each distinct literal text is parsed
    once per document: tables draw their states, inputs and outputs from a
    small alphabet, and every parsed value is immutable, so cases may share
    one value object.  `doc` is not changed.
    """
    return _table_cases(doc, source, drop=False)


def _table_cases(doc: Any, source: str, drop: bool) -> List[TableCase]:
    """`parse_table` of `doc`; with `drop`, each record is replaced by None
    in its list once its case is built, so that a caller who owns `doc`
    holds no record and its case at once."""
    if isinstance(doc, dict):
        records = doc.get("cases")
        if not isinstance(records, list):
            raise ValueError(f"{source}: table field 'cases': must be a list")
    elif isinstance(doc, list):
        records = doc
    else:
        raise ValueError(f"{source}: table document must be a JSON object or list")

    # Record layout -> its fields that must hold strings, for layouts whose
    # field names passed.
    layouts: Dict[Tuple[Any, ...], Tuple[str, ...]] = {}
    # Literal text -> parsed value, for successful parses only: a failure is
    # never stored, and a non-string field (which parse_value rejects) is
    # never a key.
    parsed: Dict[str, Any] = {}
    first_index: Dict[str, int] = {}
    cases = []
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            raise ValueError(f"{source}: record {index} is not an object")
        label = record["id"] if "id" in record else f"record-{index}"
        layout = tuple(record)
        string_fields = layouts.get(layout)
        if string_fields is None:
            for key in ("id", "machine", "start", "input", "expectState", "expectOutputs"):
                if key not in record:
                    raise ValueError(f"{source}: case {label!r}: missing field {key!r}")
            for key in record:
                if key not in ("id", "machine", "start", "input", "expectState",
                               "expectOutputs", "note", "comment"):
                    raise ValueError(f"{source}: case {label!r}: unknown field {key!r}")
            string_fields = tuple(k for k in ("id", "note", "comment") if k in record)
            layouts[layout] = string_fields
        for key in string_fields:
            if not isinstance(record[key], str):
                raise ValueError(f"{source}: case {label!r}: field {key!r}: must be a string, "
                                 f"not {type(record[key]).__name__}")
        first = first_index.setdefault(label, index)
        if first != index:
            raise ValueError(f"{source}: case {label!r}: duplicate id "
                             f"(records {first} and {index})")
        machine = record["machine"]
        if not isinstance(machine, str) or machine not in MACHINES:
            raise ValueError(
                f"{source}: case {label!r}: field 'machine': unknown machine {machine!r} "
                f"(known: {', '.join(sorted(MACHINES))})"
            )

        values = []
        # expectOutputs first: its shape is checked before start is read.
        for key in ("expectOutputs", "start", "input", "expectState"):
            text = record[key]
            try:
                value = parsed[text]
            except (KeyError, TypeError):  # not parsed yet, or not even hashable
                try:
                    value = parsed[text] = parse_value(text)
                except ValueError as exc:
                    raise ValueError(f"{source}: case {label!r}: field {key!r}: {exc}") from None
            if not values and not isinstance(value, tuple):
                raise ValueError(
                    f"{source}: case {label!r}: field 'expectOutputs': must be a sequence literal"
                )
            values.append(value)
        outputs, start, item, expected = values
        cases.append(TableCase(machine, TransitionCase(label, start, item, expected, outputs),
                               record.get("note", record.get("comment", ""))))
        if drop:
            records[index] = None
    return cases


def _bundled_text(kind: str, name: str) -> str:
    # The loader reads package data from the directory or the zip archive
    # the package was imported from.
    path = os.path.join(os.path.dirname(__file__), kind, f"{name}.json")
    return __spec__.loader.get_data(path).decode("utf-8")


def bundled_table(name: str) -> List[TableCase]:
    if name not in BUNDLED_TABLE_NAMES:
        raise ValueError(f"no bundled table {name!r}")
    return parse_table(json.loads(_bundled_text("tables", name)), source=f"bundled:{name}")


def bundled_tables() -> List[TableCase]:
    cases = []
    for name in BUNDLED_TABLE_NAMES:
        cases.extend(bundled_table(name))
    return cases


def _load_json(path, object_hook=None):
    """The JSON document in the file at `path`, each of its objects passed
    through `object_hook` if one is given; nesting too deep for the decoder
    is a ValueError, like any other malformed document."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle, object_hook=object_hook)
        except RecursionError:
            raise ValueError("JSON document nests too deeply") from None


_SHARED_FIELDS = ("machine", "start", "input", "expectState", "expectOutputs")


def _text_sharing_hook():
    """An object hook that makes the string values of the machine and
    literal fields one object per distinct text, for one decode.

    A table holds each record's texts while it is decoded and parsed, and
    draws them from a small alphabet: sharing them keeps one copy of each
    instead of one per record.  Ids are unique and need no sharing; a value
    that is not a string is left alone, since ``1 == True`` would merge
    them."""
    share = {}.setdefault

    def hook(obj):
        for key in _SHARED_FIELDS:
            value = obj.get(key)
            if value.__class__ is str:
                obj[key] = share(value, value)
        return obj

    return hook


def load_table_file(path) -> List[TableCase]:
    """The cases of the table file at `path`; a malformed file is a
    ValueError whose message starts with the path.  Equal machine names and
    literal texts share one string while the file is decoded, and each
    record is dropped once its case is built."""
    source = str(path)
    try:
        doc = _load_json(path, _text_sharing_hook())
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    return _table_cases(doc, source, drop=True)


def bundled_scenario(name: str) -> ScenarioSpec:
    if name not in BUNDLED_SCENARIO_NAMES:
        raise ValueError(
            f"no bundled scenario {name!r} (known: {', '.join(BUNDLED_SCENARIO_NAMES)})"
        )
    return ScenarioSpec.from_dict(json.loads(_bundled_text("scenarios", name)))


def load_scenario_file(path) -> ScenarioSpec:
    return ScenarioSpec.from_dict(_load_json(path))


def bundled_path_cases() -> List[Tuple[str, PathCase]]:
    """Path cases over the sender: send one payload, then take the matching
    ack; checked once on states, once on concatenated outputs."""
    send_then_ack = (3, True)
    return [
        ("sender", PathCase(
            id="p_send_ack_states",
            start_state=(True, ()),
            inputs=send_then_ack,
            mode=STATES_ONLY,
            expectation=((True, (3,)), (False, ())),
        )),
        ("sender", PathCase(
            id="p_send_ack_outputs",
            start_state=(True, ()),
            inputs=send_then_ack,
            mode=OUTPUTS_ONLY,
            expectation=(MsgO((True, 3)), SetTimer(3), SetTimer(-1)),
        )),
    ]
