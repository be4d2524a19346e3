"""Small literal grammar for test tables and trace payloads.

Values are booleans (``true``/``false``), integers, sequences ``[a, b, c]``
(parsed as tuples), and tagged values: ``Tick``, ``Timeout``, ``Msg(x)``,
``MsgI(x)``, ``MsgO(x)``, ``FromA(x)``, ``FromB(x)``, ``SetTimer(n)`` and
``Oracle([bits], position)``.  A tag applied to several arguments wraps the
argument tuple, so ``MsgO(true,3)`` is the signed message (true, 3) inside
MsgO.  Machine states fit the same grammar: a sender state is written
``[true,[3,4]]``.

parse_value and format_value are inverse on grammar-representable values.
Values outside the grammar (closures, foreign objects) format as Python
reprs when ``strict`` is off, which is how the CLI renders every trace and
report; strict mode (the default) raises instead.
"""

from __future__ import annotations

import re
from typing import Any, Iterator, List, Tuple

from .abp import OracleCursor, OracleSpec
from .runtime import FromA, FromB, MsgI, MsgO, SetTimer, TimeoutEvent
from .streams import Msg, Tick


class LiteralError(ValueError):
    """Text does not conform to the literal grammar."""


# Deepest nesting of sequences and tags parse_value accepts; deeper text is
# a LiteralError.  The parser recurses twice per level, so this keeps it
# well inside Python's stack.
_MAX_DEPTH = 100

_TOKEN = re.compile(r"\s*(-?\d+|[A-Za-z_][A-Za-z0-9_]*|[\[\](),])")

# Tags taking no arguments map straight to their singletons.
_NULLARY = {"Tick": Tick, "Timeout": TimeoutEvent}
_WRAPPERS = {"Msg": Msg, "MsgI": MsgI, "MsgO": MsgO, "FromA": FromA, "FromB": FromB}
_KEYWORDS = {"true": True, "false": False}


def _tokenize(text: str) -> List[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise LiteralError(f"unexpected character {rest[0]!r} at position {pos} in {text!r}")
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: List[str], text: str):
        self.tokens = tokens
        self.text = text
        self.index = 0

    def peek(self) -> str:
        if self.index >= len(self.tokens):
            raise LiteralError(f"unexpected end of input in {self.text!r}")
        return self.tokens[self.index]

    def next(self) -> str:
        token = self.peek()
        self.index += 1
        return token

    def expect(self, token: str):
        got = self.next()
        if got != token:
            raise LiteralError(f"expected {token!r} but found {got!r} in {self.text!r}")

    def deeper(self, depth: int) -> int:
        if depth == _MAX_DEPTH:
            raise LiteralError(f"literal nests deeper than {_MAX_DEPTH} levels")
        return depth + 1

    def value(self, depth: int = 0) -> Any:
        """One value; `depth` counts the sequences and tags around it."""
        token = self.next()
        if token == "[":
            return self.sequence(self.deeper(depth))
        if re.fullmatch(r"-?\d+", token):
            return int(token)
        if token in _KEYWORDS:
            return _KEYWORDS[token]
        if token in _NULLARY:
            return _NULLARY[token]
        if token in _WRAPPERS or token in ("SetTimer", "Oracle"):
            return self.tagged(token, self.deeper(depth))
        raise LiteralError(f"unknown token {token!r} in {self.text!r}")

    def sequence(self, depth: int) -> tuple:
        items = []
        if self.peek() == "]":
            self.next()
            return ()
        while True:
            items.append(self.value(depth))
            token = self.next()
            if token == "]":
                return tuple(items)
            if token != ",":
                raise LiteralError(f"expected ',' or ']' but found {token!r} in {self.text!r}")

    def tagged(self, tag: str, depth: int) -> Any:
        self.expect("(")
        args = [self.value(depth)]
        while True:
            token = self.next()
            if token == ")":
                break
            if token != ",":
                raise LiteralError(f"expected ',' or ')' but found {token!r} in {self.text!r}")
            args.append(self.value(depth))
        if tag == "SetTimer":
            if len(args) != 1 or not isinstance(args[0], int) or isinstance(args[0], bool):
                raise LiteralError(f"SetTimer takes one integer argument, got {args!r}")
            return SetTimer(args[0])
        if tag == "Oracle":
            if len(args) not in (1, 2) or not isinstance(args[0], tuple):
                raise LiteralError(f"Oracle takes a bit sequence and an optional position, got {args!r}")
            position = args[1] if len(args) == 2 else 0
            if not isinstance(position, int) or isinstance(position, bool) or position < 0:
                raise LiteralError(f"Oracle position must be a non-negative integer, got {position!r}")
            if not all(isinstance(b, bool) for b in args[0]):
                raise LiteralError(f"Oracle bits must be booleans, got {args[0]!r}")
            return OracleCursor(OracleSpec.explicit(args[0]), position)
        payload = args[0] if len(args) == 1 else tuple(args)
        return _WRAPPERS[tag](payload)


def parse_value(text: str) -> Any:
    """Parse one literal; trailing tokens are an error."""
    if not isinstance(text, str):
        raise LiteralError(f"expected a literal string, got {text!r}")
    parser = _Parser(_tokenize(text), text)
    value = parser.value()
    if parser.index != len(parser.tokens):
        raise LiteralError(f"trailing input {parser.tokens[parser.index]!r} in {text!r}")
    return value


def _format_payload_args(payload: Any, strict: bool) -> str:
    # Tuple payloads of length >= 2 spread across the argument list, so a
    # signed message renders as MsgO(true,3) rather than MsgO([true,3]).
    if isinstance(payload, tuple) and len(payload) >= 2:
        return ",".join(format_value(v, strict=strict) for v in payload)
    return format_value(payload, strict=strict)


def format_value(value: Any, *, strict: bool = True) -> str:
    if value is Tick:
        return "Tick"
    if value is TimeoutEvent:
        return "Timeout"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, SetTimer):
        return f"SetTimer({value.slots})"
    for tag, cls in _WRAPPERS.items():
        if isinstance(value, cls):
            return f"{tag}({_format_payload_args(value.payload, strict)})"
    if isinstance(value, OracleCursor):
        if value.spec.kind == "explicit":
            bits = format_value(value.spec.bits, strict=strict)
            return f"Oracle({bits},{value.position})"
        if strict:
            raise LiteralError(f"only explicit oracle cursors have a literal form, got {value!r}")
        return repr(value)
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(format_value(v, strict=strict) for v in value) + "]"
    if strict:
        raise LiteralError(f"value {value!r} has no literal form")
    return repr(value)
