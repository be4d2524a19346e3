"""Small literal grammar for test tables and trace payloads.

Values are booleans (``true``/``false``), integers, sequences ``[a, b, c]``
(parsed as tuples), and tagged values: ``Tick``, ``Timeout``, ``Msg(x)``,
``MsgI(x)``, ``MsgO(x)``, ``FromA(x)``, ``FromB(x)``, ``SetTimer(n)`` and
``Oracle([bits], position)``.  A tag applied to several arguments wraps the
argument tuple, so ``MsgO(true,3)`` is the signed message (true, 3) inside
MsgO.  Machine states fit the same grammar: a sender state is written
``[true,[3,4]]``.

parse_value reads the text in one tokenizer pass and builds the value in one
loop over an explicit stack of open sequences and tags, so deep nesting never
recurses; text nested more than 100 levels deep is a LiteralError.  Three
common shapes are each one token, so the loop takes one step for each
instead of one per bracket, comma and item:

* a flat run, a non-empty sequence of only integers (``[3,4,5]``) or only
  booleans (``[true,false]``), which the tokenizer converts to its tuple in C;
* a tag other than ``Oracle`` applied to integer or boolean arguments only
  (``MsgO(true,3)``, ``SetTimer(3)``);
* an explicit oracle with a non-empty bit run and a position
  (``Oracle([true,false],1)``).

A tag token keeps its argument text, and the loop converts it and checks it
when it reaches the token, so every error is raised in the order a
token-by-token reading would raise it.  Any other sequence or tag is read
token by token.

parse_value and format_value are inverse on grammar-representable values.
Values outside the grammar (closures, foreign objects) format as Python
reprs when ``strict`` is off, which is how the CLI renders every trace and
report; strict mode (the default) raises instead.
"""

from __future__ import annotations

import re
from itertools import repeat
from typing import Any, List, Tuple

from .abp import OracleCursor, OracleSpec
from .runtime import FromA, FromB, MsgI, MsgO, SetTimer, TimeoutEvent
from .streams import Msg, Tick


class LiteralError(ValueError):
    """Text does not conform to the literal grammar."""


# Deepest nesting of sequences and tags parse_value accepts; deeper text is
# a LiteralError.  The parser keeps its own stack, but format_value, repr
# and == on the parsed value recurse once or twice per level, so this keeps
# them well inside Python's stack.
_MAX_DEPTH = 100

# One token after optional whitespace.  The groups catch, in order: the
# inside of a flat run of integers or of booleans; a tag other than Oracle
# and the inside of its argument list of integers and booleans; the inside
# of an explicit oracle's bit run and its position; a single token; and the
# first character that starts no token.  Every alternative allows r"\s"
# wherever the grammar does.
_SCALARS = r"(\s*(?:-?\d+|true|false)\s*(?:,\s*(?:-?\d+|true|false)\s*)*)"
_BITS = r"(\s*(?:true|false)\s*(?:,\s*(?:true|false)\s*)*)"
_TOKEN = re.compile(
    r"\s*(?:\[(\s*-?\d+\s*(?:,\s*-?\d+\s*)*)\]"
    rf"|\[{_BITS}\]"
    rf"|(Msg[IO]?|From[AB]|SetTimer)\s*\({_SCALARS}\)"
    rf"|Oracle\s*\(\s*\[{_BITS}\]\s*,\s*(-?\d+)\s*\)"
    r"|(-?\d+|[A-Za-z_][A-Za-z0-9_]*|[\[\](),])|(\S))"
)

_BOOLS = {"true": True, "false": False}
_ATOMS = {**_BOOLS, "Tick": Tick, "Timeout": TimeoutEvent}
_WRAPPERS = {"Msg": Msg, "MsgI": MsgI, "MsgO": MsgO, "FromA": FromA, "FromB": FromB}
_TAGS = {*_WRAPPERS, "SetTimer", "Oracle"}


def _tagged(tag: str, args: List[Any]) -> Any:
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
        if not all(map(isinstance, args[0], repeat(bool))):
            raise LiteralError(f"Oracle bits must be booleans, got {args[0]!r}")
        # Checked booleans already: the spec keeps the parsed tuple itself.
        return OracleCursor(OracleSpec("explicit", args[0]), position)
    return _WRAPPERS[tag](args[0] if len(args) == 1 else tuple(args))


def _bits(run: str) -> Tuple[bool, ...]:
    # Built from a list: a tuple built from an iterator may keep spare slots.
    return tuple([*map(_BOOLS.__getitem__, map(str.strip, run.split(",")))])


def _shown(token: Any) -> str:
    """A token as error messages quote it: a flat run as the "[" opening it,
    a tag token as its tag."""
    if token.__class__ is tuple:
        return "'['"
    if token.__class__ is list:
        return repr(token[0])
    return repr(token)


def _unexpected(token: Any, wanted: str, text: str) -> LiteralError:
    if token is None:
        return LiteralError(f"unexpected end of input in {text!r}")
    return LiteralError(f"expected {wanted} but found {_shown(token)} in {text!r}")


def _depth_error() -> LiteralError:
    return LiteralError(f"literal nests deeper than {_MAX_DEPTH} levels")


def parse_value(text: str) -> Any:
    """Parse one literal; trailing tokens are an error."""
    if not isinstance(text, str):
        raise LiteralError(f"expected a literal string, got {text!r}")
    # A token is a string, the ready tuple of a flat run, or a tag token: the
    # list [tag, argument text], or ["Oracle", bit run text, position text].
    tokens: List[Any] = []
    append = tokens.append
    for ints, bools, tag, args, bits, position, token, stray in _TOKEN.findall(text):
        if token:
            append(token)
        elif tag:
            append([tag, args])
        elif bits:
            append(["Oracle", bits, position])
        elif ints:
            # Stripped first: int() does not strip "\x1c" to "\x1f", which
            # r"\s" matches.
            items = [*map(str.strip, ints.split(","))]
            try:
                append(tuple([*map(int, items)]))
            except ValueError:
                # An item past int's digit limit: keep the run's own tokens,
                # so that the loop raises int's error in order.
                append("[")
                for item in items:
                    tokens += (item, ",")
                tokens[-1] = "]"
        elif bools:
            append(_bits(bools))
        else:
            # The first stray character: scan again for its position.
            at = next(m.start(8) for m in _TOKEN.finditer(text) if m.group(8))
            raise LiteralError(f"unexpected character {stray!r} at position {at} in {text!r}")
    end = len(tokens)
    append(None)  # reading this sentinel means the text ended early

    # One (opener, items) frame per open sequence "[" or tag; the nesting
    # depth is the stack's length.
    stack: List[Tuple[str, List[Any]]] = []
    pos = 0
    while True:
        token = tokens[pos]
        pos += 1
        cls = token.__class__
        if cls is tuple:  # a flat run is one level deeper, as "["
            if len(stack) == _MAX_DEPTH:
                raise _depth_error()
            value = token
        elif cls is list:
            # A tag token is one level deeper, as its tag; an oracle token
            # two, as its bit run is one level below the tag.
            tag = token[0]
            if tag == "Oracle":
                if len(stack) >= _MAX_DEPTH - 1:
                    raise _depth_error()
                value = _tagged(tag, [_bits(token[1]), int(token[2])])
            else:
                if len(stack) == _MAX_DEPTH:
                    raise _depth_error()
                value = _tagged(tag, [_BOOLS[arg] if arg in _BOOLS else int(arg)
                                      for arg in map(str.strip, token[1].split(","))])
        elif token == "[" or token in _TAGS:
            if len(stack) == _MAX_DEPTH:
                raise _depth_error()
            if token == "[" and tokens[pos] == "]":
                pos += 1
                value = ()
            else:
                if token != "[":
                    if tokens[pos] != "(":
                        raise _unexpected(tokens[pos], "'('", text)
                    pos += 1
                stack.append((token, []))
                continue
        elif token in _ATOMS:
            value = _ATOMS[token]
        elif token is None:
            raise _unexpected(token, "a value", text)
        elif token[0] == "-" or token[0].isdecimal():  # as r"\d", any Unicode digit
            value = int(token)
        else:
            raise LiteralError(f"unknown token {token!r} in {text!r}")
        # A complete value: add it to the innermost frame, closing frames
        # for as long as the next token ends them.
        while stack:
            opener, items = stack[-1]
            items.append(value)
            token = tokens[pos]
            pos += 1
            if token == ",":
                break
            closer = "]" if opener == "[" else ")"
            if token != closer:
                raise _unexpected(token, f"',' or {closer!r}", text)
            stack.pop()
            value = tuple(items) if opener == "[" else _tagged(opener, items)
        else:
            if pos != end:
                raise LiteralError(f"trailing input {_shown(tokens[pos])} in {text!r}")
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
