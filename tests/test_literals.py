import hashlib
import json
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abpsim import (
    FromA,
    FromB,
    LiteralError,
    Msg,
    MsgI,
    MsgO,
    OracleCursor,
    OracleSpec,
    SetTimer,
    Tick,
    TimeoutEvent,
    format_value,
    parse_value,
)
from abpsim import golden, literals
from abpsim.literals import _TOKEN


@pytest.mark.parametrize("text,value", [
    ("true", True),
    ("false", False),
    ("0", 0),
    ("-17", -17),
    ("[]", ()),
    ("[1,2,3]", (1, 2, 3)),
    ("[true,[3,4]]", (True, (3, 4))),
    ("Tick", Tick),
    ("Timeout", TimeoutEvent),
    ("Msg(7)", Msg(7)),
    ("Msg(true,7)", Msg((True, 7))),
    ("MsgI(FromA(3))", MsgI(FromA(3))),
    ("MsgO(false,4)", MsgO((False, 4))),
    ("FromB(true)", FromB(True)),
    ("SetTimer(3)", SetTimer(3)),
    ("SetTimer(-1)", SetTimer(-1)),
    ("Oracle([true,false],1)", OracleCursor(OracleSpec.explicit([True, False]), 1)),
    ("Oracle([false])", OracleCursor(OracleSpec.explicit([False]), 0)),
])
def test_parse_value_examples(text, value):
    assert parse_value(text) == value


def test_parse_tolerates_whitespace():
    assert parse_value(" [ true , [ 3 , 4 ] ] ") == (True, (3, 4))
    assert parse_value("MsgO( true , 3 )") == MsgO((True, 3))


def test_parse_distinguishes_bools_from_ints():
    assert parse_value("1") == 1 and parse_value("1") is not True
    assert parse_value("true") is True


@pytest.mark.parametrize("text", [
    "",
    "Msg()",
    "Msg(1",
    "[1,",
    "[1 2]",
    "true false",
    "flurb",
    "SetTimer(true)",
    "SetTimer(1,2)",
    "Oracle(3)",
    "Oracle([1],0)",
    "Oracle([true],-1)",
    "Oracle([true],0,9)",
    "Msg(@)",
])
def test_parse_rejects_malformed_text(text):
    with pytest.raises(LiteralError):
        parse_value(text)


@pytest.mark.parametrize("text,position", [("[1] @", 4), ("  @", 2), ("[1,  @]", 5), ("@", 0)])
def test_stray_character_position_is_its_own_index(text, position):
    with pytest.raises(LiteralError) as err:
        parse_value(text)
    assert str(err.value) == f"unexpected character '@' at position {position} in {text!r}"


def test_parse_accepts_100_nesting_levels():
    sequences, messages = (), 1
    for _ in range(99):
        sequences = (sequences,)
    for _ in range(100):
        messages = Msg(messages)
    assert parse_value("[" * 100 + "]" * 100) == sequences
    assert parse_value("Msg(" * 100 + "1" + ")" * 100) == messages


@pytest.mark.parametrize("text", [
    "[" * 101 + "]" * 101,
    "[" * 5000 + "]" * 5000,
    "Msg(" * 5000 + "1" + ")" * 5000,
    "[" * 100_000,
], ids=["101-sequences", "5000-sequences", "5000-tags", "100000-unclosed"])
def test_parse_rejects_nesting_deeper_than_100_levels(text):
    with pytest.raises(LiteralError, match="nests deeper than 100 levels"):
        parse_value(text)


def test_format_booleans_before_integers():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(1) == "1"


def test_format_spreads_wide_tuple_payloads():
    assert format_value(MsgO((True, 3))) == "MsgO(true,3)"
    assert format_value(Msg((1, 2, 3))) == "Msg(1,2,3)"
    # Short tuple payloads stay bracketed so the text re-parses to the
    # same value instead of collapsing.
    assert format_value(Msg((7,))) == "Msg([7])"
    assert format_value(Msg(())) == "Msg([])"


def test_format_sequences_and_states():
    assert format_value((True, (3, 4))) == "[true,[3,4]]"
    assert format_value([1, [2]]) == "[1,[2]]"
    assert format_value(()) == "[]"


def test_format_oracle_cursors():
    cursor = OracleCursor(OracleSpec.explicit([True, False]), 1)
    assert format_value(cursor) == "Oracle([true,false],1)"
    bernoulli = OracleSpec.bernoulli(0.5, 0).cursor()
    with pytest.raises(LiteralError):
        format_value(bernoulli)
    assert "OracleCursor" in format_value(bernoulli, strict=False)


def test_format_strict_rejects_foreign_values():
    with pytest.raises(LiteralError):
        format_value(None)
    with pytest.raises(LiteralError):
        format_value({"a": 1})
    assert format_value(None, strict=False) == "None"


atoms = st.one_of(
    st.booleans(),
    st.integers(-999, 999),
    st.just(Tick),
    st.just(TimeoutEvent),
    st.builds(SetTimer, st.integers(-5, 5)),
    st.builds(
        OracleCursor,
        st.lists(st.booleans(), max_size=4).map(OracleSpec.explicit),
        st.integers(0, 9),
    ),
)

values = st.recursive(
    atoms,
    lambda children: st.one_of(
        st.lists(children, max_size=3).map(tuple),
        children.map(Msg),
        children.map(MsgI),
        children.map(MsgO),
        children.map(FromA),
        children.map(FromB),
    ),
    max_leaves=12,
)


@given(values)
def test_format_parse_round_trip(value):
    assert parse_value(format_value(value)) == value


# Grammar tokens, three times over, and a few strays; joined with no
# separator, neighbours fuse into longer numbers or identifiers.
_SOUP = 3 * [
    "[", "]", "(", ")", ",", "[", "]", "(", ")", ",",
    "true", "false", "0", "7", "-3", "12", "Tick", "Timeout",
    "Msg", "MsgI", "MsgO", "FromA", "FromB", "SetTimer", "Oracle",
] + ["flurb", "_x1", "@", "-", "\u0663", " ", "\n"]
_TAGS = ["Msg", "MsgI", "MsgO", "FromA", "FromB", "SetTimer", "Oracle"]


def _random_literal(rng, depth=0):
    kind = rng.randrange(4 if depth < 4 else 2)
    if kind == 0:
        return rng.choice(["true", "false", "Tick", "Timeout", str(rng.randint(-9, 99))])
    if kind == 1:
        return "[" + ",".join(rng.choice(["true", "false"]) for _ in range(rng.randrange(4))) + "]"
    args = [_random_literal(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 2:
        return "[" + ",".join(args) + "]"
    return rng.choice(_TAGS) + "(" + ",".join(args) + ")"


def _corpus():
    """20,000 token strings, 10,000 tagged literals (half of them with one
    edit), and texts at and past the nesting limit."""
    rng = random.Random(8)
    for _ in range(20_000):
        sep = rng.choice(["", "", " ", "\t"])
        yield sep.join(rng.choice(_SOUP) for _ in range(rng.randint(1, 12)))
    for _ in range(10_000):
        text = _random_literal(rng)
        if rng.random() < 0.5:
            cut = rng.randrange(len(text) + 1)
            text = text[:cut] + rng.choice(["", ",", "]", ")", "(", "1", " "]) + text[cut + rng.randrange(2):]
        yield text
    for n in (99, 100, 101):
        yield "[" * n + "]" * n
        yield "Msg(" * n + "1" + ")" * n
        yield "[" * n
        yield "Msg(" * n
        yield "[" * n + "Msg"
        yield "[" * n + "Msg[1]"
        yield "[" * n + "@"
        yield "Msg(" * n + "true" + ")" * n + "]"
    yield "[" * 5000 + "]" * 5000
    yield "Msg(" * 5000 + "1" + ")" * 5000
    yield "[" * 100_000


def _outcome(text, parse=parse_value):
    try:
        return repr(parse(text))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_parse_value_outcomes_are_pinned():
    # Every value's repr and every error's class and message, in corpus
    # order: the parser's behaviour down to the wording and the order in
    # which it checks things (a stray character before any parse error,
    # the depth limit before a tag's "(").
    digest = hashlib.sha256()
    for text in _corpus():
        digest.update(f"{text!r}\t{_outcome(text)}\n".encode())
    assert digest.hexdigest() == "172f76141039742b9151e5b0f12433ae83f6f384afb43048b57eaeaa29d04c23"


def _value_errors_only(text):
    try:
        parse_value(text)
    except ValueError:  # LiteralError included
        pass


@given(st.text())
def test_parse_value_raises_only_value_errors_on_any_text(text):
    _value_errors_only(text)


@given(st.lists(st.sampled_from(_SOUP + ["\t", "x", "99999999999999999999"]), max_size=30))
def test_parse_value_raises_only_value_errors_on_token_soup(tokens):
    _value_errors_only("".join(tokens))


# ------------------------------------------------------------- flat runs

# A flat run, "[" items "]" of only integers or only booleans, is one token
# that the tokenizer converts whole; it must read as its items one by one.
_SPACE = st.text(st.sampled_from([" ", "\t", "\n", "\r", "\f", "\v", "\u2003", "\u00a0", "\x1c"]),
                 max_size=2)
_INT_ITEMS = st.builds(lambda sign, digits: sign + digits, st.sampled_from(["", "-"]),
                       st.text(st.sampled_from("0123456789\u0663\u0966"), min_size=1, max_size=4))
_FLAT_ITEMS = st.lists(_INT_ITEMS, min_size=1, max_size=6) | st.lists(
    st.sampled_from(["true", "false"]), min_size=1, max_size=6)


@st.composite
def _flat_runs(draw):
    """(text of a flat run with whitespace around its items, its items)."""
    items = draw(_FLAT_ITEMS)
    return "[" + ",".join(draw(_SPACE) + item + draw(_SPACE) for item in items) + "]", items


@given(_flat_runs())
def test_flat_run_reads_as_its_items(run):
    text, items = run
    expected = tuple(parse_value(item) for item in items)
    # repr tells true from 1, which == does not.
    assert repr(parse_value(text)) == repr(expected)
    assert len(_TOKEN.findall(text)) == 1


@given(_flat_runs(), st.integers(0, 9))
def test_flat_run_reads_as_its_items_one_level_down(run, position):
    text, items = run
    expected = tuple(parse_value(item) for item in items)
    assert repr(parse_value(f"[true,{text}]")) == repr((True, expected))
    oracle = f"Oracle({text},{position})"
    if all(isinstance(bit, bool) for bit in expected):
        assert parse_value(oracle) == OracleCursor(OracleSpec.explicit(expected), position)
    else:
        with pytest.raises(LiteralError, match="Oracle bits must be booleans"):
            parse_value(oracle)


@pytest.mark.parametrize("text,value", [
    ("[007,-0,\u0663]", (7, 0, 3)),
    ("[ true , false\x1c]", (True, False)),
    ("[true,3]", (True, 3)),
    ("[[1,2],[true]]", ((1, 2), (True,))),
])
def test_flat_run_examples(text, value):
    assert repr(parse_value(text)) == repr(value)


@pytest.mark.parametrize("text,message", [
    ("Msg[1,2]", "expected '(' but found '[' in 'Msg[1,2]'"),
    ("1 [2,3]", "trailing input '[' in '1 [2,3]'"),
    ("[1 [2,3]]", "expected ',' or ']' but found '[' in '[1 [2,3]]'"),
    ("[1 2]", "expected ',' or ']' but found '2' in '[1 2]'"),
    ("[1,2", "unexpected end of input in '[1,2'"),
])
def test_flat_run_errors_name_its_opening_bracket(text, message):
    with pytest.raises(LiteralError) as err:
        parse_value(text)
    assert str(err.value) == message


@pytest.mark.parametrize("run", ["[1,2]", "[true]"])
def test_flat_run_counts_as_one_nesting_level(run):
    nested = (1, 2) if run == "[1,2]" else (True,)
    for _ in range(99):
        nested = (nested,)
    assert parse_value("[" * 99 + run + "]" * 99) == nested
    with pytest.raises(LiteralError, match="nests deeper than 100 levels"):
        parse_value("[" * 100 + run + "]" * 100)


def test_flat_run_past_the_int_digit_limit_fails_where_its_item_would():
    # Past int's digit limit the item's error comes from the parse loop, so
    # checks that come first in the text still come first.
    big = "9" * 5000
    try:
        expected = repr((int(big),))
    except ValueError as exc:
        expected = f"ValueError: {exc}"
    assert _outcome(f"[ {big} ]") == expected
    assert _outcome(f"[{big}] @") == (
        f"LiteralError: unexpected character '@' at position {len(big) + 3} in '[{big}] @'")
    assert _outcome(f"true [{big}]") == f"LiteralError: trailing input '[' in 'true [{big}]'"
    assert _outcome("[" * 100 + f"[{big}]" + "]" * 100) == (
        "LiteralError: literal nests deeper than 100 levels")


# ------------------------------------------------ the token-by-token reader

# The straightforward reader: one token per bracket, comma, item and tag, so
# no token stands for a flat run or a tag's argument list, and the same
# loop over an explicit stack.  parse_value must agree with it on every
# text: values by repr, errors by class and message.
_REFERENCE_TOKEN = re.compile(r"\s*(?:(-?\d+|[A-Za-z_][A-Za-z0-9_]*|[\[\](),])|(\S))")


def _reference_parse(text):
    tokens = []
    for match in _REFERENCE_TOKEN.finditer(text):
        token, stray = match.groups()
        if stray is not None:
            raise LiteralError(f"unexpected character {stray!r} at position {match.start(2)} "
                               f"in {text!r}")
        tokens.append(token)
    end = len(tokens)
    tokens.append(None)

    def unexpected(token, wanted):
        if token is None:
            return LiteralError(f"unexpected end of input in {text!r}")
        return LiteralError(f"expected {wanted} but found {token!r} in {text!r}")

    stack = []
    pos = 0
    while True:
        token = tokens[pos]
        pos += 1
        if token == "[" or token in literals._TAGS:
            if len(stack) == literals._MAX_DEPTH:
                raise LiteralError(f"literal nests deeper than {literals._MAX_DEPTH} levels")
            if token == "[" and tokens[pos] == "]":
                pos += 1
                value = ()
            else:
                if token != "[":
                    if tokens[pos] != "(":
                        raise unexpected(tokens[pos], "'('")
                    pos += 1
                stack.append((token, []))
                continue
        elif token in literals._ATOMS:
            value = literals._ATOMS[token]
        elif token is None:
            raise unexpected(token, "a value")
        elif token[0] == "-" or token[0].isdecimal():
            value = int(token)
        else:
            raise LiteralError(f"unknown token {token!r} in {text!r}")
        while stack:
            opener, items = stack[-1]
            items.append(value)
            token = tokens[pos]
            pos += 1
            if token == ",":
                break
            closer = "]" if opener == "[" else ")"
            if token != closer:
                raise unexpected(token, f"',' or {closer!r}")
            stack.pop()
            value = tuple(items) if opener == "[" else literals._tagged(opener, items)
        else:
            if pos != end:
                raise LiteralError(f"trailing input {tokens[pos]!r} in {text!r}")
            return value


def test_parse_value_agrees_with_the_reference_on_the_pinned_corpus():
    for text in _corpus():
        assert _outcome(text) == _outcome(text, _reference_parse), text


_GAPS = st.sampled_from(["", "", "", " ", "\t", "\x1c", "\u2003"])
_INTS = st.builds(lambda sign, digits: sign + digits, st.sampled_from(["", "", "-"]),
                  st.text(st.sampled_from("0123456789\u0663"), min_size=1, max_size=3))
_BITS = st.sampled_from(["true", "false"])


def _joined(gap, items):
    return f"{gap},{gap}".join(items)


_ORACLE_TEXTS = st.builds(
    lambda gap, bits, position:
        f"Oracle({gap}[{gap}{_joined(gap, bits)}{gap}]{gap},{gap}{position}{gap})",
    _GAPS, st.lists(_BITS, max_size=4), _INTS)
_LITERAL_TEXTS = st.recursive(
    _INTS | _BITS | st.sampled_from(["Tick", "Timeout"]) | _ORACLE_TEXTS,
    lambda children: (
        st.builds(lambda gap, items: f"[{gap}{_joined(gap, items)}{gap}]",
                  _GAPS, st.lists(children, max_size=4))
        | st.builds(lambda tag, gap, items: f"{tag}{gap}({gap}{_joined(gap, items)}{gap})",
                    st.sampled_from(_TAGS), _GAPS, st.lists(children, min_size=1, max_size=3))),
    max_leaves=12,
)
_EDITS = st.sampled_from(list("[](),-07 tx@\x1c\u2003\u0663") + ["true", "Msg", "Oracle(["])


@st.composite
def _edited_literal_texts(draw):
    """A literal text with up to three characters inserted, deleted or
    appended."""
    text = draw(_LITERAL_TEXTS)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["insert", "delete", "append"]))
        at = draw(st.integers(0, len(text)))
        if kind == "insert":
            text = text[:at] + draw(_EDITS) + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text += draw(_EDITS)
    return text


_BIG = "9" * 4301


@settings(max_examples=400)
@given(_edited_literal_texts())
@example("[" * 99 + "Msg(1)" + "]" * 99)
@example("[" * 100 + "Msg(1)" + "]" * 100)
@example("[" * 98 + "Oracle([true],0)" + "]" * 98)
@example("[" * 99 + "Oracle([true],0)" + "]" * 99)
@example("SetTimer(true)")
@example("Oracle([true],-1)")
@example("Oracle([],0)")
@example("MsgOx(1)")
@example("Msg (1 , 2)")
@example("MsgO(\x1ctrue\u2003,\u0663\u0966)")
@example("Oracle(\u2003[\x1ctrue ,false\x1c]\u2003,\u0663)")
@example("1 Msg(2)")
@example("[1 2, Msg(" + _BIG + ")]")
@example("[Msg(" + _BIG + ")]")
@example("Oracle([true]," + _BIG + ")")
def test_parse_value_agrees_with_the_token_by_token_reader(text):
    assert _outcome(text) == _outcome(text, _reference_parse)



def _nested(value, levels):
    for _ in range(levels):
        value = (value,)
    return value


@pytest.mark.parametrize("text,outcome", [
    # A tag token is one level, as its tag; an oracle token two, as its
    # tag and bit run.
    ("[" * 99 + "Msg(1)" + "]" * 99, repr(_nested(Msg(1), 99))),
    ("[" * 100 + "Msg(1)" + "]" * 100, "LiteralError: literal nests deeper than 100 levels"),
    ("[" * 98 + "Oracle([true],0)" + "]" * 98,
     repr(_nested(OracleCursor(OracleSpec.explicit([True]), 0), 98))),
    ("[" * 99 + "Oracle([true],0)" + "]" * 99,
     "LiteralError: literal nests deeper than 100 levels"),
    # The argument checks run as the loop reaches the token.
    ("SetTimer(true)", "LiteralError: SetTimer takes one integer argument, got [True]"),
    ("Oracle([true],-1)", "LiteralError: Oracle position must be a non-negative integer, got -1"),
    ("[1 2, Msg(" + _BIG + ")]", "LiteralError: expected ',' or ']' but found '2' in "
     + repr("[1 2, Msg(" + _BIG + ")]")),
    # Error messages quote a tag token as its tag.
    ("1 Msg(2)", "LiteralError: trailing input 'Msg' in '1 Msg(2)'"),
    ("[1 Oracle([true],0)]",
     "LiteralError: expected ',' or ']' but found 'Oracle' in '[1 Oracle([true],0)]'"),
    ("Msg SetTimer(3)", "LiteralError: expected '(' but found 'SetTimer' in 'Msg SetTimer(3)'"),
    ("MsgOx(1)", "LiteralError: unknown token 'MsgOx' in 'MsgOx(1)'"),
    ("Msg (1 , 2)", repr(Msg((1, 2)))),
    ("MsgO(\x1ctrue\u2003,\u0663\u0966)", repr(MsgO((True, 30)))),
])
def test_tag_token_outcomes(text, outcome):
    assert _outcome(text) == outcome


@pytest.mark.parametrize("text", [
    "Msg(7)", "MsgO( true , 3 )", "FromA(-1)", "SetTimer(\u0663)", "MsgI(true,false,4)",
    "Oracle([true,false],1)", "Oracle ( [ false ] , 0 )",
])
def test_tag_of_scalar_arguments_and_explicit_oracle_are_one_token(text):
    assert len(_TOKEN.findall(text)) == 1


def test_bundled_tables_read_in_103_tokens():
    # A flat run, a tag of scalar arguments and an explicit oracle are one
    # token each: 215 tokens read token by token, 185 with flat runs alone.
    texts = {record[key]
             for name in golden.BUNDLED_TABLE_NAMES
             for record in json.loads(golden._bundled_text("tables", name))["cases"]
             for key in ("start", "input", "expectState", "expectOutputs")}
    assert sum(len(_TOKEN.findall(text)) for text in texts) == 103
    assert sum(len(_REFERENCE_TOKEN.findall(text)) for text in texts) == 215
