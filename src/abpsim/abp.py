"""The alternating bit protocol as executable machines.

A sender tags each payload with a bit that flips per acknowledged message,
pushes it through a lossy data medium, and a receiver echoes the bit back
through an equally lossy acknowledgement medium while writing fresh payloads
to its output.  Loss is driven by *oracles*: boolean streams deciding, per
message, whether a medium passes or drops it.  Composed with a one-tick
startup delay on the acknowledgement wire, the whole system is the identity
on untimed message histories -- that property is what the test kit checks.

States are plain values so they compare structurally: the sender state is
``(bit, buffer tuple)``, the receiver state is the expected bit, a medium
state is its oracle cursor.  Signed messages are ``(bit, payload)`` pairs.
"""

from __future__ import annotations

from _random import Random
from typing import Any, Mapping, Optional, Tuple

# The builtin SHA-512 that `random.seed` uses, found as `random` finds it.
# It is cheaper per call than OpenSSL's, and `hashlib` loads OpenSSL: with
# no module of the package importing it, `import abpsim.cli` under `python
# -I -S -B` peaks at 14.0 MB VmHWM against 17.7 MB (Python 3.11, x86-64).
try:
    from _sha2 import sha512  # Python 3.12 and later
except ImportError:
    try:
        from _sha512 import sha512
    except ImportError:
        from hashlib import sha512

from .runtime import (
    FromA,
    FromB,
    ModelError,
    MsgI,
    MsgO,
    NetworkSpec,
    SetTimer,
    TimeoutEvent,
    attach_timer,
    lift_timed,
)
from .streams import Tick, _Value

# Slots the sender waits for an acknowledgement before resending.
RESEND_TIMEOUT = 3

INITIAL_BIT = True


def _seeded(text: str) -> Random:
    """The C generator in the state `random.Random(text)` starts in: the
    integer `random.seed` (version 2) derives from a str, with no Python
    wrapper around it."""
    data = text.encode()
    return Random(int.from_bytes(data + sha512(data).digest(), "big"))


def _below(getrandbits, n: int) -> int:
    """`random.Random.randrange(n)` for an int ``n > 0``, drawn through
    `getrandbits` as the stdlib's `_randbelow_with_getrandbits` draws it
    (the same code in CPython 3.10 to 3.13): ``n.bit_length()`` bits,
    drawn again while the result is not below `n`."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class OracleExhausted(Exception):
    """An explicit finite oracle ran out of bits."""


class OracleSpec(_Value):
    """A medium behavior prediction stream, in one of three finite forms.

    explicit  -- a fixed bit list, error past the end;
    cyclic    -- a fixed bit list repeated forever (must contain a pass);
    bernoulli -- seeded independent draws with pass probability > 0.

    Each form reduces to a pure cursor, so medium runs replay exactly.
    """

    __slots__ = ("kind", "bits", "pass_probability", "seed")

    def __init__(self, kind: str, bits: Tuple[bool, ...] = (), pass_probability: float = 1.0,
                 seed: int = 0):
        set_kind, set_bits, set_pass_probability, set_seed = self._setters
        set_kind(self, kind)
        set_bits(self, bits)
        set_pass_probability(self, pass_probability)
        set_seed(self, seed)

    @classmethod
    def explicit(cls, bits) -> "OracleSpec":
        # Via a list: a tuple built from an iterator may keep spare slots.
        return cls(kind="explicit", bits=tuple([*map(bool, bits)]))

    @classmethod
    def cyclic(cls, bits) -> "OracleSpec":
        bits = tuple(bool(b) for b in bits)
        if not bits:
            raise ValueError("cyclic oracle needs at least one bit")
        if not any(bits):
            raise ValueError("cyclic oracle must contain a pass bit (fairness)")
        return cls(kind="cyclic", bits=bits)

    @classmethod
    def bernoulli(cls, pass_probability: float, seed: int) -> "OracleSpec":
        if not 0.0 < pass_probability <= 1.0:
            raise ValueError("pass probability must be in (0, 1] (fairness)")
        return cls(kind="bernoulli", pass_probability=pass_probability, seed=seed)

    def bit_at(self, position: int) -> bool:
        if self.kind == "explicit":
            if position >= len(self.bits):
                raise OracleExhausted(f"explicit oracle of {len(self.bits)} bits, bit {position} requested")
            return self.bits[position]
        if self.kind == "cyclic":
            return self.bits[position % len(self.bits)]
        # `random.Random(f"{seed}:{position}").random() < p` without the
        # Python wrapper: the integer `random.seed` (version 2) derives from
        # that str goes straight to the C generator, so the state, the float
        # and the decision are the same.  "big" is spelled out, as 3.10's
        # `int.from_bytes` has no default.  A fresh generator per draw: a
        # shared one is reseeded and drawn in two calls a thread can split.
        text = f"{self.seed}:{position}".encode()
        return (Random(int.from_bytes(text + sha512(text).digest(), "big")).random()
                < self.pass_probability)

    def cursor(self) -> "OracleCursor":
        return OracleCursor(self, 0)

    def to_dict(self) -> dict:
        if self.kind in ("explicit", "cyclic"):
            return {"kind": self.kind, "bits": list(self.bits)}
        return {"kind": "bernoulli", "pass_probability": self.pass_probability, "seed": self.seed}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OracleSpec":
        if not isinstance(data, Mapping):
            raise ValueError("oracle: must be a JSON object")
        if "kind" not in data:
            raise ValueError("oracle: missing field 'kind'")
        kind = data["kind"]
        if kind in ("explicit", "cyclic"):
            bits = data.get("bits", [])
            if not isinstance(bits, list) or not all(isinstance(b, bool) for b in bits):
                raise ValueError("oracle: field 'bits': must be a list of booleans")
            return cls.explicit(bits) if kind == "explicit" else cls.cyclic(bits)
        if kind == "bernoulli":
            for key in ("pass_probability", "seed"):
                if key not in data:
                    raise ValueError(f"oracle: missing field {key!r}")
            probability, seed = data["pass_probability"], data["seed"]
            if isinstance(probability, bool) or not isinstance(probability, (int, float)):
                raise ValueError("oracle: field 'pass_probability': must be a number")
            if isinstance(seed, bool) or not isinstance(seed, int):
                raise ValueError("oracle: field 'seed': must be an integer")
            return cls.bernoulli(probability, seed)
        raise ValueError(f"oracle: unknown kind {kind!r}")

    def fairness_warning(self) -> Optional[str]:
        """Explicit oracles are only fairness-checkable against a horizon;
        one whose remaining decisions are all drops deserves a warning up
        front, because no retransmission can ever get through them."""
        if self.kind != "explicit":
            return None
        if not any(self.bits):
            return "explicit oracle contains no pass bits; nothing can ever be delivered"
        trailing = 0
        for bit in reversed(self.bits):
            if bit:
                break
            trailing += 1
        if trailing:
            return f"explicit oracle ends in {trailing} drop bit(s); messages reaching that tail are lost"
        return None


class OracleCursor(_Value):
    """Pure read position into an oracle: consuming a bit returns the next
    cursor rather than mutating."""

    __slots__ = ("spec", "position")

    def __init__(self, spec: OracleSpec, position: int):
        set_spec, set_position = self._setters
        set_spec(self, spec)
        set_position(self, position)

    def next_bit(self) -> Tuple[bool, "OracleCursor"]:
        return self.spec.bit_at(self.position), OracleCursor(self.spec, self.position + 1)

    def peek_bit(self) -> bool:
        return self.spec.bit_at(self.position)


def make_sender_delta(timeout: int = RESEND_TIMEOUT):
    """The sender transition function over the merged input algebra.

    State is (bit, buffer): the bit signs the in-flight message (the buffer
    head) and flips once that message is acknowledged.  Inputs are payloads
    (FromA), acknowledgement bits (FromB), or the timer's timeout event.
    """

    def sender_delta(state, event):
        bit, buffer = state
        if event is TimeoutEvent:
            if not buffer:
                return (bit, buffer), ()
            return (bit, buffer), (MsgO((bit, buffer[0])), SetTimer(timeout))
        if isinstance(event, MsgI):
            inner = event.payload
            if isinstance(inner, FromA):
                payload = inner.payload
                if not buffer:
                    return (bit, (payload,)), (MsgO((bit, payload)), SetTimer(timeout))
                return (bit, buffer + (payload,)), ()
            if isinstance(inner, FromB):
                ack = inner.payload
                if not buffer or ack != bit:
                    return (bit, buffer), ()
                if len(buffer) == 1:
                    return (not bit, ()), (SetTimer(-1),)
                rest = buffer[1:]
                return (not bit, rest), (MsgO((not bit, rest[0])), SetTimer(timeout))
        raise ModelError(f"sender has no transition for state {state!r} and input {event!r}")

    return sender_delta


sender_delta = make_sender_delta()


def medium_delta(state: OracleCursor, payload):
    """Consume one oracle bit per message: pass emits the message unchanged,
    drop emits nothing.  Ticks never reach this delta (time insensitivity is
    added by lift_timed)."""
    bit, rest = state.next_bit()
    return rest, ((payload,) if bit else ())


def receiver_delta(expected: bool, message):
    """(new expected bit, acknowledgements, delivered payloads).

    The received bit is always echoed back; the payload is delivered only
    when the bit matches the expected one (otherwise it is a stale
    retransmission the sender has not yet seen acknowledged).
    """
    bit, payload = message
    if bit == expected:
        return (not expected), (bit,), (payload,)
    return expected, (bit,), ()


def receiver_delta_tagged(expected: bool, message):
    """receiver_delta with both output channels folded into one sequence:
    acknowledgements tagged FromA, delivered payloads FromB."""
    new_expected, acks, delivered = receiver_delta(expected, message)
    outputs = tuple(FromA(b) for b in acks) + tuple(FromB(p) for p in delivered)
    return new_expected, outputs


def build_abp_network(
    data_oracle: OracleSpec,
    ack_oracle: OracleSpec,
    *,
    timeout: int = RESEND_TIMEOUT,
    sender_bit: bool = INITIAL_BIT,
    receiver_bit: bool = INITIAL_BIT,
) -> NetworkSpec:
    """The four-component wiring: sender -> data medium -> receiver, with
    acknowledgements fed back through the ack medium.  The feedback wire
    `am` starts with a single tick so the cycle has a productive schedule.

    The external wire is `input`; delivered payloads appear on `out`.
    """
    net = NetworkSpec()
    net.add_machine(
        "sender",
        ((sender_bit, ()), -1),
        attach_timer(make_sender_delta(timeout)),
        inputs=["input", "am"],
        outputs=["ds"],
    )
    net.add_machine(
        "data_medium",
        data_oracle.cursor(),
        lift_timed(medium_delta),
        inputs=["ds"],
        outputs=["dm"],
    )
    net.add_machine(
        "receiver",
        receiver_bit,
        lift_timed(receiver_delta_tagged),
        inputs=["dm"],
        outputs=["as", "out"],
    )
    net.add_machine(
        "ack_medium",
        ack_oracle.cursor(),
        lift_timed(medium_delta),
        inputs=["as"],
        outputs=["am"],
    )
    net.initialize("am", [Tick])
    return net
