"""A small, independent reference for the golden ABP transition rules.

The benchmark derives every expectation it checks from this module and
never from the deltas under test, so a broken delta cannot approve itself:

* ``sender_step``, ``medium_step`` and ``receiver_step`` restate the golden
  rules of the bundled tables (sender, time-lifted medium, receiver);
* ``lit`` writes values in the literal grammar of the table format;
* ``simulate_abp`` replays a scenario slot by slot with the same wiring,
  schedule and timer law as the runtime, and returns each wire's history
  rendered the way ``simulate --format json`` renders it.

Values use plain Python types: a signed message is a ``(bit, payload)``
tuple, and tagged values are ``(tag, payload)`` pairs with the tag a string.
"""

from __future__ import annotations

import random

TIMEOUT = "Timeout"
TICK = "Tick"
RESEND_TIMEOUT = 3


def sender_step(state, event, timeout=RESEND_TIMEOUT):
    """Untimed sender: state ``(bit, buffer)``; event an int payload, a bool
    acknowledgement or TIMEOUT.  Outputs are ("MsgO", (bit, p)) and
    ("SetTimer", n) pairs in emission order."""
    bit, buffer = state
    if event == TIMEOUT:
        if not buffer:
            return state, []
        return state, [("MsgO", (bit, buffer[0])), ("SetTimer", timeout)]
    if isinstance(event, bool):
        if not buffer or event != bit:
            return state, []
        if len(buffer) == 1:
            return (not bit, ()), [("SetTimer", -1)]
        rest = buffer[1:]
        return (not bit, rest), [("MsgO", (not bit, rest[0])), ("SetTimer", timeout)]
    if not buffer:
        return (bit, (event,)), [("MsgO", (bit, event)), ("SetTimer", timeout)]
    return (bit, buffer + (event,)), []


def medium_step(state, item):
    """Time-lifted medium: state ``(bits, position)``; item TICK or
    ("Msg", x).  One oracle bit per message, none per tick."""
    if item == TICK:
        return state, [TICK]
    bits, position = state
    return (bits, position + 1), ([item] if bits[position] else [])


def receiver_step(expected, message):
    """Receiver with both channels folded: acknowledgement ("FromA", bit),
    delivery ("FromB", payload)."""
    bit, payload = message
    if bit == expected:
        return not expected, [("FromA", bit), ("FromB", payload)]
    return expected, [("FromA", bit)]


def lit(value) -> str:
    """Literal-grammar text of a reference value."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if value in (TICK, TIMEOUT):
        return value
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[0], str):
        tag, payload = value
        if tag == "Oracle":
            bits, position = payload
            return f"Oracle({lit(list(bits))},{position})"
        if tag == "SetTimer":
            return f"SetTimer({payload})"
        if isinstance(payload, tuple):
            return f"{tag}({','.join(lit(v) for v in payload)})"
        return f"{tag}({lit(payload)})"
    return "[" + ",".join(lit(v) for v in value) + "]"


def bernoulli_bit(pass_probability: float, seed: int, position: int) -> bool:
    """The documented Bernoulli oracle draw: one seeded generator per bit."""
    return random.Random(f"{seed}:{position}").random() < pass_probability


def simulate_abp(payload_slots, horizon, data_oracle, ack_oracle,
                 timeout=RESEND_TIMEOUT, sender_bit=True, receiver_bit=True):
    """Rendered wire histories ``{wire: [[text, ...] per slot]}`` of the
    four-component ABP network.  Oracles are ``(pass_probability, seed)``.

    Per slot the sender sees the slot's payloads, then the acknowledgements
    on ``am``, then the tick; the media and the receiver follow in wiring
    order; ``am`` is ``as`` delayed by one slot."""
    wires = {name: [] for name in ("input", "am", "ds", "dm", "as", "out")}
    bit, buffer, counter = sender_bit, (), -1
    data_pos = ack_pos = 0
    expected = receiver_bit
    acks_in_flight = ()

    def sender_outputs(outputs, counter, sent):
        for tag, value in outputs:
            if tag == "SetTimer":
                counter = value
            else:
                sent.append(value)
        return counter

    for slot in range(horizon):
        arriving = tuple(payload_slots[slot]) if slot < len(payload_slots) else ()
        sent = []
        for event in arriving + acks_in_flight:
            (bit, buffer), outputs = sender_step((bit, buffer), event, timeout)
            counter = sender_outputs(outputs, counter, sent)
        if counter >= 2:
            counter -= 1
        elif counter == 1:
            counter = -1
            (bit, buffer), outputs = sender_step((bit, buffer), TIMEOUT, timeout)
            counter = sender_outputs(outputs, counter, sent)

        passed = []
        for message in sent:
            if bernoulli_bit(data_oracle[0], data_oracle[1], data_pos):
                passed.append(message)
            data_pos += 1
        acks, delivered = [], []
        for message in passed:
            expected, outputs = receiver_step(expected, message)
            for tag, value in outputs:
                (acks if tag == "FromA" else delivered).append(value)
        returned = []
        for ack in acks:
            if bernoulli_bit(ack_oracle[0], ack_oracle[1], ack_pos):
                returned.append(ack)
            ack_pos += 1

        for name, values in (("input", arriving), ("am", acks_in_flight), ("ds", sent),
                             ("dm", passed), ("as", acks), ("out", delivered)):
            wires[name].append([lit(v) for v in values])
        acks_in_flight = tuple(returned)
    return wires
