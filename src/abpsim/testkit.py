"""Model-based testing toolkit for transition-function machines.

Three layers, each usable alone:

* transition and path testers comparing a delta's actual behavior against
  expected states and output sequences (structural, order-sensitive);
* coverage instrumentation against a declared catalog of abstract
  transitions over state equivalence classes: each step scans only the
  entries leaving its state's class (`TransitionCatalog._entry_in`), from
  scan tables the catalog builds once;
* scenario generation and the end-to-end identity check for the composed
  protocol (the system-level contract: delivered payloads equal sent
  payloads once timing is abstracted away).

Testers never raise on a misbehaving delta; exceptions from the model are
folded into failing verdicts so a suite always runs to completion.  Running
out of memory is not a verdict: a MemoryError propagates.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from enum import Enum
from itertools import chain
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

# The builtin SHA-256, found as `abp` finds its SHA-512: importing `hashlib`
# loads OpenSSL, which no output needs.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .abp import RESEND_TIMEOUT, OracleSpec, _below, _seeded, build_abp_network
from .runtime import Delta, NetworkRun, run_network
from .streams import TimedStream, _Value

FULL = "full"
STATES_ONLY = "states"
OUTPUTS_ONLY = "outputs"


class TransitionCase(_Value):
    """One expected step: delta(start_state, input) should equal
    (expected_state, expected_outputs)."""

    __slots__ = ("id", "start_state", "input", "expected_state", "expected_outputs")

    def __init__(self, id: str, start_state: Any, input: Any, expected_state: Any,
                 expected_outputs: Tuple[Any, ...]):
        (set_id, set_start_state, set_input, set_expected_state,
         set_expected_outputs) = self._setters
        set_id(self, id)
        set_start_state(self, start_state)
        set_input(self, input)
        set_expected_state(self, expected_state)
        set_expected_outputs(self, tuple(expected_outputs))


class PathCase(_Value):
    """An input sequence with expectations along the trajectory.

    mode selects what is compared: FULL checks (state, outputs) per step,
    STATES_ONLY just the state per step, OUTPUTS_ONLY a single comparison of
    all outputs concatenated.
    """

    __slots__ = ("id", "start_state", "inputs", "mode", "expectation")

    def __init__(self, id: str, start_state: Any, inputs: Tuple[Any, ...], mode: str,
                 expectation: Any):
        inputs = tuple(inputs)
        if mode not in (FULL, STATES_ONLY, OUTPUTS_ONLY):
            raise ValueError(f"unknown path mode {mode!r}")
        expectation = tuple(expectation)
        if mode != OUTPUTS_ONLY and len(expectation) != len(inputs):
            raise ValueError(
                f"path case {id!r}: {len(inputs)} inputs but {len(expectation)} expectations"
            )
        if mode == FULL:
            expectation = tuple((state, tuple(outputs)) for state, outputs in expectation)
        set_id, set_start_state, set_inputs, set_mode, set_expectation = self._setters
        set_id(self, id)
        set_start_state(self, start_state)
        set_inputs(self, inputs)
        set_mode(self, mode)
        set_expectation(self, expectation)


class Verdict(_Value):
    """Outcome of one case, or of one step of a path case.  A step verdict
    carries its index; steps after the first failing one are still
    evaluated, from the actual trajectory, not the expected one.  A
    transition case or an OUTPUTS_ONLY path case has index None."""

    __slots__ = ("case_id", "passed", "expected", "actual", "error", "index")

    def __init__(self, case_id: str, passed: bool, expected: Any = None, actual: Any = None,
                 error: Optional[str] = None, index: Optional[int] = None):
        set_case_id, set_passed, set_expected, set_actual, set_error, set_index = self._setters
        set_case_id(self, case_id)
        set_passed(self, passed)
        set_expected(self, expected)
        set_actual(self, actual)
        set_error(self, error)
        set_index(self, index)

    def __bool__(self) -> bool:
        return self.passed


def trans_test(delta: Delta, case: TransitionCase) -> Verdict:
    """Execute one transition and compare against the expectation.  A delta
    that raises yields a failing verdict carrying the cause, unless it ran
    out of memory."""
    expected = (case.expected_state, case.expected_outputs)
    try:
        state, outputs = delta(case.start_state, case.input)
        actual = (state, tuple(outputs))
    except MemoryError:
        raise
    except Exception as exc:
        return Verdict(case.id, False, expected=expected, error=f"{type(exc).__name__}: {exc}")
    return Verdict(case.id, actual == expected, expected=expected, actual=actual)


def path_test(delta: Delta, case: PathCase) -> Tuple[Verdict, ...]:
    """Run an input sequence and compare the trajectory step by step.

    Returns a tuple of Verdict: one per executed step for FULL / STATES_ONLY,
    one for the whole path for OUTPUTS_ONLY.  If the delta raises, the
    failing step's verdict carries the cause and the remaining steps are not
    executed (the trajectory is gone).
    """
    state = case.start_state
    steps: List[Tuple[Any, tuple]] = []
    error = None
    for item in case.inputs:
        try:
            state, outputs = delta(state, item)
            steps.append((state, tuple(outputs)))
        except MemoryError:
            raise
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            break
    if case.mode == OUTPUTS_ONLY:
        actual = tuple(p for _, outputs in steps for p in outputs)
        return (Verdict(case.id, error is None and actual == case.expectation,
                        expected=case.expectation, actual=actual, error=error),)
    verdicts: List[Verdict] = []
    for index, (step, expected) in enumerate(zip(steps, case.expectation)):
        actual = step if case.mode == FULL else step[0]
        verdicts.append(Verdict(case.id, actual == expected, expected=expected, actual=actual,
                                index=index))
    if error is not None:
        verdicts.append(Verdict(case.id, False, expected=case.expectation[len(steps)],
                                error=error, index=len(steps)))
    return tuple(verdicts)


class ClassificationError(Exception):
    """A concrete step or state matched more than one catalog entry/class,
    violating the catalog's determinism requirement."""


class CatalogEntry(_Value):
    """One abstract transition: fires when the state lies in the source
    class, the input matches the pattern, and the guard (if any) holds.
    The target class is declared data, used for the class-level graph."""

    __slots__ = ("id", "source", "target", "input_pattern", "guard")

    def __init__(self, id: str, source: str, target: str, input_pattern: Callable[[Any], bool],
                 guard: Optional[Callable[[Any, Any], bool]] = None):
        set_id, set_source, set_target, set_input_pattern, set_guard = self._setters
        set_id(self, id)
        set_source(self, source)
        set_target(self, target)
        set_input_pattern(self, input_pattern)
        set_guard(self, guard)


class TransitionCatalog:
    """Declared abstract transitions of one machine over named state
    equivalence classes.  Classes are predicate-defined and expected to be
    pairwise disjoint; at most one entry may match any concrete step.  The
    classes and entries are fixed once the catalog is built."""

    def __init__(self, machine: str, classes: Mapping[str, Callable[[Any], bool]],
                 entries: Iterable[CatalogEntry]):
        self.machine = machine
        self.classes: Dict[str, Callable[[Any], bool]] = dict(classes)
        self.entries: Tuple[CatalogEntry, ...] = tuple(entries)
        seen = set()
        for entry in self.entries:
            if entry.id in seen:
                raise ValueError(f"catalog {machine!r}: duplicate transition id {entry.id!r}")
            seen.add(entry.id)
            for cls in (entry.source, entry.target):
                if cls not in self.classes:
                    raise ValueError(
                        f"catalog {machine!r}: entry {entry.id!r} references unknown class {cls!r}"
                    )
        # The scan tables of class_of and _entry_in, in catalog order: every
        # (class id, predicate), and per class the (id, input pattern, guard)
        # of each entry leaving it.
        self._class_scan = tuple(self.classes.items())
        self._leaving = {
            cid: tuple((e.id, e.input_pattern, e.guard) for e in self.entries if e.source == cid)
            for cid in self.classes
        }

    def ids(self) -> frozenset:
        return frozenset(entry.id for entry in self.entries)

    def class_of(self, state) -> Optional[str]:
        # Every predicate runs once, in order; a second match starts the
        # list of all of them that the error names.
        found = matches = None
        for cid, pred in self._class_scan:
            if pred(state):
                if found is None:
                    found = cid
                elif matches is None:
                    matches = [found, cid]
                else:
                    matches.append(cid)
        if matches is not None:
            raise ClassificationError(
                f"catalog {self.machine!r}: state {state!r} lies in classes {matches}"
            )
        return found

    def _entry_in(self, source: Optional[str], state, item) -> Optional[str]:
        """The entry leaving class `source` that the step matches, if any.
        Every entry leaving it is tried, so that two matches are an error."""
        found = matches = None
        for eid, input_pattern, guard in self._leaving.get(source, ()):
            if input_pattern(item) and (guard is None or guard(state, item)):
                if found is None:
                    found = eid
                elif matches is None:
                    matches = [found, eid]
                else:
                    matches.append(eid)
        if matches is not None:
            raise ClassificationError(
                f"catalog {self.machine!r}: step ({state!r}, {item!r}) matches {matches}"
            )
        return found


class CoverageReport(_Value):
    __slots__ = ("covered", "uncovered", "class_coverage", "unclassified")

    def __init__(self, covered: frozenset, uncovered: frozenset, class_coverage: Dict[str, int],
                 unclassified: int):
        set_covered, set_uncovered, set_class_coverage, set_unclassified = self._setters
        set_covered(self, covered)
        set_uncovered(self, uncovered)
        set_class_coverage(self, class_coverage)
        set_unclassified(self, unclassified)

    @property
    def complete(self) -> bool:
        return not self.uncovered


class CoverageAccumulator(_Value):
    """Mutable tally behind an instrumented delta: steps per catalog entry
    and per class of the state stepped from.  A step no entry matches, or a
    state in no class, counts under the key None."""

    __slots__ = ("transitions", "classes")

    def __init__(self, transitions: Optional[Counter] = None, classes: Optional[Counter] = None):
        set_transitions, set_classes = self._setters
        set_transitions(self, Counter() if transitions is None else transitions)
        set_classes(self, Counter() if classes is None else classes)

    def report(self, catalog: TransitionCatalog) -> CoverageReport:
        ids = catalog.ids()
        covered = frozenset(tid for tid in ids if self.transitions[tid] > 0)
        return CoverageReport(
            covered=covered,
            uncovered=ids - covered,
            class_coverage={cid: self.classes[cid] for cid in catalog.classes},
            unclassified=self.transitions[None],
        )


def instrument(delta: Delta, catalog: TransitionCatalog) -> Tuple[Delta, CoverageAccumulator]:
    """Wrap a delta so every step records the catalog transition it realizes
    (or is tallied as unclassified, a test smell).  The wrapper is
    behaviorally identical to the original delta."""
    accumulator = CoverageAccumulator()
    class_of, entry_in = catalog.class_of, catalog._entry_in
    transitions, classes = accumulator.transitions, accumulator.classes

    def instrumented(state, item):
        class_id = class_of(state)
        transitions[entry_in(class_id, state, item)] += 1
        classes[class_id] += 1
        return delta(state, item)

    return instrumented, accumulator


# Largest scenario horizon.  A run reads one input slot per horizon slot
# and holds one tuple per slot on every wire until the network falls quiet.
_HORIZON_LIMIT = 1_000_000

# Most payloads one scenario may carry.  The sender's buffer is a tuple that
# is copied on every enqueue and ack, so a run costs time quadratic in the
# number of payloads waiting in it.
_PAYLOAD_LIMIT = 10_000


class ScenarioSpec(_Value):
    """A replayable end-to-end run: which payloads enter in which slot, the
    oracle for each medium, the observation horizon (1 to 1,000,000 slots),
    and the protocol knobs.  A scenario carries at most 10,000 payloads in
    all.  The seed records the generator invocation for generated scenarios
    and is absent on handcrafted ones."""

    __slots__ = ("name", "payload_slots", "horizon", "data_oracle", "ack_oracle", "timeout",
                 "sender_bit", "receiver_bit", "seed")

    def __init__(self, name: str, payload_slots: Iterable[Iterable[int]], horizon: int,
                 data_oracle: OracleSpec, ack_oracle: OracleSpec, timeout: int = RESEND_TIMEOUT,
                 sender_bit: bool = True, receiver_bit: bool = True, seed: Optional[int] = None):
        (set_name, set_payload_slots, set_horizon, set_data_oracle, set_ack_oracle, set_timeout,
         set_sender_bit, set_receiver_bit, set_seed) = self._setters
        set_name(self, name)
        set_payload_slots(self, tuple(tuple(slot) for slot in payload_slots))
        set_horizon(self, horizon)
        set_data_oracle(self, data_oracle)
        set_ack_oracle(self, ack_oracle)
        set_timeout(self, timeout)
        set_sender_bit(self, sender_bit)
        set_receiver_bit(self, receiver_bit)
        set_seed(self, seed)
        if self.horizon < 1:
            raise ValueError(f"scenario {self.name!r}: horizon must be at least 1")
        if self.horizon > _HORIZON_LIMIT:
            raise ValueError(
                f"scenario {self.name!r}: horizon {self.horizon} exceeds the limit of "
                f"{_HORIZON_LIMIT} slots"
            )
        if len(self.payload_slots) > self.horizon:
            raise ValueError(
                f"scenario {self.name!r}: {len(self.payload_slots)} payload slots "
                f"exceed horizon {self.horizon}"
            )
        count = sum(map(len, self.payload_slots))
        if count > _PAYLOAD_LIMIT:
            raise ValueError(
                f"scenario {self.name!r}: {count} payloads exceed the limit of "
                f"{_PAYLOAD_LIMIT} payloads"
            )
        if self.timeout < 1:
            raise ValueError(f"scenario {self.name!r}: timeout must be at least 1")

    def payloads(self) -> Tuple[int, ...]:
        return tuple(p for slot in self.payload_slots for p in slot)

    def fairness_warnings(self) -> Tuple[str, ...]:
        """The labelled fairness warnings of the data oracle, then the ack oracle."""
        warnings = (("data", self.data_oracle.fairness_warning()),
                    ("ack", self.ack_oracle.fairness_warning()))
        return tuple(f"{label} oracle: {warning}" for label, warning in warnings if warning)

    def input_stream(self) -> TimedStream:
        """The input wire: the payload slots, then an idle tail of empty
        slots up to the horizon."""
        return TimedStream(lambda: self.payload_slots, self.horizon - len(self.payload_slots))

    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "payload_slots": [list(slot) for slot in self.payload_slots],
            "horizon": self.horizon,
            "data_oracle": self.data_oracle.to_dict(),
            "ack_oracle": self.ack_oracle.to_dict(),
            "timeout": self.timeout,
            "sender_bit": self.sender_bit,
            "receiver_bit": self.receiver_bit,
        }
        if self.seed is not None:
            data["seed"] = self.seed
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        if not isinstance(data, Mapping):
            raise ValueError("scenario: document must be a JSON object")
        allowed = {"name", "payload_slots", "horizon", "data_oracle", "ack_oracle",
                   "timeout", "sender_bit", "receiver_bit", "seed"}
        for key in data:
            if key not in allowed:
                raise ValueError(f"scenario field {key!r}: unknown field")
        for key in ("payload_slots", "horizon", "data_oracle", "ack_oracle"):
            if key not in data:
                raise ValueError(f"scenario field {key!r}: missing")

        slots = data["payload_slots"]
        if not isinstance(slots, list) or not all(isinstance(s, list) for s in slots):
            raise ValueError("scenario field 'payload_slots': must be a list of lists")
        for slot in slots:
            for payload in slot:
                if isinstance(payload, bool) or not isinstance(payload, int):
                    raise ValueError(
                        f"scenario field 'payload_slots': payload {payload!r} is not an integer"
                    )

        def read_int(key, default=None, minimum=None):
            value = data.get(key, default)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"scenario field {key!r}: must be an integer")
            if minimum is not None and value < minimum:
                raise ValueError(f"scenario field {key!r}: must be at least {minimum}")
            return value

        def read_bool(key, default):
            value = data.get(key, default)
            if not isinstance(value, bool):
                raise ValueError(f"scenario field {key!r}: must be a boolean")
            return value

        def read_oracle(key):
            try:
                return OracleSpec.from_dict(data[key])
            except ValueError as exc:
                raise ValueError(f"scenario field {key!r}: {exc}") from None

        seed = data.get("seed")
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            raise ValueError("scenario field 'seed': must be an integer")
        name = data.get("name", "")
        if not isinstance(name, str):
            raise ValueError("scenario field 'name': must be a string")

        return cls(
            name=name,
            payload_slots=slots,
            horizon=read_int("horizon", minimum=1),
            data_oracle=read_oracle("data_oracle"),
            ack_oracle=read_oracle("ack_oracle"),
            timeout=read_int("timeout", default=RESEND_TIMEOUT, minimum=1),
            sender_bit=read_bool("sender_bit", True),
            receiver_bit=read_bool("receiver_bit", True),
            seed=seed,
        )


def scenario_digest(scenario: ScenarioSpec) -> str:
    """Stable content digest of a scenario, independent of field order in
    the source file."""
    canonical = json.dumps(scenario.to_dict(), sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()[:16]


# Per-message residual failure probability the auto-sized horizon tolerates.
_HORIZON_CONFIDENCE = 1e-6


def generate_scenario(seed: int,
                      bounds: Tuple[int, int, float] = (10, 10_000, 0.5)) -> ScenarioSpec:
    """Deterministically derive a random scenario from a seed.

    bounds = (max payloads, max horizon, max drop probability).  Both media
    get independent Bernoulli oracles with drop probability drawn up to the
    bound.  The horizon is sized so that every payload has at least
    ceil(log(1e-6) / log(1 - pass_both)) end-to-end attempts available,
    each costing at most RESEND_TIMEOUT + 2 slots; the payload count is
    clamped so this never exceeds the horizon bound.

    The scenario is defined by the draws of ``rng = random.Random(
    f"scenario:{seed}")``, in this order: ``rng.uniform(0.0, bound)`` for
    the data and then the ack drop probability, ``rng.randint(1, cap)``
    payloads (none when the cap is 0), ``rng.randrange(2 * count)`` for
    each payload's slot, then ``rng.randrange(10)`` for each payload, slot
    by slot, and ``rng.randrange(2**32)`` for the data and then the ack
    oracle seed.  They are taken straight from the C generator that
    `random.Random` wraps, by the stdlib's own formulas, as the Bernoulli
    oracles take their bits.
    """
    max_payloads, max_horizon, drop_bound = bounds
    if max_payloads < 0:
        raise ValueError("max payloads must be non-negative")
    if max_horizon < 1:
        raise ValueError("max horizon must be at least 1")
    if not 0.0 <= drop_bound < 1.0:
        raise ValueError("drop probability bound must lie in [0, 1)")

    rng = _seeded(f"scenario:{seed}")
    bits = rng.getrandbits
    drop_data = 0.0 + (drop_bound - 0.0) * rng.random()  # uniform(0.0, drop_bound)
    drop_ack = 0.0 + (drop_bound - 0.0) * rng.random()
    pass_both = (1.0 - drop_data) * (1.0 - drop_ack)
    if pass_both >= 1.0:
        attempts = 1
    else:
        attempts = max(1, math.ceil(math.log(_HORIZON_CONFIDENCE) / math.log(1.0 - pass_both)))
    per_message = (RESEND_TIMEOUT + 2) * attempts

    cap = min(max_payloads, max_horizon // per_message)
    count = 1 + _below(bits, cap) if cap >= 1 else 0
    # Refuse an oversized scenario before drawing one arrival, as
    # ScenarioSpec would refuse it built: the horizon is at least `floor`.
    floor = min(max_horizon, count * per_message + 1)
    if floor > _HORIZON_LIMIT:
        raise ValueError(f"scenario 'seed-{seed}': horizon of at least {floor} slots exceeds "
                         f"the limit of {_HORIZON_LIMIT} slots")
    if count > _PAYLOAD_LIMIT:
        raise ValueError(f"scenario 'seed-{seed}': {count} payloads exceed the limit of "
                         f"{_PAYLOAD_LIMIT} payloads")
    window = max(1, 2 * count)
    arrivals = sorted(_below(bits, window) for _ in range(count))
    payload_slots: List[List[int]] = [[] for _ in range((arrivals[-1] + 1) if count else 0)]
    for slot in arrivals:
        payload_slots[slot].append(_below(bits, 10))

    horizon = max(1, min(max_horizon, len(payload_slots) + count * per_message))
    data_oracle = OracleSpec.bernoulli(1.0 - drop_data, _below(bits, 2**32))
    ack_oracle = OracleSpec.bernoulli(1.0 - drop_ack, _below(bits, 2**32))
    return ScenarioSpec(
        name=f"seed-{seed}",
        payload_slots=payload_slots,
        horizon=horizon,
        data_oracle=data_oracle,
        ack_oracle=ack_oracle,
        seed=seed,
    )


class IdentityStatus(Enum):
    PASS = "pass"
    INCONCLUSIVE_HORIZON = "inconclusive-horizon"
    FAIL = "fail"


class IdentityResult(_Value):
    """Outcome of the end-to-end identity check.

    INCONCLUSIVE_HORIZON means the delivered sequence is a strict prefix of
    the sent one: nothing wrong was observed, the horizon was just too short
    to see every delivery.  Order, duplication, or alteration violations are
    hard FAILs carrying the first divergent index.  Both keep the checked
    `run` for diagnosis; a PASS keeps none.
    """

    __slots__ = ("status", "expected", "actual", "divergence", "run", "warnings")

    def __init__(self, status: IdentityStatus, expected: Tuple[Any, ...], actual: Tuple[Any, ...],
                 divergence: Optional[int] = None, run: Optional[NetworkRun] = None,
                 warnings: Tuple[str, ...] = ()):
        set_status, set_expected, set_actual, set_divergence, set_run, set_warnings = self._setters
        set_status(self, status)
        set_expected(self, expected)
        set_actual(self, actual)
        set_divergence(self, divergence)
        set_run(self, run)
        set_warnings(self, warnings)


def run_scenario(scenario: ScenarioSpec) -> NetworkRun:
    """Run the composed protocol over the scenario's horizon."""
    net = build_abp_network(
        scenario.data_oracle,
        scenario.ack_oracle,
        timeout=scenario.timeout,
        sender_bit=scenario.sender_bit,
        receiver_bit=scenario.receiver_bit,
    )
    return run_network(net, {"input": scenario.input_stream()}, scenario.horizon)


def check_identity(scenario: ScenarioSpec) -> IdentityResult:
    """Run the composed protocol on a scenario and compare untimed output
    against untimed input; a result that does not pass keeps the run."""
    run = run_scenario(scenario)
    expected = scenario.payloads()
    actual = tuple(chain.from_iterable(run.stored["out"]))

    if actual == expected:
        status, divergence, run = IdentityStatus.PASS, None, None
    elif len(actual) < len(expected) and actual == expected[: len(actual)]:
        status, divergence = IdentityStatus.INCONCLUSIVE_HORIZON, None
    else:
        status = IdentityStatus.FAIL
        divergence = next(
            (i for i, (a, e) in enumerate(zip(actual, expected)) if a != e),
            min(len(actual), len(expected)),
        )

    return IdentityResult(
        status=status,
        expected=expected,
        actual=actual,
        divergence=divergence,
        run=run,
        warnings=scenario.fairness_warnings(),
    )
