"""Model-based testing toolkit for transition-function machines.

Four layers, each usable alone:

* transition and path testers comparing a delta's actual behavior against
  expected states and output sequences (structural, order-sensitive);
* coverage instrumentation against a declared catalog of abstract
  transitions over state equivalence classes;
* boundary-interior path enumeration over the catalog's class graph, as a
  test design aid;
* scenario generation and the end-to-end identity check for the composed
  protocol (the system-level contract: delivered payloads equal sent
  payloads once timing is abstracted away).

Testers never raise on a misbehaving delta; exceptions from the model are
folded into failing verdicts so a suite always runs to completion.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .abp import RESEND_TIMEOUT, OracleSpec, build_abp_network
from .runtime import Delta, NetworkRun, run_network
from .streams import TimedStream

FULL = "full"
STATES_ONLY = "states"
OUTPUTS_ONLY = "outputs"


@dataclass(frozen=True)
class TransitionCase:
    """One expected step: delta(start_state, input) should equal
    (expected_state, expected_outputs)."""

    id: str
    start_state: Any
    input: Any
    expected_state: Any
    expected_outputs: Tuple[Any, ...]

    def __post_init__(self):
        object.__setattr__(self, "expected_outputs", tuple(self.expected_outputs))


@dataclass(frozen=True)
class PathCase:
    """An input sequence with expectations along the trajectory.

    mode selects what is compared: FULL checks (state, outputs) per step,
    STATES_ONLY just the state per step, OUTPUTS_ONLY a single comparison of
    all outputs concatenated.
    """

    id: str
    start_state: Any
    inputs: Tuple[Any, ...]
    mode: str
    expectation: Any

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if self.mode not in (FULL, STATES_ONLY, OUTPUTS_ONLY):
            raise ValueError(f"unknown path mode {self.mode!r}")
        if self.mode == OUTPUTS_ONLY:
            object.__setattr__(self, "expectation", tuple(self.expectation))
            return
        expectation = tuple(self.expectation)
        if len(expectation) != len(self.inputs):
            raise ValueError(
                f"path case {self.id!r}: {len(self.inputs)} inputs but "
                f"{len(expectation)} expectations"
            )
        if self.mode == FULL:
            expectation = tuple((state, tuple(outputs)) for state, outputs in expectation)
        object.__setattr__(self, "expectation", expectation)


@dataclass(frozen=True)
class Verdict:
    case_id: str
    passed: bool
    expected: Any = None
    actual: Any = None
    error: Optional[str] = None

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class StepVerdict:
    """Verdict for one step of a path case.  Steps after the first failing
    one are still evaluated (from the actual trajectory, not the expected
    one) and carry after_divergence=True so reports can de-emphasize them.
    """

    case_id: str
    index: int
    passed: bool
    expected: Any = None
    actual: Any = None
    after_divergence: bool = False
    error: Optional[str] = None

    def __bool__(self) -> bool:
        return self.passed


def trans_test(delta: Delta, case: TransitionCase) -> Verdict:
    """Execute one transition and compare against the expectation.  A delta
    that raises yields a failing verdict carrying the cause."""
    expected = (case.expected_state, case.expected_outputs)
    try:
        state, outputs = delta(case.start_state, case.input)
        actual = (state, tuple(outputs))
    except Exception as exc:
        return Verdict(case.id, False, expected=expected, error=f"{type(exc).__name__}: {exc}")
    return Verdict(case.id, actual == expected, expected=expected, actual=actual)


def path_test(delta: Delta, case: PathCase):
    """Run an input sequence and compare the trajectory step by step.

    Returns a tuple of StepVerdict for FULL / STATES_ONLY (one per executed
    step) or a single Verdict for OUTPUTS_ONLY.  If the delta raises, the
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
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            break
    if case.mode == OUTPUTS_ONLY:
        actual = tuple(p for _, outputs in steps for p in outputs)
        return Verdict(case.id, error is None and actual == case.expectation,
                       expected=case.expectation, actual=actual, error=error)
    verdicts: List[StepVerdict] = []
    diverged = False
    for index, (step, expected) in enumerate(zip(steps, case.expectation)):
        actual = step if case.mode == FULL else step[0]
        ok = actual == expected
        verdicts.append(StepVerdict(case.id, index, ok, expected=expected, actual=actual,
                                    after_divergence=diverged))
        diverged = diverged or not ok
    if error is not None:
        verdicts.append(StepVerdict(case.id, len(steps), False,
                                    expected=case.expectation[len(steps)],
                                    after_divergence=diverged, error=error))
    return tuple(verdicts)


class ClassificationError(Exception):
    """A concrete step or state matched more than one catalog entry/class,
    violating the catalog's determinism requirement."""


@dataclass(frozen=True)
class CatalogEntry:
    """One abstract transition: fires when the state lies in the source
    class, the input matches the pattern, and the guard (if any) holds.
    The target class is declared data, used for the class-level graph."""

    id: str
    source: str
    target: str
    input_pattern: Callable[[Any], bool]
    guard: Optional[Callable[[Any, Any], bool]] = None


class TransitionCatalog:
    """Declared abstract transitions of one machine over named state
    equivalence classes.  Classes are predicate-defined and expected to be
    pairwise disjoint; at most one entry may match any concrete step."""

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

    def ids(self) -> frozenset:
        return frozenset(entry.id for entry in self.entries)

    def class_of(self, state) -> Optional[str]:
        matches = [cid for cid, pred in self.classes.items() if pred(state)]
        if len(matches) > 1:
            raise ClassificationError(
                f"catalog {self.machine!r}: state {state!r} lies in classes {matches}"
            )
        return matches[0] if matches else None

    def classify(self, state, item) -> Optional[str]:
        return self._entry_in(self.class_of(state), state, item)

    def _entry_in(self, source: Optional[str], state, item) -> Optional[str]:
        """The entry leaving class `source` that the step matches, if any."""
        matches = [
            entry.id
            for entry in self.entries
            if entry.source == source
            and entry.input_pattern(item)
            and (entry.guard is None or entry.guard(state, item))
        ]
        if len(matches) > 1:
            raise ClassificationError(
                f"catalog {self.machine!r}: step ({state!r}, {item!r}) matches {matches}"
            )
        return matches[0] if matches else None


@dataclass(frozen=True)
class CoverageReport:
    machine: str
    covered: frozenset
    uncovered: frozenset
    class_coverage: Dict[str, int]
    unclassified: int

    @property
    def complete(self) -> bool:
        return not self.uncovered


@dataclass
class CoverageAccumulator:
    """Mutable tally behind an instrumented delta: steps per catalog entry
    and per class of the state stepped from.  A step no entry matches, or a
    state in no class, counts under the key None."""

    transitions: Counter = field(default_factory=Counter)
    classes: Counter = field(default_factory=Counter)

    def report(self, catalog: TransitionCatalog) -> CoverageReport:
        ids = catalog.ids()
        covered = frozenset(tid for tid in ids if self.transitions[tid] > 0)
        return CoverageReport(
            machine=catalog.machine,
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

    def instrumented(state, item):
        class_id = catalog.class_of(state)
        accumulator.transitions[catalog._entry_in(class_id, state, item)] += 1
        accumulator.classes[class_id] += 1
        return delta(state, item)

    return instrumented, accumulator


def boundary_interior_paths(catalog: TransitionCatalog, start_class: str,
                            max_loop_unroll: int = 1) -> frozenset:
    """All nonempty transition-id paths through the catalog's class graph
    from start_class in which every edge occurs at most max_loop_unroll
    times (so every cycle is traversed at most that often).  When no edge
    leaves the start class the result is the singleton empty path.

    Paths are abstract test designs; the engineer supplies concrete witness
    inputs for each.
    """
    if start_class not in catalog.classes:
        raise ValueError(f"unknown class {start_class!r} in catalog {catalog.machine!r}")
    if max_loop_unroll < 1:
        raise ValueError("max_loop_unroll must be at least 1")

    edges = [(entry.id, entry.source, entry.target) for entry in catalog.entries]
    paths = set()
    used: Counter = Counter()

    def extend(cls: str, path: Tuple[str, ...]):
        for eid, src, tgt in edges:
            if src == cls and used[eid] < max_loop_unroll:
                new_path = path + (eid,)
                paths.add(new_path)
                used[eid] += 1
                extend(tgt, new_path)
                used[eid] -= 1

    extend(start_class, ())
    return frozenset(paths) if paths else frozenset({()})


# Largest scenario horizon.  A run holds one tuple per slot on every wire,
# so memory grows with the horizon even where quiet slots cost little time.
_HORIZON_LIMIT = 1_000_000

# Most payloads one scenario may carry.  The sender's buffer is a tuple that
# is copied on every enqueue and ack, so a run costs time quadratic in the
# number of payloads waiting in it.
_PAYLOAD_LIMIT = 10_000


@dataclass(frozen=True)
class ScenarioSpec:
    """A replayable end-to-end run: which payloads enter in which slot, the
    oracle for each medium, the observation horizon (1 to 1,000,000 slots),
    and the protocol knobs.  A scenario carries at most 10,000 payloads in
    all.  The seed records the generator invocation for generated scenarios
    and is absent on handcrafted ones."""

    name: str
    payload_slots: Tuple[Tuple[int, ...], ...]
    horizon: int
    data_oracle: OracleSpec
    ack_oracle: OracleSpec
    timeout: int = RESEND_TIMEOUT
    sender_bit: bool = True
    receiver_bit: bool = True
    seed: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(
            self, "payload_slots", tuple(tuple(slot) for slot in self.payload_slots)
        )
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

    def input_stream(self) -> TimedStream:
        """The input wire: the payload slots, then empty slots up to the
        horizon."""
        idle = self.horizon - len(self.payload_slots)
        return TimedStream(lambda: itertools.chain(self.payload_slots, itertools.repeat((), idle)))

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
            payload_slots=tuple(tuple(slot) for slot in slots),
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
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


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
    """
    max_payloads, max_horizon, drop_bound = bounds
    if max_payloads < 0:
        raise ValueError("max payloads must be non-negative")
    if max_horizon < 1:
        raise ValueError("max horizon must be at least 1")
    if not 0.0 <= drop_bound < 1.0:
        raise ValueError("drop probability bound must lie in [0, 1)")

    rng = random.Random(f"scenario:{seed}")
    drop_data = rng.uniform(0.0, drop_bound)
    drop_ack = rng.uniform(0.0, drop_bound)
    pass_both = (1.0 - drop_data) * (1.0 - drop_ack)
    if pass_both >= 1.0:
        attempts = 1
    else:
        attempts = max(1, math.ceil(math.log(_HORIZON_CONFIDENCE) / math.log(1.0 - pass_both)))
    per_message = (RESEND_TIMEOUT + 2) * attempts

    cap = min(max_payloads, max_horizon // per_message)
    count = rng.randint(1, cap) if cap >= 1 else 0
    window = max(1, 2 * count)
    arrivals = sorted(rng.randrange(window) for _ in range(count))
    payload_slots: List[List[int]] = [[] for _ in range((arrivals[-1] + 1) if count else 0)]
    for slot in arrivals:
        payload_slots[slot].append(rng.randrange(10))

    horizon = max(1, min(max_horizon, len(payload_slots) + count * per_message))
    data_oracle = OracleSpec.bernoulli(1.0 - drop_data, rng.randrange(2**32))
    ack_oracle = OracleSpec.bernoulli(1.0 - drop_ack, rng.randrange(2**32))
    return ScenarioSpec(
        name=f"seed-{seed}",
        payload_slots=tuple(tuple(slot) for slot in payload_slots),
        horizon=horizon,
        data_oracle=data_oracle,
        ack_oracle=ack_oracle,
        seed=seed,
    )


class IdentityStatus(Enum):
    PASS = "pass"
    INCONCLUSIVE_HORIZON = "inconclusive-horizon"
    FAIL = "fail"


@dataclass(frozen=True)
class IdentityResult:
    """Outcome of the end-to-end identity check.

    INCONCLUSIVE_HORIZON means the delivered sequence is a strict prefix of
    the sent one: nothing wrong was observed, the horizon was just too short
    to see every delivery.  Order, duplication, or alteration violations are
    hard FAILs carrying the first divergent index and all wire traces.
    """

    scenario: ScenarioSpec
    status: IdentityStatus
    expected: Tuple[Any, ...]
    actual: Tuple[Any, ...]
    divergence: Optional[int] = None
    wires: Optional[Dict[str, Tuple[tuple, ...]]] = None
    warnings: Tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.status is IdentityStatus.PASS

    def __bool__(self) -> bool:
        return self.passed


def run_scenario(scenario: ScenarioSpec) -> Tuple[NetworkRun, Tuple[str, ...]]:
    """Run the composed protocol over the scenario's horizon.  Returns the
    recorded wires and the fairness warnings of the scenario's oracles."""
    warnings = []
    for label, oracle in (("data", scenario.data_oracle), ("ack", scenario.ack_oracle)):
        warning = oracle.fairness_warning()
        if warning:
            warnings.append(f"{label} oracle: {warning}")
    net = build_abp_network(
        scenario.data_oracle,
        scenario.ack_oracle,
        timeout=scenario.timeout,
        sender_bit=scenario.sender_bit,
        receiver_bit=scenario.receiver_bit,
    )
    run = run_network(net, {"input": scenario.input_stream()}, scenario.horizon)
    return run, tuple(warnings)


def check_identity(scenario: ScenarioSpec) -> IdentityResult:
    """Run the composed protocol on a scenario and compare untimed output
    against untimed input."""
    run, warnings = run_scenario(scenario)
    expected = scenario.payloads()
    actual = tuple(p for slot in run.slots["out"] for p in slot)

    if actual == expected:
        status, divergence, wires = IdentityStatus.PASS, None, None
    elif len(actual) < len(expected) and actual == expected[: len(actual)]:
        status, divergence = IdentityStatus.INCONCLUSIVE_HORIZON, None
        wires = {w: tuple(run.slots[w]) for w in run.wire_order}
    else:
        status = IdentityStatus.FAIL
        divergence = next(
            (i for i, (a, e) in enumerate(zip(actual, expected)) if a != e),
            min(len(actual), len(expected)),
        )
        wires = {w: tuple(run.slots[w]) for w in run.wire_order}

    return IdentityResult(
        scenario=scenario,
        status=status,
        expected=expected,
        actual=actual,
        divergence=divergence,
        wires=wires,
        warnings=warnings,
    )
