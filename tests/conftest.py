import copy
import dataclasses

import pytest

# One line per acceptance criterion, printed after the run so the verdicts
# survive pytest's output capture.
_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_log():
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def _rewire(net, start=lambda state: state, delta=lambda step: step):
    """A copy of `net` with every component's start state and delta passed
    through `start` and `delta`; wiring and initializers are shared."""
    rewired = copy.copy(net)
    rewired._components = {
        name: dataclasses.replace(comp, start=start(comp.start), delta=delta(comp.delta))
        for name, comp in net._components.items()
    }
    return rewired


class Restless:
    """A state box that never compares equal, not even to itself.  A network
    whose states are all boxed never reaches a fixed point, so `run_network`
    steps every delta in every slot: the plain evaluator that its quiet-slot
    fast-forward must match."""

    __slots__ = ("state",)
    __hash__ = None

    def __init__(self, state):
        self.state = state

    def __eq__(self, other):
        return False


def _restless(delta):
    def step(box, item):
        state, outputs = delta(box.state, item)
        return Restless(state), outputs

    return step


@pytest.fixture(scope="session")
def rewire():
    return _rewire


@pytest.fixture(scope="session")
def full_stepping():
    """Maps a NetworkSpec to a copy that `run_network` steps in full."""
    return lambda net: _rewire(net, Restless, _restless)
