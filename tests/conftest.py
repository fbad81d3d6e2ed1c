import numpy as np
import pytest

from ndmonogamy import classical, nodisturbance, quantum, region
from ndmonogamy.scenario import Behavior


@pytest.fixture(scope="session")
def uniform_behavior():
    return Behavior.uniform()


@pytest.fixture(scope="session")
def nd_behaviors():
    """A shared pool of random no-disturbance behaviors."""
    return nodisturbance.sample_behaviors(50, seed=1234)


@pytest.fixture(scope="session")
def quantum_behaviors():
    """Behaviors of a few random pure states."""
    states = quantum.random_states(10, seed=99)
    return [quantum.behavior_from_state(s) for s in states]


@pytest.fixture(scope="session")
def basis_state_behavior():
    """Behavior of |20> (qutrit level 2, qubit level 0)."""
    e20 = np.zeros(6, dtype=complex)
    e20[4] = 1.0
    return quantum.behavior_from_state(e20)


@pytest.fixture
def bound_slack(monkeypatch):
    """A setter of ``BOUND_SLACK`` in ``classical`` and in every module that
    imports it, undone after the test."""

    def move(value: float) -> None:
        for module in (classical, nodisturbance, region):
            monkeypatch.setattr(module, "BOUND_SLACK", value)

    return move
