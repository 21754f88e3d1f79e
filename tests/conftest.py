"""Session-wide gates and shared helpers for the test suite."""

import numpy as np
import pytest

from catalyq.ir import Circuit, Gate, GateApp, GateKind
from catalyq.lowering import check_lemmas


@pytest.fixture(scope="session", autouse=True)
def lemma_table_holds():
    # Every algebraic identity the rewrite rules rely on is machine-checked
    # before any test runs; a broken lemma fails the whole session at once.
    worst = check_lemmas()
    assert worst <= 1e-13, f"lemma table broken, worst entrywise error {worst:.3e}"


@pytest.fixture
def refuse_big_arrays(monkeypatch):
    """Make numpy's allocators used by the simulator fail instead of allocating.

    Width guards must fire before any 2^n array exists; with this fixture a
    missing guard fails the test instead of allocating gigabytes.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("allocated past the width guard")

    monkeypatch.setattr(np, "zeros", refuse)
    monkeypatch.setattr(np, "eye", refuse)
    monkeypatch.setattr(np, "kron", refuse)


def random_circuit(rng, num_qubits, num_gates, tags=None):
    """Random circuit over the given tags (default: all that fit the width)."""
    pool = [g for g in (tags or Gate) if g.arity <= num_qubits]
    apps = []
    for _ in range(num_gates):
        gate = pool[int(rng.integers(len(pool)))]
        qubits = tuple(
            int(q) for q in rng.choice(num_qubits, size=gate.arity, replace=False)
        )
        angle = float(rng.uniform(-2 * np.pi, 2 * np.pi)) if gate.takes_angle else None
        apps.append(GateApp(GateKind(gate, angle), qubits))
    return Circuit(num_qubits, tuple(apps))
