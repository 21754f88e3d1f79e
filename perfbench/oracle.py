"""Independent reference simulator the benchmark checks every output against.

It shares no code with ``catalyq``: its own circuit-text reader, its own gate
matrices (built from Pauli algebra), and a per-gate Kronecker apply. A
one-qubit gate on wire q of an n-wire register acts as I(2^q) (x) M (x)
I(2^(n-q-1)), which is a batched matmul on a (2^q, 2, rest) view; a
multi-qubit gate is the same matmul after its operand axes are moved to the
front, or, when diagonal (CZ, CS, CCZ), a broadcast multiply by its diagonal
laid out on the operand axes. Wire 0 is the most significant bit of the amplitude index, as in the
program's text format.

A circuit here is ``(num_qubits, ops)`` with ``ops`` a list of
``(name, angle or None, qubits)``.
"""

from __future__ import annotations

import math

import numpy as np

_I2 = np.eye(2, dtype=complex)
_PX = np.array([[0, 1], [1, 0]], dtype=complex)
_PY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PZ = np.array([[1, 0], [0, -1]], dtype=complex)

TOKEN_STATES = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / math.sqrt(2),
    "-": np.array([1, -1], dtype=complex) / math.sqrt(2),
    "+i": np.array([1, 1j], dtype=complex) / math.sqrt(2),
    "-i": np.array([1, -1j], dtype=complex) / math.sqrt(2),
}
KET_PLUS_I = TOKEN_STATES["+i"]


def _rotation(pauli: np.ndarray, theta: float) -> np.ndarray:
    # exp(-i theta P / 2) for a Pauli P.
    return math.cos(theta / 2) * _I2 - 1j * math.sin(theta / 2) * pauli


def _diag_last(k: int, phase: complex) -> np.ndarray:
    d = np.ones(1 << k, dtype=complex)
    d[-1] = phase
    return np.diag(d)


_FIXED = {
    "H": (_PX + _PZ) / math.sqrt(2),
    "X": _PX,
    "Z": _PZ,
    "S": np.diag([1, 1j]).astype(complex),
    "SDG": np.diag([1, -1j]).astype(complex),
    "CZ": _diag_last(2, -1),
    "CS": _diag_last(2, 1j),
    "CCZ": _diag_last(3, -1),
}
_PAULI_AXIS = {"RX": _PX, "RY": _PY, "RZ": _PZ}


# Diagonal multi-qubit gates, as the tensor of their diagonal.
_DIAGONALS = {name: np.diag(_FIXED[name]).reshape([2] * k) for name, k in (("CZ", 2), ("CS", 2), ("CCZ", 3))}


def gate_matrix(name: str, angle: float | None = None) -> np.ndarray:
    """Matrix of one gate in its own operand order (first operand = MSB)."""
    if name in _FIXED:
        return _FIXED[name]
    if name in _PAULI_AXIS and angle is not None:
        return _rotation(_PAULI_AXIS[name], angle)
    raise ValueError(f"reference has no gate {name!r} (angle {angle!r})")


def parse_text(text: str) -> tuple[int, list[tuple[str, float | None, tuple[int, ...]]]]:
    """Read the circuit text format: 'qubits n', then 'NAME[(angle)] q...' lines."""
    n = None
    ops = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *operands = line.split()
        if n is None:
            if head.lower() != "qubits" or len(operands) != 1:
                raise ValueError(f"expected a 'qubits n' header, got {line!r}")
            n = int(operands[0])
            continue
        name, _, rest = head.partition("(")
        angle = float(rest.rstrip(")")) if rest else None
        ops.append((name.upper(), angle, tuple(int(q) for q in operands)))
    if n is None:
        raise ValueError("circuit text has no 'qubits n' header")
    return n, ops


def ops_of(circuit) -> list[tuple[str, float | None, tuple[int, ...]]]:
    """Read a program ``Circuit`` object into reference ops."""
    return [(g.kind.gate.value, g.kind.angle, tuple(g.qubits)) for g in circuit.gates]


def apply(state: np.ndarray, n: int, mat: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Apply a gate to a (2^n, batch) block of column states."""
    batch = state.shape[1]
    if len(qubits) == 1:
        q = qubits[0]
        view = state.reshape(1 << q, 2, (1 << (n - q - 1)) * batch)
        return np.matmul(mat, view).reshape(state.shape)
    # Bring the operand axes to the front, multiply, and put them back.
    perm = [*qubits, *(a for a in range(n + 1) if a not in qubits)]
    inverse = sorted(range(n + 1), key=perm.__getitem__)
    moved = state.reshape([2] * n + [batch]).transpose(perm)
    out = np.matmul(mat, moved.reshape(mat.shape[1], -1)).reshape(moved.shape)
    return out.transpose(inverse).reshape(state.shape)


def apply_diagonal(state: np.ndarray, n: int, diag: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Apply a diagonal gate, given as the tensor of its diagonal, by broadcasting.

    (I (x) D (x) I) psi multiplies each amplitude by the entry of D its
    operand bits select, so D is laid out on the operand axes and broadcast.
    """
    ascending = sorted(range(len(qubits)), key=qubits.__getitem__)
    shape = [1] * (n + 1)
    for q in qubits:
        shape[q] = 2
    factor = diag.transpose(ascending).reshape(shape)
    return (state.reshape([2] * n + [state.shape[1]]) * factor).reshape(state.shape)


def simulate(n: int, ops, state: np.ndarray) -> np.ndarray:
    """Evolve a statevector (2^n,) or a block of columns (2^n, batch)."""
    block = np.asarray(state, dtype=complex).reshape(1 << n, -1)
    for name, angle, qubits in ops:
        if max(qubits) >= n:
            raise ValueError(f"{name} on wire {max(qubits)} outside {n} wires")
        if name in _DIAGONALS:
            block = apply_diagonal(block, n, _DIAGONALS[name], qubits)
        else:
            block = apply(block, n, gate_matrix(name, angle), qubits)
    return block.reshape(np.shape(state))


def product(vectors) -> np.ndarray:
    """Kronecker product of single-wire states, wire 0 first."""
    out = np.ones(1, dtype=complex)
    for v in vectors:
        out = np.kron(out, v)
    return out


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over phases c of ||a - c b||_F / sqrt(2 dim): 0 iff a = e^{i phi} b."""
    t = np.vdot(b, a)
    c = t / abs(t) if abs(t) > 0 else 1.0
    return float(np.linalg.norm(a - c * b)) / math.sqrt(2 * a.shape[0])


def induced_operator(
    n: int, ops, fixed_in: dict[int, np.ndarray], fixed_out: dict[int, np.ndarray]
) -> np.ndarray:
    """Operator the circuit induces on the free wires, fixed wires sandwiched.

    Free wires must be the lowest indices 0..m-1 and fixed wires the rest;
    column d is <fixed_out| U (|d> (x) |fixed_in>).
    """
    m = n - len(fixed_in)
    if sorted(fixed_in) != list(range(m, n)) or set(fixed_out) != set(fixed_in):
        raise ValueError("fixed wires must be the highest wires, same on both sides")
    tail_in = product(fixed_in[w] for w in range(m, n))
    tail_out = product(fixed_out[w] for w in range(m, n))
    columns = np.kron(np.eye(1 << m, dtype=complex), tail_in.reshape(-1, 1))
    out = simulate(n, ops, columns).reshape(1 << m, tail_in.shape[0], 1 << m)
    return np.einsum("t,dtc->dc", tail_out.conj(), out)
