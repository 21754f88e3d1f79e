"""Catalytic circuit gadgets.

Each builder returns a small circuit together with the operator it claims to
induce on its data wires when the catalyst wire is fed the |+i> state
(|0> + i|1>)/sqrt(2). The catalyst comes back exactly, so one copy can be
reused across any number of gadget instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ir import HCCZ, Circuit, check_membership, ccz, cry, cz, h
from .ir import Gate, GateKind
from .sim import KET_0, KET_MINUS_I, KET_PLUS_I, AuxWire, Induced, evolve_columns, gate_matrix, induce

_S = gate_matrix(GateKind(Gate.S))
_CS = gate_matrix(GateKind(Gate.CS))
# Largest ``PrepCheck.max_error`` that ``verify_one_prep`` passes.
PREP_TOL = 1e-10
# Below this magnitude ``verify_one_prep`` has no phase to align on and takes 1.
_PHASE_GUARD = 1e-12
# Largest shortfall of |<-i| H |+i>| from 1 that ``catalyst_flip_check`` passes.
FLIP_TOL = 1e-13


@dataclass(frozen=True)
class Gadget:
    """A circuit claiming: catalyst preserved, ``claimed_induced`` on data.

    The claim carries its global phase (e.g. exp(i theta/2) Rz(theta) for
    the Rz gadget), which no check quotients. ``aux`` wires enter and leave
    in fixed basis states and are not part of the data register.
    """

    circuit: Circuit
    catalyst_qubit: int
    data_qubits: tuple[int, ...]
    claimed_induced: np.ndarray
    aux: tuple[AuxWire, ...] = ()


def rz_gadget(theta: float) -> Gadget:
    """Controlled-Ry(-2 theta) from data onto the catalyst.

    Induces exp(i theta / 2) Rz(theta) on the data qubit. The full two-qubit
    matrix is [[1,0,0,0],[0,cos,0,sin],[0,0,1,0],[0,-sin,0,cos]] with
    cos = cos(theta), sin = sin(theta): identity on data |0>, a y-rotation of
    the catalyst keyed to data |1>.
    """
    circuit = Circuit(2, (cry(-2.0 * theta, 1, 0),))
    induced = np.exp(0.5j * theta) * gate_matrix(GateKind(Gate.RZ, theta))
    return Gadget(
        circuit=circuit,
        catalyst_qubit=0,
        data_qubits=(1,),
        claimed_induced=induced,
    )


def s_gadget() -> Gadget:
    """S on the data qubit from two H's and two CZ's touching the catalyst.

    The circuit unitary is identity on data |0> and i Y on the catalyst keyed
    to data |1>; since |+i> is the +1 eigenstate of Y the induced operator is
    exactly diag(1, i) with zero residual phase.
    """
    circuit = Circuit(2, (h(0), cz(1, 0), h(0), cz(1, 0)))
    return Gadget(
        circuit=circuit,
        catalyst_qubit=0,
        data_qubits=(1,),
        claimed_induced=_S.copy(),
    )


def cs_gadget() -> Gadget:
    """Controlled-S on two data qubits from two H's and two CCZ's.

    Same structure as :func:`s_gadget` with the CZ's promoted to CCZ's, so the
    i Y kicks in only on data |11>. Uses no |0> ancilla.
    """
    circuit = Circuit(3, (h(0), ccz(1, 2, 0), h(0), ccz(1, 2, 0)))
    return Gadget(
        circuit=circuit,
        catalyst_qubit=0,
        data_qubits=(1, 2),
        claimed_induced=_CS.copy(),
    )


def induced_on_data(g: Gadget) -> Induced:
    """``sim.induce`` of a gadget: the catalyst fed |+i> and read <+i|, each
    aux wire fed its in-bit and read at its out-bit, so the block acts on
    ``g.data_qubits`` (ascending by construction) and an aux wire that misses
    its out-bit reads as leakage. Raises ValueError if a wire is fixed twice."""
    return induce(g.circuit, g.catalyst_qubit, g.aux)


@dataclass(frozen=True)
class PrepCheck:
    """Outcome of checking a |0>->|1> preparation circuit on one wire."""

    passes: bool
    max_error: float
    gate_set_ok: bool
    phase: float


def verify_one_prep(c: Circuit, target_qubit: int) -> PrepCheck:
    """Check that ``c`` maps |0> on ``target_qubit`` to |1> and fixes the rest.

    All 2^(n-1) bystander basis states must ride along unchanged, up to one
    global phase shared by every input; the phase is aligned on the first
    basis state and reported so a strict caller can demand it be zero.
    ``gate_set_ok`` records whether the circuit stays inside {H, CCZ}. It is
    one column pass, so past ``sim.MAX_DENSE_QUBITS`` wires it raises.
    """
    if not 0 <= target_qubit < c.num_qubits:
        raise ValueError(f"target qubit {target_qubit} out of range")
    cols = evolve_columns(c, {target_qubit: KET_0})
    dim = cols.shape[-1]
    zero, one = np.moveaxis(cols, target_qubit, 0).reshape(2, dim, dim)
    lam = one[0, 0] / abs(one[0, 0]) if abs(one[0, 0]) > _PHASE_GUARD else 1.0
    miss = np.stack([zero, one - lam * np.eye(dim)])  # (target bit, bystanders, input)
    max_error = float(np.linalg.norm(miss, axis=(0, 1)).max())
    return PrepCheck(
        passes=max_error <= PREP_TOL,
        max_error=max_error,
        gate_set_ok=not check_membership(c, HCCZ),
        phase=float(np.angle(lam)),
    )


def s_via_prep(prep: Circuit, target_qubit: int) -> Gadget:
    """S on a data qubit from a verified |1>-prep circuit plus the CS gadget.

    The prep's target wire becomes one control of the two CCZ's; the gadget
    adds 2 CCZ on top of the prep's own count. The prep's other wires are
    reused as catalyst and data (it acts as identity on them by the check),
    with fresh wires appended only if it has fewer than two bystanders.
    """
    check = verify_one_prep(prep, target_qubit)
    if not check.passes:
        raise ValueError(
            f"prep circuit fails |1>-prep verification (max error {check.max_error:.3e})"
        )
    bystanders = [q for q in range(prep.num_qubits) if q != target_qubit]
    pool = bystanders + [prep.num_qubits, prep.num_qubits + 1]
    cat, data = pool[0], pool[1]
    extras = bystanders[2:]
    n = max(prep.num_qubits, data + 1, cat + 1)
    gates = tuple(prep.gates) + (
        h(cat),
        ccz(target_qubit, data, cat),
        h(cat),
        ccz(target_qubit, data, cat),
    )
    return Gadget(
        circuit=Circuit(n, gates),
        catalyst_qubit=cat,
        data_qubits=(data, *extras),
        claimed_induced=np.exp(1j * check.phase) * np.kron(_S, np.eye(1 << len(extras))),
        aux=(AuxWire(target_qubit, 0, 1),),
    )


@dataclass(frozen=True)
class FlipCheck:
    """H sends |+i> to |-i> up to a phase; ``phase`` is that phase (pi/4)."""

    ok: bool
    phase: float


def catalyst_flip_check() -> FlipCheck:
    """Confirm |<-i| H |+i>| = 1 and report the quotiented phase."""
    out = gate_matrix(GateKind(Gate.H)) @ KET_PLUS_I
    overlap = complex(np.vdot(KET_MINUS_I, out))
    return FlipCheck(ok=abs(abs(overlap) - 1.0) <= FLIP_TOL, phase=float(np.angle(overlap)))
