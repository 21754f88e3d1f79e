"""Catalytic gadgets: claimed operators, catalyst restoration, prep checks."""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalyq.gadgets import (
    AuxWire,
    Gadget,
    catalyst_flip_check,
    cs_gadget,
    induced_on_data,
    rz_gadget,
    s_gadget,
    s_via_prep,
    verify_one_prep,
)
from catalyq.ir import Circuit, Gate, GateApp, GateKind, ccz, circuit_of, gate_counts, h, x, z
from catalyq.sim import (
    CATALYTIC_TOL,
    KET_0,
    KET_1,
    KET_MINUS_I,
    KET_PLUS_I,
    MAX_DENSE_QUBITS,
    basis_state,
    circuit_unitary,
    extract_catalytic,
    gate_matrix,
    phase_aligned_distance,
    product_state,
    run,
)
from conftest import random_circuit
from oracles import project_wires

S_MAT = np.diag([1.0, 1j])
THETAS = [2.0 * math.pi * k / 16.0 for k in range(16)]


def rz_matrix(theta):
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def assert_induces(g, want, tol):
    """``induced_on_data(g)``'s block is within ``tol`` of ``want`` entrywise,
    and its catalyst deficit and leakage are within ``CATALYTIC_TOL``."""
    got = induced_on_data(g)
    assert max(got.catalyst_deficit, got.leakage) <= CATALYTIC_TOL
    assert np.abs(got.block - want).max() <= tol


# --- rz gadget ---

def test_rz_gadget_zero_angle_is_identity():
    g = rz_gadget(0.0)
    assert np.array_equal(circuit_unitary(g.circuit), np.eye(4))
    assert_induces(g, np.eye(2), 1e-15)


def test_rz_gadget_half_pi_induces_s():
    assert_induces(rz_gadget(math.pi / 2), S_MAT, 1e-13)


def test_rz_gadget_pi_induces_z():
    g = rz_gadget(math.pi)
    block = induced_on_data(g).block
    assert np.abs(block - np.diag([1.0, -1.0])).max() <= 1e-13
    # Full unitary: identity on data |0>, minus identity on data |1>.
    assert np.abs(circuit_unitary(g.circuit) - np.diag([1.0, -1, 1, -1])).max() <= 1e-13


def test_rz_gadget_matrix_structure():
    for theta in THETAS:
        u = circuit_unitary(rz_gadget(theta).circuit)
        c, s = math.cos(theta), math.sin(theta)
        expected = np.array(
            [[1, 0, 0, 0], [0, c, 0, s], [0, 0, 1, 0], [0, -s, 0, c]], dtype=complex
        )
        assert np.abs(u - expected).max() <= 1e-13


def test_rz_gadget_angle_sweep():
    for k in range(32):
        theta = 2.0 * math.pi * k / 32.0
        g = rz_gadget(theta)
        u = circuit_unitary(g.circuit)
        rep = extract_catalytic(u, g.catalyst_qubit, KET_PLUS_I)
        assert rep.is_catalytic
        assert phase_aligned_distance(rep.induced, rz_matrix(theta)) <= 1e-12
        # Phase is part of the claim, not quotiented.
        claimed = np.exp(0.5j * theta) * rz_matrix(theta)
        assert np.abs(rep.induced - claimed).max() <= 1e-12
        assert np.abs(g.claimed_induced - claimed).max() <= 1e-15


# --- s gadget ---

def test_s_gadget_unitary_matrix():
    g = s_gadget()
    expected = np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0]], dtype=complex
    )
    assert np.abs(circuit_unitary(g.circuit) - expected).max() <= 1e-13


def test_s_gadget_gate_multiset():
    counts = gate_counts(s_gadget().circuit)
    assert counts[Gate.H] == 2
    assert counts[Gate.CZ] == 2
    assert sum(counts.values()) == 4


def test_s_gadget_is_real():
    u = circuit_unitary(s_gadget().circuit)
    assert np.abs(u.imag).max() <= 1e-13


def test_s_gadget_action_on_basis_data():
    g = s_gadget()
    fixed = product_state(["+i", "0"])
    assert np.abs(run(g.circuit, fixed) - fixed).max() <= 1e-13
    kicked = product_state(["+i", "1"])
    assert np.abs(run(g.circuit, kicked) - 1j * kicked).max() <= 1e-13


def test_s_gadget_induces_s_exactly():
    assert_induces(s_gadget(), S_MAT, 1e-13)
    assert np.array_equal(s_gadget().claimed_induced, S_MAT)  # no global phase


# --- controlled-s gadget ---

def test_cs_gadget_unitary_matrix():
    g = cs_gadget()
    p11 = np.zeros((4, 4))
    p11[3, 3] = 1.0
    iy = 1j * np.array([[0, -1j], [1j, 0]])  # catalyst factor, = [[0,1],[-1,0]]
    expected = np.kron(np.eye(2), np.eye(4) - p11) + np.kron(iy, p11)
    assert np.abs(circuit_unitary(g.circuit) - expected).max() <= 1e-13


def test_cs_gadget_membership_and_counts():
    from catalyq.ir import HCCZ, check_membership

    g = cs_gadget()
    assert check_membership(g.circuit, HCCZ) == []
    counts = gate_counts(g.circuit)
    assert counts[Gate.H] == 2
    assert counts[Gate.CCZ] == 2


def test_cs_gadget_action_on_basis_data():
    g = cs_gadget()
    fixed = product_state(["+i", "0", "1"])
    assert np.abs(run(g.circuit, fixed) - fixed).max() <= 1e-13
    kicked = product_state(["+i", "1", "1"])
    assert np.abs(run(g.circuit, kicked) - 1j * kicked).max() <= 1e-13


def test_cs_gadget_induces_controlled_s():
    assert_induces(cs_gadget(), np.diag([1, 1, 1, 1j]), 1e-13)


def test_cs_gadget_control_one_block_is_s():
    # On the subspace where the first data qubit is |1>, the induced operator
    # acts as S on the second data qubit.
    block = induced_on_data(cs_gadget()).block
    assert np.abs(block[2:, 2:] - S_MAT).max() <= 1e-13
    assert np.abs(block[:2, :2] - np.eye(2)).max() <= 1e-13


# --- catalyst restoration ---

def test_catalyst_restored_across_gadgets():
    gadgets = [rz_gadget(t) for t in THETAS] + [s_gadget(), cs_gadget()]
    for g in gadgets:
        u = circuit_unitary(g.circuit)
        rep = extract_catalytic(u, g.catalyst_qubit, KET_PLUS_I)
        assert rep.is_catalytic
        assert rep.catalyst_deficit <= 1e-12


# --- the column pass against the full dense unitary ---

@st.composite
def gadget_cases(draw):
    """A random 2-4-wire circuit as a gadget: catalyst on any wire, 0-1 aux."""
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = random_circuit(rng, n, draw(st.integers(0, 6)))
    cat = draw(st.integers(0, n - 1))
    rest = [q for q in range(n) if q != cat]
    aux = ()
    if n > 2 and draw(st.booleans()):
        aux = (AuxWire(draw(st.sampled_from(rest)), draw(st.integers(0, 1)),
                       draw(st.integers(0, 1))),)
    data = tuple(q for q in rest if q not in {a.qubit for a in aux})
    return Gadget(c, cat, data, np.eye(1 << len(data)), aux)


def full_unitary_report(g):
    """(block, deficit, leakage) read off the full dense unitary.

    For each pair of a catalyst bra (<+i| or <-i|) and aux out-bits,
    project_wires sandwiches the unitary between it and the declared inputs.
    The declared pair (<+i|, out-bits) is the block; the deficit is the
    largest column norm over the <-i| pairs, and the leakage over all but
    the declared one."""
    n = g.circuit.num_qubits
    u = circuit_unitary(g.circuit)
    bits = (KET_0, KET_1)
    ins = {g.catalyst_qubit: KET_PLUS_I, **{a.qubit: bits[a.in_bit] for a in g.aux}}
    parts = {}
    for bra, out_bits in itertools.product((KET_PLUS_I, KET_MINUS_I),
                                           itertools.product((0, 1), repeat=len(g.aux))):
        outs = {g.catalyst_qubit: bra, **{a.qubit: bits[b] for a, b in zip(g.aux, out_bits)}}
        parts[bra is KET_MINUS_I, out_bits] = project_wires(u, n, ins, outs)
    declared = (False, tuple(a.out_bit for a in g.aux))

    def largest_norm(keys):
        return float(np.sqrt(sum((np.abs(parts[k]) ** 2).sum(axis=0) for k in keys).max()))

    return (parts[declared], largest_norm([k for k in parts if k[0]]),
            largest_norm([k for k in parts if k != declared]))


@settings(max_examples=150, deadline=None)
@given(gadget_cases())
def test_induced_on_data_matches_full_unitary(g):
    got = induced_on_data(g)
    block, deficit, leakage = full_unitary_report(g)
    assert got.block.shape == block.shape
    assert np.abs(got.block - block).max() <= 1e-12
    assert abs(got.catalyst_deficit - deficit) <= 1e-12
    assert abs(got.leakage - leakage) <= 1e-12
    if not g.aux:
        old = extract_catalytic(circuit_unitary(g.circuit), g.catalyst_qubit, KET_PLUS_I)
        unitary = np.linalg.norm(block.conj().T @ block - np.eye(len(block))) <= 1e-12
        assert old.is_catalytic == (deficit <= 1e-12 and unitary)
        assert abs(old.catalyst_deficit - got.catalyst_deficit) <= 1e-12
        if old.is_catalytic:
            assert np.abs(old.induced - got.block).max() <= 1e-12


def test_an_aux_wire_that_misses_its_out_bit_reads_as_leakage():
    # The S gadget beside a wire declared 0 -> 1 that nothing flips: the
    # catalyst comes back, but every column leaves the block.
    s = s_gadget()
    g = Gadget(Circuit(3, s.circuit.gates), s.catalyst_qubit, s.data_qubits,
               s.claimed_induced, (AuxWire(2, 0, 1),))
    got = induced_on_data(g)
    assert got.catalyst_deficit <= CATALYTIC_TOL
    assert got.leakage >= 0.99
    assert got.error(g.claimed_induced) > CATALYTIC_TOL


# --- one-prep verification ---

def loop_prep_check(c, target_qubit, tol=1e-10):
    """(passes, max_error, phase) from one ``run`` per bystander basis state."""
    n = c.num_qubits
    shift = n - 1 - target_qubit
    rest = [q for q in range(n) if q != target_qubit]
    phase = 0.0
    lam = 1.0 + 0.0j
    max_error = 0.0
    for k in range(1 << (n - 1)):
        # Scatter the bystander bits around the target wire.
        idx_in = 0
        for j, q in enumerate(rest):
            bit = (k >> (n - 2 - j)) & 1
            idx_in |= bit << (n - 1 - q)
        out = run(c, basis_state(n, idx_in))
        expected = basis_state(n, idx_in | (1 << shift))
        if k == 0:
            overlap = complex(np.vdot(expected, out))
            if abs(overlap) > 1e-12:
                lam = overlap / abs(overlap)
            phase = float(np.angle(lam))
        max_error = max(max_error, float(np.linalg.norm(out - lam * expected)))
    return max_error <= tol, max_error, phase


_INVOLUTIONS = [Gate.H, Gate.X, Gate.Z, Gate.CZ, Gate.CCZ]


@st.composite
def prep_cases(draw):
    """A random circuit, or a passing prep: X on the target, a self-inverse
    pad and its mirror, then phase gates on the target alone."""
    n = draw(st.integers(1, 4))
    target = draw(st.integers(0, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_circuit(rng, n, draw(st.integers(0, 6))), target
    pad = random_circuit(rng, n, draw(st.integers(0, 3)), _INVOLUTIONS).gates
    phases = draw(st.lists(st.sampled_from([Gate.Z, Gate.S, Gate.SDG]), max_size=3))
    tail = tuple(GateApp(GateKind(g), (target,)) for g in phases)
    return Circuit(n, (x(target),) + pad + pad[::-1] + tail), target


@settings(max_examples=150, deadline=None)
@given(prep_cases())
def test_verify_prep_matches_per_state_runs(case):
    c, target = case
    check = verify_one_prep(c, target)
    passes, max_error, phase = loop_prep_check(c, target)
    assert check.passes == passes
    assert abs(check.max_error - max_error) <= 1e-12
    assert abs(cmath.exp(1j * check.phase) - cmath.exp(1j * phase)) <= 1e-12


def test_verify_prep_width_cap_is_checked_before_allocating(refuse_big_arrays):
    with pytest.raises(ValueError, match="capped"):
        verify_one_prep(circuit_of(MAX_DENSE_QUBITS + 1, x(0)), 0)



def test_verify_prep_x_shortcut():
    check = verify_one_prep(circuit_of(3, x(0)), 0)
    assert check.passes
    assert not check.gate_set_ok  # X sits outside {H, CCZ}
    assert check.max_error <= 1e-15
    assert abs(check.phase) <= 1e-15


def test_verify_prep_empty_circuit_fails():
    check = verify_one_prep(Circuit(3), 0)
    assert not check.passes
    assert check.max_error > 0.5


def test_verify_prep_superposition_fails():
    check = verify_one_prep(circuit_of(2, h(0)), 0)
    assert not check.passes


def test_verify_prep_must_fix_bystanders():
    # Net |1> on the target but an X left on a bystander wire: not a prep.
    check = verify_one_prep(circuit_of(2, x(0), x(1)), 0)
    assert not check.passes


def test_verify_prep_with_redundant_ccz_pair():
    # CCZ is an involution, so a doubled CCZ is allowed padding.
    c = circuit_of(3, x(0), ccz(0, 1, 2), ccz(0, 1, 2))
    check = verify_one_prep(c, 0)
    assert check.passes
    assert gate_counts(c)[Gate.CCZ] == 2


def test_verify_prep_target_range():
    with pytest.raises(ValueError, match="out of range"):
        verify_one_prep(Circuit(2), 2)


# --- s from a prep circuit ---

def test_s_via_prep_x_shortcut():
    g = s_via_prep(circuit_of(1, x(0)), 0)
    assert gate_counts(g.circuit)[Gate.CCZ] == 2  # prep adds 0, gadget adds 2
    assert_induces(g, S_MAT, 1e-12)


def test_s_via_prep_counts_prep_ccz():
    prep = circuit_of(3, x(0), ccz(0, 1, 2), ccz(0, 1, 2))
    g = s_via_prep(prep, 0)
    assert gate_counts(g.circuit)[Gate.CCZ] == 2 + 2
    assert_induces(g, S_MAT, 1e-12)


def test_s_via_prep_extra_bystanders_ride_along():
    prep = circuit_of(4, x(0))
    g = s_via_prep(prep, 0)
    assert_induces(g, np.kron(S_MAT, np.eye(2)), 1e-12)


def test_s_via_prep_claims_the_prep_phase():
    # X then Z hands over -|1>, so the gadget induces -S, and claims it.
    g = s_via_prep(circuit_of(1, x(0), z(0)), 0)
    assert np.abs(g.claimed_induced + S_MAT).max() <= 1e-15
    assert_induces(g, -S_MAT, 1e-12)


def test_s_via_prep_rejects_bad_prep():
    with pytest.raises(ValueError, match="fails"):
        s_via_prep(Circuit(2), 0)


# --- catalyst flip ---

def test_catalyst_flip():
    flip = catalyst_flip_check()
    assert flip.ok
    assert abs(flip.phase - math.pi / 4) <= 1e-12


def test_catalyst_flip_orthogonality():
    h_mat = gate_matrix(GateKind(Gate.H))
    assert abs(np.vdot(KET_PLUS_I, h_mat @ KET_PLUS_I)) <= 1e-13


def test_double_h_returns_catalyst():
    h_mat = gate_matrix(GateKind(Gate.H))
    assert np.abs(h_mat @ (h_mat @ KET_PLUS_I) - KET_PLUS_I).max() <= 1e-15
