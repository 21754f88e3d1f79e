"""Synthesis: one-qubit emission, CZ-based decomposition, full pipeline."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from catalyq.ir import REAL_O2_CCZ, Gate, GateKind, check_membership, gate_counts
from catalyq.sim import circuit_unitary, gate_matrix, phase_aligned_distance
from catalyq import lowering, sim, synth
from catalyq.sim import Induced
from catalyq.synth import (
    DECOMPOSE_TOL,
    VERIFY_TOL,
    SynthesisError,
    decompose_su2m,
    format_matrix,
    haar_su,
    haar_unitary,
    parse_matrix,
    synthesize,
)


def rx(t):
    return gate_matrix(GateKind(Gate.RX, t))


# --- one-qubit emission ---

def emitted_matrix(u):
    """``synth._emit_1q(u, 0)`` as one 2x2 matrix, with its gate tags."""
    apps = synth._emit_1q(u, 0)
    got = np.eye(2, dtype=complex)
    for app in apps:
        assert app.qubits == (0,)
        got = gate_matrix(app.kind) @ got
    return got, [app.kind.gate for app in apps]


def equal_up_to_phase(a, b, tol):
    overlap = np.vdot(a, b)
    return np.abs(overlap / abs(overlap) * a - b).max() <= tol


def test_one_qubit_emission_reproduces_haar_unitaries():
    for seed in range(100):
        u = haar_unitary(2, seed)
        got, _ = emitted_matrix(u)
        assert equal_up_to_phase(got, u, 1e-12)


@pytest.mark.parametrize("family", [Gate.RX, Gate.RY])
def test_one_qubit_rotation_emits_one_gate_of_its_family(family):
    # A half turn of RX is X up to phase, and a full turn is the identity.
    allowed = {Gate.RX, Gate.X} if family is Gate.RX else {Gate.RY}
    for k in range(32):
        t = -2.0 * math.pi + 4.0 * math.pi * (k + 1) / 32.0  # spans (-2pi, 2pi]
        u = gate_matrix(GateKind(family, t))
        got, gates = emitted_matrix(u)
        assert equal_up_to_phase(got, u, 1e-12)
        if math.remainder(t, 2.0 * math.pi) == 0.0:
            assert gates == []
        else:
            assert len(gates) == 1 and gates[0] in allowed


NAMED = (None, Gate.X, Gate.Z, Gate.H, Gate.S, Gate.SDG)
NEAR_TURNS = (0.0, math.pi, -math.pi, 2.0 * math.pi, -2.0 * math.pi)


@st.composite
def one_qubit_cases(draw):
    """(u, at_most_one_gate): a Haar block, a phased named gate nudged by
    +-1e-14 per component, or a pure RX, RY or RZ near a multiple of pi."""
    kind = draw(st.sampled_from(["haar", "named", "rotation"]))
    if kind == "haar":
        return haar_su(2, draw(st.integers(0, 2**32 - 1))), False
    if kind == "named":
        gate = draw(st.sampled_from(NAMED))
        u = np.eye(2, dtype=complex) if gate is None else gate_matrix(GateKind(gate))
        nudge = draw(st.lists(st.sampled_from((-1e-14, 0.0, 1e-14)), min_size=8, max_size=8))
        nudge = np.reshape(nudge, (2, 2, 2))
        phase = draw(st.floats(-math.pi, math.pi))
        return np.exp(1j * phase) * u + nudge[0] + 1j * nudge[1], True
    family = draw(st.sampled_from([Gate.RX, Gate.RY, Gate.RZ]))
    angle = draw(st.sampled_from(NEAR_TURNS)) + draw(st.floats(-1e-6, 1e-6))
    return gate_matrix(GateKind(family, angle)), True


@settings(max_examples=300, deadline=None)
@given(one_qubit_cases())
def test_scalar_emission_reproduces_the_block(case):
    u, at_most_one_gate = case
    got, gates = emitted_matrix(u)
    assert equal_up_to_phase(got, u, 1e-12)
    if at_most_one_gate:
        assert len(gates) <= 1


@pytest.mark.parametrize("dim", [2, 4])
def test_direct_gees_is_bitwise_scipy_schur(dim):
    for seed in range(20):
        prod = haar_unitary(dim, seed) @ haar_unitary(dim, 1000 + seed).conj().T
        t_mat, _, _, v, _, info = synth._gees()(synth._no_sort, prod)
        want_t, want_v = scipy.linalg.schur(prod, output="complex")
        assert info == 0
        assert np.array_equal(t_mat, want_t) and np.array_equal(v, want_v)


def test_failed_schur_raises(monkeypatch):
    def failing(select, a):
        return a, 0, np.diag(a), a, np.zeros(1), 1

    monkeypatch.setattr(synth, "_gees", lambda: failing)
    with pytest.raises(np.linalg.LinAlgError, match="Schur form not found"):
        synthesize(haar_su(4, 1))


# --- decompose_su2m ---

def test_decompose_identity_m2():
    c = decompose_su2m(np.eye(4, dtype=complex))
    assert phase_aligned_distance(circuit_unitary(c), np.eye(4)) <= 1e-12
    assert gate_counts(c)[Gate.CZ] == 0


def test_decompose_cz_diagonal():
    target = np.diag([1.0, 1, 1, -1]).astype(complex)
    c = decompose_su2m(target)
    assert phase_aligned_distance(circuit_unitary(c), target) <= 1e-12
    assert gate_counts(c)[Gate.CZ] <= 2


def test_decompose_vocabulary_is_one_qubit_plus_cz():
    u = haar_su(8, 42)
    c = decompose_su2m(u)
    for app in c.gates:
        assert app.kind.gate.arity == 1 or app.kind.gate is Gate.CZ


def test_decompose_seeded_su8_bound():
    u = haar_su(8, 42)
    c = decompose_su2m(u)
    assert phase_aligned_distance(circuit_unitary(c), u) <= 1e-9
    # worst case for three qubits; the recursion never exceeds it
    assert gate_counts(c)[Gate.CZ] <= 42


@pytest.mark.parametrize("m", [1, 2, 3])
def test_decompose_random_seeds(m):
    for seed in range(5):
        u = haar_su(1 << m, 300 * m + seed)
        c = decompose_su2m(u)
        assert c.num_qubits == m
        assert phase_aligned_distance(circuit_unitary(c), u) <= 1e-9


def test_decompose_rejects_bad_dimensions():
    with pytest.raises(SynthesisError, match="2\\^m"):
        decompose_su2m(np.eye(16, dtype=complex))
    with pytest.raises(SynthesisError, match="2\\^m"):
        decompose_su2m(np.eye(3, dtype=complex))
    with pytest.raises(SynthesisError, match="not unitary"):
        decompose_su2m(np.ones((4, 4)))


@pytest.mark.parametrize("gate", [None, Gate.X, Gate.Z, Gate.H, Gate.S, Gate.SDG])
def test_named_one_qubit_block_emits_just_that_gate(gate):
    # At any global phase, I (None) emits nothing and a named gate itself.
    u = np.eye(2) if gate is None else gate_matrix(GateKind(gate))
    want = [] if gate is None else [(GateKind(gate), (1,))]
    for phase in (0.0, 0.4, math.pi / 2, math.pi, -2.3):
        emitted = synth._emit_1q(np.exp(1j * phase) * u, 1)
        assert [(app.kind, app.qubits) for app in emitted] == want


# --- synthesize ---

def test_synthesize_s_gate_budget():
    res = synthesize(np.diag([1.0, 1j]))
    counts = res.lowered.counts
    assert counts[Gate.CCZ] == 2
    assert counts[Gate.X] == 1
    used = {g for g, n in counts.items() if n}
    assert used <= {Gate.H, Gate.X, Gate.CCZ}
    assert res.distance <= 1e-12


def test_synthesize_identity_passthrough():
    res = synthesize(np.eye(2, dtype=complex))
    assert res.distance <= 1e-12
    assert res.lowered.circuit.gates == ()


def test_synthesize_rx_via_conjugated_y_rotation():
    res = synthesize(rx(0.7))
    assert res.distance <= 1e-10
    assert check_membership(res.lowered.circuit, REAL_O2_CCZ) == []
    # RX is H RZ H, and RZ one catalyst kick: one RY between two CCZ.
    assert res.lowered.rule_instances[Gate.RX] == res.lowered.rule_instances[Gate.RZ] == 1
    assert res.lowered.rule_instances[Gate.S] == 0
    assert res.lowered.counts[Gate.CCZ] == 2
    assert res.lowered.counts[Gate.RY] == 1


@pytest.mark.parametrize("m, ccz_max, gates_max", [(1, 2, 6), (2, 22, 53), (3, 122, 291)])
def test_synthesized_cost_per_target(m, ccz_max, gates_max):
    # CCZ (the paper's cost) and lowered gates per target, on acceptance
    # criterion 06's seeds: one RZ kick per Y-Z-Y block, 2 CCZ per RZ.
    for k in range(20):
        res = synthesize(haar_su(1 << m, 100 * m + k))
        assert res.lowered.counts[Gate.CCZ] <= ccz_max
        assert len(res.lowered.circuit.gates) <= gates_max


def test_synthesize_seeded_su4():
    res = synthesize(haar_su(4, 7))
    assert res.distance <= 1e-8
    assert res.catalyst_deficit <= 1e-9
    assert check_membership(res.lowered.circuit, REAL_O2_CCZ) == []
    assert res.lowered.circuit.num_qubits == 4


def test_synthesize_rejects_non_unitary():
    with pytest.raises(SynthesisError, match="not unitary"):
        synthesize(np.ones((2, 2)))


def test_synthesize_reports_its_leakage():
    res = synthesize(haar_su(8, 3))
    assert 0.0 <= max(res.leakage, res.catalyst_deficit) <= VERIFY_TOL


def test_synthesize_reports_stage_timings_and_method():
    res = synthesize(haar_su(4, 2))
    assert set(res.timings) == {"decompose", "lower", "verify"}
    assert all(t >= 0.0 for t in res.timings.values())
    assert res.method == "dense_columns"


@pytest.mark.parametrize("field", ["distance", "catalyst_deficit", "leakage"])
def test_synthesize_checks_every_residual(monkeypatch, field):
    # Only the named residual is off, and a NaN must fail it as surely as a
    # large value. The distance bound is DECOMPOSE_TOL, so 5e-9, inside the
    # VERIFY_TOL that bounds the other two, fails.
    target = np.diag([1.0, 1j])
    for value in (5e-9 if field == "distance" else 1e-6, float("nan")):
        block, residuals = target, {"catalyst_deficit": 0.0, "leakage": 0.0}
        if field == "distance":
            tilt = value * math.sqrt(2.0)  # at distance tilt / sqrt(2)
            block = target @ np.diag([np.exp(-1j * tilt), np.exp(1j * tilt)])
            if not math.isnan(value):
                assert DECOMPOSE_TOL < phase_aligned_distance(block, target) < VERIFY_TOL
        else:
            residuals[field] = value
        monkeypatch.setattr(synth, "induce", lambda lowered: Induced(block=block, **residuals))
        with pytest.raises(SynthesisError, match="verification failed"):
            synthesize(target)


def test_synthesize_makes_one_dense_pass(monkeypatch):
    calls = []

    def counting(name, real):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(sim, "evolve_columns", counting("evolve_columns", sim.evolve_columns))
    for mod in (sim, lowering, synth):
        if hasattr(mod, "circuit_unitary"):
            monkeypatch.setattr(
                mod, "circuit_unitary", counting("circuit_unitary", mod.circuit_unitary))
    synthesize(haar_su(8, 11))
    assert calls == ["evolve_columns"]


def test_a_decomposition_fault_is_caught(monkeypatch):
    # Drop the last gate of the top-level recursion: the lowered circuit's
    # check must see it in synthesize, and the self-check in decompose_su2m.
    real = synth._qsd
    monkeypatch.setattr(
        synth, "_qsd", lambda u, qubits: real(u, qubits)[: -1 if len(qubits) == 3 else None]
    )
    u = haar_su(8, 5)
    with pytest.raises(SynthesisError, match="verification failed"):
        synthesize(u)
    with pytest.raises(SynthesisError, match="self-check failed"):
        decompose_su2m(u)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("compile_", [synthesize, decompose_su2m])
def test_non_finite_matrix_is_rejected(compile_, bad):
    u = np.eye(4, dtype=complex)
    u[1, 2] = bad
    with pytest.raises(SynthesisError, match="non-finite"):
        compile_(u)


# --- haar sampling and the matrix file format ---

def test_haar_is_deterministic_per_seed():
    assert np.array_equal(haar_unitary(4, 5), haar_unitary(4, 5))
    assert not np.array_equal(haar_unitary(4, 5), haar_unitary(4, 6))


def test_haar_unitarity_and_su_projection():
    for seed in range(5):
        u = haar_unitary(8, seed)
        assert np.linalg.norm(u.conj().T @ u - np.eye(8)) <= 1e-12
        su = haar_su(8, seed)
        assert abs(np.linalg.det(su) - 1.0) <= 1e-11


def test_matrix_format_round_trip():
    u = haar_unitary(4, 3)
    again = parse_matrix(format_matrix(u))
    assert np.array_equal(again, u)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("4\n1,0", "dim <n>"),
        ("dim 2\n1,0 0,0", "rows"),
        ("dim 2\n1,0 0,0\n0,0", "entries"),
        ("dim 2\n1,0 0,0\n0,0 1", "re,im"),
        ("dim 2\n1,0 0,0\n0,0 a,b", "unparseable"),
        ("dim x\n", "bad dimension"),
    ],
)
def test_matrix_parse_errors(text, fragment):
    with pytest.raises(SynthesisError, match=fragment):
        parse_matrix(text)
