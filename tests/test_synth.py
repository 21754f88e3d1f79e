"""Synthesis: one-qubit emission, CZ-based decomposition, full pipeline."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from catalyq.ir import (
    REAL_O2_CCZ, Circuit, Gate, GateApp, GateKind, check_membership, circuit_of, cz, gate_counts, s,
)
from catalyq.sim import gate_matrix, phase_aligned_distance
from catalyq import lowering, sim, synth
from catalyq.lowering import VERIFY_TOL
from catalyq.sim import AuxWire, Induced
from catalyq.synth import (
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


def cossin_inputs(dim):
    """Haar unitaries, then degenerate ones: the identity, a CZ-type
    diagonal, the swap of the two halves, and a Haar block sum."""
    yield from (haar_unitary(dim, seed) for seed in range(10))
    yield np.eye(dim, dtype=complex)
    yield np.diag([1.0] * (dim - 1) + [-1.0]).astype(complex)
    yield np.roll(np.eye(dim, dtype=complex), dim // 2, axis=0)
    half = dim // 2
    yield scipy.linalg.block_diag(haar_unitary(half, 1), haar_unitary(half, 2))


@pytest.mark.parametrize("dim", [4, 8])
def test_direct_uncsd_is_bitwise_scipy_cossin(dim):
    half = dim // 2
    for u in cossin_inputs(dim):
        *_, theta, u1, u2, v1h, v2h, info = synth._uncsd(dim)(
            u[:half, :half], u[:half, half:], u[half:, :half], u[half:, half:]
        )
        (want_u1, want_u2), want_theta, (want_v1h, want_v2h) = scipy.linalg.cossin(
            u, p=half, q=half, separate=True
        )
        assert info == 0
        for got, want in ((theta, want_theta), (u1, want_u1), (u2, want_u2),
                          (v1h, want_v1h), (v2h, want_v2h)):
            assert np.array_equal(got, want)


def test_failed_cs_decomposition_raises(monkeypatch):
    def failing(x11, x12, x21, x22):
        return x11, x12, x21, x22, np.zeros(2), x11, x22, x11, x22, 3

    monkeypatch.setattr(synth, "_uncsd", lambda dim: failing)
    with pytest.raises(np.linalg.LinAlgError, match="CS decomposition not found"):
        synthesize(haar_su(4, 1))


def multiplexed_ry(angles):
    """RY(angles[s]) on the last wire for each state s of the ones before it."""
    return scipy.linalg.block_diag(*(gate_matrix(GateKind(Gate.RY, t)) for t in angles))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_multiplexed_ry_is_a_cz_ladder_of_2_to_the_k(k):
    rng = np.random.default_rng(k)
    for angles in (rng.uniform(-4.0, 4.0, 1 << k), np.zeros(1 << k), np.full(1 << k, 0.4)):
        gates = synth._ucry(angles, list(range(k)), k)
        got = sim.circuit_unitary(Circuit(k + 1, tuple(gates)))
        assert phase_aligned_distance(got, multiplexed_ry(angles)) <= 1e-14
        assert {app.kind.gate for app in gates} <= {Gate.RY, Gate.CZ}
        ladder = sum(app.kind.gate is Gate.CZ for app in gates)
        assert ladder == ((1 << k) if np.ptp(angles) else 0)


LEAVES = {
    "costless": [np.eye(2), gate_matrix(GateKind(Gate.X)), gate_matrix(GateKind(Gate.H)),
                 gate_matrix(GateKind(Gate.RY, 0.4))],
    "diagonal": [gate_matrix(GateKind(Gate.S)), gate_matrix(GateKind(Gate.RZ, 0.7))],
    "generic": [haar_unitary(2, seed) for seed in range(5)] + [rx(0.3)],
}


@pytest.mark.parametrize("kind", LEAVES)
@pytest.mark.parametrize("walk_after", [True, False])
def test_a_leaf_hands_the_walk_its_facing_rz(kind, walk_after):
    # With RZ(handed) put back on the walk's side, the leaf is its block. A
    # block with no costly gate stays as _emit_1q emits it and hands nothing,
    # a diagonal one hands its whole angle, and any other keeps one RZ.
    for u in LEAVES[kind]:
        gates, handed = synth._leaf(u, 0, walk_after)
        got = np.eye(2, dtype=complex)
        for app in gates:
            got = gate_matrix(app.kind) @ got
        facing = gate_matrix(GateKind(Gate.RZ, handed))
        got = facing @ got if walk_after else got @ facing
        assert equal_up_to_phase(got, u, 1e-12)
        tags = [app.kind.gate for app in gates]
        if kind == "costless":
            assert (gates, handed) == (synth._emit_1q(u, 0), 0.0)
        elif kind == "diagonal":
            assert gates == []
        else:
            assert tags.count(Gate.RZ) == 1 and set(tags) <= {Gate.RZ, Gate.RY}


@pytest.mark.parametrize("nonzero", [(), (0,), (2,), (1,), (0, 1), (0, 2), (1, 2), (0, 1, 2)])
def test_catalyst_walk_takes_any_diagonal_on_two_wires(nonzero):
    # Wires s = 0 and r = 1, catalyst 2. The walk induces exp(i phi(s, r)) up
    # to phase, phi the Walsh sum, returns the catalyst, and costs 2 CZ for
    # the s or r parity alone, 4 for anything else, and nothing for none.
    rng = np.random.default_rng(len(nonzero) + sum(nonzero))
    coeffs = tuple(float(rng.uniform(-2.0, 2.0)) if p in nonzero else 0.0 for p in range(3))
    gates = synth._walk(coeffs, 0, 1, 2)
    got = sim.induce(Circuit(3, tuple(gates)), 2)
    signs = np.array([[(-1) ** s, (-1) ** (s ^ r), (-1) ** r] for s in (0, 1) for r in (0, 1)])
    want = np.diag(np.exp(1j * signs @ np.array(coeffs)))
    assert phase_aligned_distance(got.block, want) <= 1e-14
    assert got.catalyst_deficit <= 1e-14
    ladder = sum(app.kind.gate is Gate.CZ for app in gates)
    assert ladder == {(): 0, (0,): 2, (2,): 2}.get(nonzero, 4)


# --- decompose_su2m ---

def decomposed_operator(c, m):
    """The operator ``decompose_su2m``'s circuit induces on wires 0..m-1, with
    wire m, when present, fed the |+i> catalyst and read out through <+i|."""
    assert c.num_qubits in (m, m + 1)
    got = sim.induce(c, m if c.num_qubits > m else None)
    assert got.catalyst_deficit <= 1e-12
    return got.block


def lowered_cost(c):
    """CCZ the circuit lowers to: 1 per CZ, 2 per RZ (Haar targets emit no S, SDG or RX)."""
    counts = gate_counts(c)
    return counts[Gate.CZ] + 2 * counts[Gate.RZ]


def test_decompose_identity_m2():
    c = decompose_su2m(np.eye(4, dtype=complex))
    assert c.num_qubits == 2  # nothing kicks the catalyst, so it is not there
    assert phase_aligned_distance(decomposed_operator(c, 2), np.eye(4)) <= 1e-12
    assert gate_counts(c)[Gate.CZ] == 0


def test_decompose_cz_diagonal():
    target = np.diag([1.0, 1, 1, -1]).astype(complex)
    c = decompose_su2m(target)
    assert phase_aligned_distance(decomposed_operator(c, 2), target) <= 1e-12
    assert lowered_cost(c) <= 6


def test_decompose_vocabulary_is_one_qubit_plus_cz():
    u = haar_su(8, 42)
    c = decompose_su2m(u)
    for app in c.gates:
        assert app.kind.gate.arity == 1 or app.kind.gate is Gate.CZ
        # The catalyst, wire 3, is only rotated about Y and kicked by CZ.
        if 3 in app.qubits:
            assert app.kind.gate in (Gate.RY, Gate.CZ)


def test_decompose_seeded_su8_bound():
    u = haar_su(8, 42)
    c = decompose_su2m(u)
    assert phase_aligned_distance(decomposed_operator(c, 3), u) <= 1e-9
    # Worst case for three qubits: 51 CZ (a 4-CZ ladder less its folded CZ,
    # two 6-CZ kicked centres, four two-qubit blocks of two 4-CZ walks and a
    # 2-CZ ladder less its folded CZ) and 9 RZ. The 16 one-qubit blocks, all
    # on wire 2, are Z-Y-Z and hand the RZ facing a walk to it; of the other
    # 16, the first and the last stay, and 14 merge in pairs across the gates
    # diagonal on wire 2.
    assert lowered_cost(c) <= 69


@pytest.mark.parametrize("m", [1, 2, 3])
def test_decompose_random_seeds(m):
    for seed in range(5):
        u = haar_su(1 << m, 300 * m + seed)
        c = decompose_su2m(u)
        assert c.num_qubits == (m if m == 1 else m + 1)
        assert phase_aligned_distance(decomposed_operator(c, m), u) <= 1e-9


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


@pytest.mark.parametrize("m, ccz_max, gates_max", [(1, 2, 6), (2, 15, 31), (3, 69, 139)])
def test_synthesized_cost_per_target(m, ccz_max, gates_max):
    # CCZ (the paper's cost) and lowered gates per target, on acceptance
    # criterion 06's seeds: 2 CCZ per RZ left after the walks and the merge,
    # 1 per CZ of a ladder, a walk (4) or a kick (2^k + 2 for k controls).
    for k in range(20):
        res = synthesize(haar_su(1 << m, 100 * m + k))
        assert res.lowered.counts[Gate.CCZ] <= ccz_max
        assert len(res.lowered.circuit.gates) <= gates_max


def permutation(images):
    """The unitary sending basis state i to basis state images[i]."""
    u = np.zeros((len(images), len(images)), dtype=complex)
    u[images, range(len(images))] = 1.0
    return u


_CH = np.eye(4, dtype=complex)
_CH[2:, 2:] = gate_matrix(GateKind(Gate.H))
STRUCTURED = {
    "identity": np.eye(4, dtype=complex),
    "CZ": np.diag([1.0, 1, 1, -1]).astype(complex),
    "CS": np.diag([1.0, 1, 1, 1j]),
    "SWAP": permutation([0, 2, 1, 3]),
    "CNOT": permutation([0, 1, 3, 2]),
    "controlled-H": _CH,
    "repeated-phase diagonal": np.diag(np.exp(1j * np.array([0.3, 0.3, -1.1, 0.3]))),
    "CCZ": np.diag([1.0] * 7 + [-1.0]).astype(complex),
    "Toffoli": permutation([0, 1, 2, 3, 4, 5, 7, 6]),
}
HAAR_CCZ_PIN = {2: 15, 3: 69}
# Each structured target's CCZ, pinned so that a regression shows.
STRUCTURED_CCZ = {
    "identity": 0,
    "CZ": 4,
    "CS": 4,
    "SWAP": 9,
    "CNOT": 4,
    "controlled-H": 4,
    "repeated-phase diagonal": 6,
    "CCZ": 10,
    "Toffoli": 22,
}


@pytest.mark.parametrize("name", STRUCTURED)
def test_structured_targets(name):
    # Degenerate Schur and cosine-sine spectra: still exact, one catalyst,
    # one ancilla, and no dearer than a Haar target of the same width.
    u = STRUCTURED[name]
    m = u.shape[0].bit_length() - 1
    res = synthesize(u)
    assert res.ok
    assert res.lowered.circuit.num_qubits <= m + 2
    assert len(res.lowered.ancilla_qubits) <= 1
    assert res.lowered.counts[Gate.CCZ] == STRUCTURED_CCZ[name] <= HAAR_CCZ_PIN[m]


# Targets whose splits are degenerate where the emission guards its cost,
# with their CCZ: a demultiplexor centre that is the identity (one block
# instead of two), a two-wire centre without a ladder (a 2-CZ kick, which a
# walk taking the leaves' RZs would double), and v1h = v2h (no centre, which
# folding the ladder's CZ into v2h would create).
GUARDED = {
    "H (x) RX": (np.kron(gate_matrix(GateKind(Gate.H)), rx(1.1)), 4),
    "Haar (x) RZ": (np.kron(haar_unitary(2, 5), gate_matrix(GateKind(Gate.RZ, 0.7))), 6),
    "3-cycle": (permutation([2, 0, 1, 3]), 10),
}


@pytest.mark.parametrize("name", GUARDED)
def test_guarded_degenerate_targets(name):
    u, ccz = GUARDED[name]
    res = synthesize(u)
    assert res.ok
    assert res.lowered.counts[Gate.CCZ] == ccz


def test_lowering_a_source_that_names_its_catalyst():
    u = haar_su(8, 9)
    source = decompose_su2m(u)
    low = lowering.lower(source, REAL_O2_CCZ, catalyst=3)
    # The source's catalyst is kicked in place: one catalyst, then the ancilla.
    assert low.catalyst_qubit == 3 and low.ancilla_qubits == (AuxWire(4, 0, 1),)
    chk = lowering.verify_lowering(source, low)
    assert chk.ok, chk
    assert chk.source_catalyst_deficit <= 1e-12
    assert phase_aligned_distance(lowering.induce(low).block, u) <= 1e-9


def test_a_dropped_catalyst_kick_is_caught(monkeypatch):
    # Drop the first CZ(select, catalyst) of a kicked centre: the catalyst
    # leaves as |-i> whenever wire 0 is 1 there.
    real = synth._decompose

    def dropping(u):
        c = real(u)
        i = c.gates.index(cz(0, c.num_qubits - 1))
        return Circuit(c.num_qubits, c.gates[:i] + c.gates[i + 1:])

    u = haar_su(4, 6)
    source = dropping(u)
    chk = lowering.verify_lowering(source, lowering.lower(source, REAL_O2_CCZ, catalyst=2))
    assert not chk.ok
    assert chk.source_catalyst_deficit > 0.1 and chk.catalyst_deficit > 0.1
    monkeypatch.setattr(synth, "_decompose", dropping)
    with pytest.raises(SynthesisError, match="verification failed"):
        synthesize(u)
    with pytest.raises(SynthesisError, match="self-check failed"):
        decompose_su2m(u)


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


@pytest.mark.parametrize("gate, wire", [(Gate.RZ, "catalyst"), (Gate.RY, "ancilla")])
def test_a_small_leak_out_of_a_fixed_wire_is_not_ok(gate, wire):
    # A 2e-5 rotation appended on the catalyst or the ancilla moves 1e-5 of
    # amplitude out of it. The deficit and leakage read that amplitude, not
    # the 5e-11 it takes off the kept column's norm, so the check fails.
    u = haar_su(8, 42)
    low = synthesize(u).lowered
    q = low.catalyst_qubit if wire == "catalyst" else low.ancilla_qubits[0].qubit
    leak = GateApp(GateKind(gate, 2e-5), (q,))
    leaky = dataclasses.replace(low, circuit=Circuit(low.circuit.num_qubits, low.circuit.gates + (leak,)))
    chk = lowering.check_induced(lowering.induce(leaky), u)
    assert not chk.ok
    assert chk.leakage == pytest.approx(1e-5, rel=1e-3)
    if wire == "catalyst":
        assert chk.catalyst_deficit == pytest.approx(1e-5, rel=1e-3)


def test_synthesize_reports_stage_timings_and_method():
    res = synthesize(haar_su(4, 2))
    assert set(res.timings) == {"decompose", "lower", "verify"}
    assert all(t >= 0.0 for t in res.timings.values())
    assert res.method == "dense_columns"


RESIDUALS = ["distance", "catalyst_deficit", "leakage"]


def induced_off_by(target, field, value):
    """An ``Induced`` of ``target`` with only residual ``field`` at ``value``."""
    block, residuals = target, {"catalyst_deficit": 0.0, "leakage": 0.0}
    if field == "distance":
        tilt = value * math.sqrt(2.0)  # at distance tilt / sqrt(2)
        block = target @ np.diag([np.exp(-1j * tilt), np.exp(1j * tilt)])
    else:
        residuals[field] = value
    return Induced(block=block, **residuals)


@pytest.mark.parametrize("field", RESIDUALS)
def test_synthesize_checks_every_residual(monkeypatch, field):
    # Only the named residual is off, just past VERIFY_TOL, the one bound of
    # every residual, and a NaN must fail it as surely as a large value.
    target = np.diag([1.0, 1j])
    for value in (1.1 * VERIFY_TOL, float("nan")):
        induced = induced_off_by(target, field, value)
        if not math.isnan(value):
            residual = getattr(lowering.check_induced(induced, target), field)
            assert VERIFY_TOL < residual < 1.2 * VERIFY_TOL
        monkeypatch.setattr(synth, "induce", lambda lowered: induced)
        with pytest.raises(SynthesisError, match="verification failed"):
            synthesize(target)


@pytest.mark.parametrize("field", RESIDUALS)
@pytest.mark.parametrize("scale, ok", [(10.0, False), (0.1, True)])
def test_one_bound_for_every_dense_check(monkeypatch, field, scale, ok):
    # verify_lowering, synthesize and decompose_su2m read one verdict: a
    # residual of 10 VERIFY_TOL fails all three, one of VERIFY_TOL / 10 passes.
    target = np.diag([1.0, 1j])  # S
    induced = induced_off_by(target, field, scale * VERIFY_TOL)
    monkeypatch.setattr(lowering, "induce", lambda lowered: induced)
    source = circuit_of(1, s(0))
    assert lowering.verify_lowering(source, lowering.lower(source, REAL_O2_CCZ)).ok is ok
    # verify_lowering reads its source through sim.induce, so that is patched after it.
    monkeypatch.setattr(synth, "induce", lambda lowered: induced)
    monkeypatch.setattr(sim, "induce", lambda circuit, catalyst=None: induced)
    if ok:
        assert synthesize(target).ok
        decompose_su2m(target)
        return
    with pytest.raises(SynthesisError, match="verification failed"):
        synthesize(target)
    with pytest.raises(SynthesisError, match="self-check failed"):
        decompose_su2m(target)


def test_decompose_self_check_needs_its_catalyst_back(monkeypatch):
    # An exact block is not enough: the catalyst must come back as well.
    u = haar_su(4, 6)
    returned_short = Induced(block=u, catalyst_deficit=1e-6, leakage=0.0)
    monkeypatch.setattr(sim, "induce", lambda circuit, catalyst=None: returned_short)
    with pytest.raises(SynthesisError, match="self-check failed"):
        decompose_su2m(u)


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


def flipped_walsh_sign(real):
    return lambda coeffs, *wires: real((-coeffs[0], *coeffs[1:]), *wires)


def folded_and_kept(real):
    # Negates v2h's lower rows, and keeps the CZ that negation stands for.
    return lambda middle, v1h, v2h, select, rest: (middle, real(middle, v1h, v2h, select, rest)[1])


@pytest.mark.parametrize("target, mutant", [
    ("_walk", flipped_walsh_sign),
    ("_fold_opening_cz", folded_and_kept),
])
@pytest.mark.parametrize("m", [2, 3])
def test_a_phase_aware_emission_fault_is_caught(monkeypatch, target, mutant, m):
    monkeypatch.setattr(synth, target, mutant(getattr(synth, target)))
    with pytest.raises(SynthesisError, match="verification failed"):
        synthesize(haar_su(1 << m, 100 * m))


@pytest.mark.parametrize("m", [2, 3])
def test_an_rz_merged_across_an_ry_is_caught(monkeypatch, m):
    # merge_phases taking RY for a diagonal gate: the leaves' RZs slide
    # through their own RYs.
    monkeypatch.setattr(lowering, "_DIAGONAL", lowering._DIAGONAL | {Gate.RY})
    with pytest.raises(SynthesisError, match="verification failed"):
        synthesize(haar_su(1 << m, 100 * m))


def test_the_middle_ladder_opens_folded():
    # The middle multiplexor's opening CZ(1, 0) is folded into the
    # demultiplexor before it, so an m = 2 source has one ladder CZ on (0, 1).
    c = decompose_su2m(haar_su(4, 200))
    assert sum(app == cz(1, 0) for app in c.gates) == 1


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("compile_", [synthesize, decompose_su2m])
def test_non_finite_matrix_is_rejected(compile_, bad):
    u = np.eye(4, dtype=complex)
    u[1, 2] = bad
    with pytest.raises(SynthesisError, match="non-finite"):
        compile_(u)


@pytest.mark.parametrize("compile_", [synthesize, decompose_su2m])
def test_empty_matrix_is_rejected(compile_):
    with pytest.raises(SynthesisError, match="dimension 0"):
        compile_(np.zeros((0, 0)))


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
        ("dim 0\n", "must be positive, got 0"),
        ("dim -1\n", "must be positive, got -1"),
    ],
)
def test_matrix_parse_errors(text, fragment):
    with pytest.raises(SynthesisError, match=fragment):
        parse_matrix(text)
