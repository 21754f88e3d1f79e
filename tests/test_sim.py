"""Dense simulator: gate matrices, state evolution, factorization checks.

The unitary builder is cross-checked against a from-scratch Kronecker
embedding oracle that shares no code with the simulator.
"""

import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalyq import sim
from catalyq.gadgets import cs_gadget
from catalyq.ir import (
    HCCZ,
    REAL_O2_CCZ,
    Circuit,
    CircuitError,
    Gate,
    GateApp,
    GateKind,
    ccz,
    circuit_of,
    cry,
    cz,
    h,
    parse_circuit,
    rx,
    ry,
    rz,
    s,
    x,
    y,
)
from catalyq.lowering import induce as induce_lowered
from catalyq.lowering import lower
from catalyq.sim import (
    KET_0,
    KET_1,
    KET_MINUS_I,
    KET_PLUS_I,
    MAX_DENSE_QUBITS,
    MAX_STATE_QUBITS,
    _FUSE_QUBITS,
    _apply,
    _fused,
    basis_state,
    circuit_unitary,
    evolve_columns,
    extract_catalytic,
    gate_matrix,
    phase_aligned_distance,
    product_state,
    run,
)
from conftest import random_circuit
from oracles import apply_tensor, project_wires

SQ2 = 1.0 / math.sqrt(2.0)


# --- independent oracle: bit-twiddling embedding, no tensordot anywhere ---

def oracle_matrix(kind):
    t = kind.angle
    if kind.gate is Gate.RX:
        return np.array(
            [
                [math.cos(t / 2), -1j * math.sin(t / 2)],
                [-1j * math.sin(t / 2), math.cos(t / 2)],
            ]
        )
    if kind.gate is Gate.RY:
        return np.array(
            [
                [math.cos(t / 2), -math.sin(t / 2)],
                [math.sin(t / 2), math.cos(t / 2)],
            ],
            dtype=complex,
        )
    if kind.gate is Gate.RZ:
        return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
    if kind.gate is Gate.CRY:
        ry = oracle_matrix(GateKind(Gate.RY, t))
        out = np.eye(4, dtype=complex)
        out[2:, 2:] = ry
        return out
    fixed = {
        Gate.H: np.array([[SQ2, SQ2], [SQ2, -SQ2]], dtype=complex),
        Gate.X: np.array([[0, 1], [1, 0]], dtype=complex),
        Gate.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
        Gate.Z: np.diag([1.0, -1.0]).astype(complex),
        Gate.S: np.diag([1.0, 1j]),
        Gate.SDG: np.diag([1.0, -1j]),
        Gate.CZ: np.diag([1.0, 1, 1, -1]).astype(complex),
        Gate.CS: np.diag([1.0, 1, 1, 1j]),
        Gate.CCZ: np.diag([1.0, 1, 1, 1, 1, 1, 1, -1]).astype(complex),
    }
    return fixed[kind.gate]


def oracle_embed(mat, operands, n):
    """Embed a k-qubit matrix at the given wires by explicit index surgery."""
    dim = 1 << n
    k = len(operands)
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        sub_in = 0
        for q in operands:
            sub_in = (sub_in << 1) | bits[q]
        for sub_out in range(1 << k):
            amp = mat[sub_out, sub_in]
            if amp == 0:
                continue
            nb = list(bits)
            for i, q in enumerate(operands):
                nb[q] = (sub_out >> (k - 1 - i)) & 1
            row = 0
            for b in nb:
                row = (row << 1) | b
            out[row, col] += amp
    return out


def oracle_unitary(c):
    u = np.eye(1 << c.num_qubits, dtype=complex)
    for app in c.gates:
        u = oracle_embed(oracle_matrix(app.kind), app.qubits, c.num_qubits) @ u
    return u


# --- gate matrices ---

def test_h_matrix():
    assert np.allclose(gate_matrix(GateKind(Gate.H)), [[SQ2, SQ2], [SQ2, -SQ2]])


def test_gate_matrix_returns_a_private_copy():
    # The kernel shares the fixed matrices; a caller's copy must not alias them.
    m = gate_matrix(GateKind(Gate.H))
    m[0, 0] = 5.0
    assert gate_matrix(GateKind(Gate.H))[0, 0] == SQ2
    assert np.allclose(run(circuit_of(1, h(0)), np.array([1, 0], dtype=complex)), [SQ2, SQ2])


def test_ry_pi_matrix():
    assert np.allclose(gate_matrix(GateKind(Gate.RY, math.pi)), [[0, -1], [1, 0]])


def test_rz_half_pi_is_s_up_to_phase():
    m = gate_matrix(GateKind(Gate.RZ, math.pi / 2))
    target = np.exp(-0.25j * math.pi) * np.diag([1.0, 1j])
    assert np.abs(m - target).max() <= 1e-15


def test_diagonal_gates():
    assert np.array_equal(gate_matrix(GateKind(Gate.CS)), np.diag([1, 1, 1, 1j]))
    assert np.array_equal(
        gate_matrix(GateKind(Gate.CCZ)), np.diag([1, 1, 1, 1, 1, 1, 1, -1])
    )


def test_cry_is_control_first():
    m = gate_matrix(GateKind(Gate.CRY, 0.8))
    assert np.array_equal(m[:2, :2], np.eye(2))
    assert np.allclose(m[2:, 2:], gate_matrix(GateKind(Gate.RY, 0.8)))
    assert np.count_nonzero(m[:2, 2:]) == 0


def test_all_matrices_unitary():
    rng = np.random.default_rng(3)
    for gate in Gate:
        angle = float(rng.uniform(-6, 6)) if gate.takes_angle else None
        m = gate_matrix(GateKind(gate, angle))
        assert np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])) <= 1e-14


# --- state evolution ---

def test_apply_h_to_zero():
    out = run(circuit_of(1, h(0)), KET_0.copy())
    assert np.allclose(out, [SQ2, SQ2])


def test_h_flips_catalyst_with_eighth_turn_phase():
    out = run(circuit_of(1, h(0)), KET_PLUS_I.copy())
    overlap = np.vdot(KET_MINUS_I, out)
    assert abs(abs(overlap) - 1.0) <= 1e-13
    assert abs(np.angle(overlap) - math.pi / 4) <= 1e-13


def test_ccz_phases_only_all_ones():
    psi = basis_state(3, 0b111)
    out = run(circuit_of(3, ccz(0, 1, 2)), psi)
    assert np.allclose(out, -psi)
    for idx in range(7):
        before = basis_state(3, idx)
        assert np.array_equal(run(circuit_of(3, ccz(0, 1, 2)), before), before)


def test_one_gate_operand_out_of_range():
    # The circuit rejects the operand before any state is touched.
    with pytest.raises(CircuitError, match="uses qubit 1 but circuit has 1"):
        run(circuit_of(1, h(1)), KET_0.copy())


def test_run_empty_circuit_is_identity():
    psi = product_state(["+i", "1"])
    assert np.array_equal(run(Circuit(2), psi), psi)


def test_run_double_h_returns_input():
    out = run(circuit_of(1, h(0), h(0)), KET_0.copy())
    assert np.abs(out - KET_0).max() <= 1e-13


def test_run_cs_gadget_on_one_one_data():
    gadget = parse_circuit("qubits 3\nH 0\nCCZ 1 2 0\nH 0\nCCZ 1 2 0")
    psi = product_state(["+i", "1", "1"])
    out = run(gadget, psi)
    assert np.abs(out - 1j * psi).max() <= 1e-12


def test_run_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        run(Circuit(2), KET_0.copy())


def test_norm_preserved_on_random_circuits():
    rng = np.random.default_rng(44)
    for _ in range(6):
        n = int(rng.integers(2, 11))
        c = random_circuit(rng, n, 100)
        psi = run(c, basis_state(n, int(rng.integers(1 << n))))
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12


# --- simulator kernel against the tensordot reference ---

DIAGONAL_ONES = (Gate.Z, Gate.S, Gate.SDG, Gate.CZ, Gate.CS, Gate.CCZ)


@st.composite
def kernel_cases(draw):
    """A gate kind, a width 1-10 and its operand placements.

    Besides one random placement, every case also places the gate on the
    last two wires, where the trailing blocks are shortest.
    """
    gate = draw(st.sampled_from(list(Gate)))
    n = draw(st.integers(gate.arity, 10))
    angle = draw(st.floats(-4 * math.pi, 4 * math.pi)) if gate.takes_angle else None
    order = draw(st.permutations(range(n)))
    placements = [tuple(order[: gate.arity])]
    if n >= 2:
        tail = draw(st.permutations([n - 2, n - 1]))
        rest = [w for w in order if w < n - 2]
        if gate.arity == 1:
            placements += [(n - 2,), (n - 1,)]
        else:
            ops = draw(st.permutations(tail + rest[: gate.arity - 2]))
            placements.append(tuple(ops))
    seed = draw(st.integers(0, 2**32 - 1))
    return GateKind(gate, angle), n, placements, seed


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return (psi / np.linalg.norm(psi)).reshape([2] * n)


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_kernel_matches_tensordot_on_states(case):
    kind, n, placements, seed = case
    for qubits in placements:
        psi = random_state(n, seed)
        expected = apply_tensor(psi, gate_matrix(kind), qubits)
        got = _apply(psi.copy(), GateApp(kind, qubits))
        assert got.shape == psi.shape
        assert np.abs(got - expected).max() <= 1e-12


@pytest.mark.parametrize("gate", [Gate.H, Gate.X, Gate.Y, Gate.RX, Gate.RY, Gate.CRY])
def test_kernel_gemm_path_on_wide_states(gate):
    # The kernel alone on the last wires of 12, whose trailing blocks are the
    # shortest, also on CRY's control=1 slice.
    n = 12
    kind = GateKind(gate, 0.9 if gate.takes_angle else None)
    wire_sets = [(w,) for w in range(n - 5, n)]
    if gate is Gate.CRY:
        wire_sets = [(n - 1, n - 2), (n - 2, n - 1), (3, n - 1), (n - 1, 3), (0, 8)]
    for qubits in wire_sets:
        psi = random_state(n, 5)
        expected = apply_tensor(psi, gate_matrix(kind), qubits)
        got = _apply(psi.copy(), GateApp(kind, qubits))
        assert np.abs(got - expected).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(kernel_cases())
def test_kernel_matches_tensordot_on_identity_batch(case):
    kind, n, placements, _ = case
    dim = 1 << n
    for qubits in placements:
        eye = np.eye(dim, dtype=complex).reshape([2] * n + [dim])
        expected = apply_tensor(eye, gate_matrix(kind), qubits)
        got = _apply(eye.copy(), GateApp(kind, qubits))
        assert got.shape == eye.shape
        assert np.abs(got - expected).max() <= 1e-12


@settings(max_examples=100, deadline=None)
@given(kernel_cases().filter(lambda case: case[0].gate in DIAGONAL_ONES))
def test_diagonal_gates_touch_only_the_all_ones_slice(case):
    kind, n, placements, seed = case
    for qubits in placements:
        psi = random_state(n, seed)
        got = _apply(psi.copy(), GateApp(kind, qubits))
        index = np.arange(1 << n)
        ones = np.ones(1 << n, dtype=bool)
        for q in qubits:
            ones &= ((index >> (n - 1 - q)) & 1) == 1
        before = psi.reshape(-1)[~ones].view(np.uint64)
        after = got.reshape(-1)[~ones].view(np.uint64)
        assert np.array_equal(before, after)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_run_leaves_the_input_unchanged(n, seed):
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n, 12)
    state = random_state(n, seed).reshape(-1)
    kept = state.copy()
    out = run(c, state)
    assert np.array_equal(state.view(np.uint64), kept.view(np.uint64))
    assert not np.shares_memory(out, state)


# --- fused runs of angle-free gates ---

@st.composite
def fused_cases(draw):
    """A circuit on 1-8 wires, across the fusion cap, cut into runs of 0-6
    angle-free gates by angled ones, plus a random state and fixed wires."""
    n = draw(st.integers(1, 8))
    free = [g for g in Gate if not g.takes_angle and g.arity <= n]
    angled = [g for g in Gate if g.takes_angle and g.arity <= n]

    def app(pool):
        gate = draw(st.sampled_from(pool))
        wires = tuple(draw(st.permutations(range(n)))[: gate.arity])
        angle = draw(st.floats(-2 * math.pi, 2 * math.pi)) if gate.takes_angle else None
        return GateApp(GateKind(gate, angle), wires)

    apps = []
    for _ in range(draw(st.integers(0, 4))):
        apps += [app(free) for _ in range(draw(st.integers(0, 6)))]
        if draw(st.booleans()):
            apps.append(app(angled))
    wires = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    kets = [draw(st.sampled_from([KET_0, KET_1, KET_PLUS_I, KET_MINUS_I])) for _ in wires]
    return Circuit(n, tuple(apps)), draw(st.integers(0, 2**32 - 1)), dict(zip(wires, kets))


@settings(max_examples=80, deadline=None)
@given(fused_cases())
def test_fused_loop_matches_the_oracle(case):
    c, seed, fixed = case
    n = c.num_qubits
    want = oracle_unitary(c)
    assert np.abs(circuit_unitary(c) - want).max() <= 1e-12
    state = random_state(n, seed).reshape(-1)
    assert np.abs(run(c, state) - want @ state).max() <= 1e-12
    cols = evolve_columns(c, fixed).reshape(1 << n, -1)
    assert np.abs(cols - want @ kron_inputs(n, fixed)).max() <= 1e-12


def test_cache_hit_repeats_the_miss_bit_for_bit():
    c = random_circuit(np.random.default_rng(8), _FUSE_QUBITS, 60)
    _fused.cache_clear()
    first = circuit_unitary(c)
    misses = _fused.cache_info().misses
    assert misses > 0
    again = circuit_unitary(c)
    assert _fused.cache_info().misses == misses
    assert _fused.cache_info().hits >= misses
    assert np.array_equal(first.view(np.uint64), again.view(np.uint64))


def test_cached_operator_is_read_only():
    op = _fused(2, ((Gate.H, (0,)), (Gate.CZ, (0, 1))))
    assert np.abs(op - oracle_unitary(circuit_of(2, h(0), cz(0, 1)))).max() <= 1e-15
    with pytest.raises(ValueError, match="read-only"):
        op[0, 0] = 0.0


# --- k-local fusion past the whole-state cap ---

# Every lowerable source gate, so the lowered spans (data wire, catalyst,
# ancilla) hold RY inside fused runs, as in a simulate_wide item.
WIDE_SOURCE_GATES = ("H", "X", "Z", "S", "SDG", "RX", "RY", "RZ", "CZ", "CS", "CCZ")
WIDE_ARITY = {"CZ": 2, "CS": 2, "CCZ": 3}


def wide_source(rng, data, copies=2):
    """A seeded source on ``data`` wires with ``copies`` of every lowerable gate."""
    names = rng.permutation(np.repeat(np.array(WIDE_SOURCE_GATES), copies))
    lines = [f"qubits {data}"]
    for name in names.tolist():
        wires = rng.choice(data, size=WIDE_ARITY.get(name, 1), replace=False)
        head = f"{name}({rng.uniform(-math.pi, math.pi)!r})" if name in ("RX", "RY", "RZ") else name
        lines.append(" ".join([head, *map(str, wires.tolist())]))
    return parse_circuit("\n".join(lines))


def wide_lowered(rng, data, copies=2):
    """A seeded source on ``data`` wires, lowered onto {H, X, Z, RY, CCZ}."""
    return lower(wide_source(rng, data, copies), REAL_O2_CCZ).circuit


def per_gate(c, state):
    psi = np.array(state).reshape([2] * c.num_qubits)
    for app in c.gates:
        psi = _apply(psi, app)
    return psi.reshape(-1)


class RecordingNumpy:
    """``np`` as ``sim`` sees it, recording each product written with ``out=``
    (the fused ones past the whole-state cap) as (operator, state dtype)."""

    def __init__(self):
        self.products = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kwargs):
        if "out" in kwargs:
            self.products.append((a, b.dtype))
        return np.matmul(a, b, **kwargs)


def test_local_fusion_matches_the_per_gate_loop_on_wide_states(monkeypatch):
    rng = np.random.default_rng(2026)
    built = []  # each local run's relabelled gates, as the operator builder got them
    evolve = sim._evolve

    def recording(psi, gates, n):
        if n <= _FUSE_QUBITS:
            built.append(list(gates))
        return evolve(psi, gates, n)

    monkeypatch.setattr(sim, "_evolve", recording)
    numpy = RecordingNumpy()
    monkeypatch.setattr(sim, "np", numpy)
    for data in (12, 14, 16):
        c = wide_lowered(rng, data)
        n = c.num_qubits
        assert n == data + 2 > _FUSE_QUBITS
        state = random_state(n, int(rng.integers(2**32))).reshape(-1)
        assert np.abs(run(c, state) - per_gate(c, state)).max() <= 1e-12
    # Runs with an RY among other gates were fused, each on at most k wires,
    # and some on 4 or 5.
    angled = [apps for apps in built if any(a.kind.angle is not None for a in apps)]
    assert any(len(apps) > 1 for apps in angled)
    assert all(max(q for a in apps for q in a.qubits) < _FUSE_QUBITS for apps in built)
    assert any(len({q for a in apps for q in a.qubits}) in (4, 5) for apps in built)
    # A lowered circuit is real: every fused operator took the float64 product.
    assert numpy.products
    assert all(op.dtype == dtype == np.float64 for op, dtype in numpy.products)


def mixed_wide(rng, n, count):
    """``count`` gates on ``n`` wires drawn from S, SDG, CS, RX, RZ, Y, CRY,
    H, CCZ and RY: runs whose operators are complex and runs of real ones."""
    pool = (Gate.S, Gate.SDG, Gate.CS, Gate.RX, Gate.RZ, Gate.Y, Gate.CRY, Gate.H, Gate.CCZ, Gate.RY)
    apps = []
    for gate in rng.choice(pool, size=count).tolist():
        wires = tuple(rng.choice(n, size=gate.arity, replace=False).tolist())
        angle = float(rng.uniform(-math.pi, math.pi)) if gate.takes_angle else None
        apps.append(GateApp(GateKind(gate, angle), wires))
    return Circuit(n, tuple(apps))


def test_local_fusion_of_complex_gates_matches_the_per_gate_loop(monkeypatch):
    numpy = RecordingNumpy()
    monkeypatch.setattr(sim, "np", numpy)
    rng = np.random.default_rng(91)
    for n in (7, 8, 9, 10):
        c = mixed_wide(rng, n, 80)
        state = random_state(n, n).reshape(-1)
        assert np.abs(run(c, state) - per_gate(c, state)).max() <= 1e-12
    # The same on a column batch, catalyst fed |+i>: the batch axis rides along.
    c = mixed_wide(rng, 8, 60)
    cols = evolve_columns(c, {3: KET_PLUS_I})
    want = np.expand_dims(np.eye(1 << 7, dtype=complex).reshape((2,) * 7 + (1 << 7,)), 3)
    want = want * KET_PLUS_I.reshape((2,) + (1,) * 5)
    for app in c.gates:
        want = _apply(want, app)
    assert np.abs(cols - want).max() <= 1e-12
    # A complex operator took the complex product, a real one the float64 one.
    kinds = {op.dtype for op, _ in numpy.products}
    assert kinds == {np.dtype(complex), np.dtype(np.float64)}
    for op, dtype in numpy.products:
        assert dtype == op.dtype
        assert op.dtype == np.float64 or op.imag.any()


def test_run_leaves_a_wide_input_unchanged():
    c = wide_lowered(np.random.default_rng(18), 16)
    state = random_state(18, 18).reshape(-1)
    kept = state.copy()
    out = run(c, state)
    assert np.array_equal(state.view(np.uint64), kept.view(np.uint64))
    assert not np.shares_memory(out, state)


def test_lone_gate_after_a_span_is_a_local_product(monkeypatch):
    # A lone H, X, Y, RX, RY, RZ or CRY that ends a circuit after a 5-wire
    # span is a run of its own. On every wire it must match the per-gate
    # loop as a local product: the kernel's one-qubit update only sees the
    # small operators being built, never the wide state.
    apply_1q = sim._apply_1q
    lone = (
        lambda q, t: h(q),
        lambda q, t: x(q),
        lambda q, t: y(q),
        lambda q, t: rx(0.7, q),
        lambda q, t: ry(-1.1, q),
        lambda q, t: rz(0.4, q),
        lambda q, t: cry(1.3, q, t),
    )
    seen = []  # (lone gate, size, C-contiguous) of each _apply_1q input in run

    def recording(psi, q, kind):
        seen.append((last.kind.gate, psi.size, psi.flags.c_contiguous))
        return apply_1q(psi, q, kind)

    rng = np.random.default_rng(14)
    for n in (14, 16, 18):
        state = random_state(n, n).reshape(-1)
        kept = state.copy()
        for q in range(n):
            a, b, c, d, e, t = (int(w) for w in rng.permutation(np.delete(np.arange(n), q))[:6])
            last = lone[q % len(lone)](q, t)
            circuit = circuit_of(n, h(a), ccz(a, b, c), ccz(c, d, e), last)
            want = per_gate(circuit, state)
            with monkeypatch.context() as patch:
                patch.setattr(sim, "_apply_1q", recording)
                got = run(circuit, state)
            assert np.abs(got - want).max() <= 1e-12
        assert np.array_equal(state.view(np.uint64), kept.view(np.uint64))
    assert seen and all(size <= 1 << 2 * _FUSE_QUBITS for _, size, _ in seen)
    # CRY updates its control=1 slice, a strided view of the operator.
    assert all(contiguous or gate is Gate.CRY for gate, _, contiguous in seen)


def test_angles_never_enter_the_local_cache():
    first = wide_lowered(np.random.default_rng(5), 8)
    again = Circuit(first.num_qubits, tuple(
        GateApp(GateKind(app.kind.gate, app.kind.angle + 0.25), app.qubits)
        if app.kind.angle is not None else app
        for app in first.gates
    ))
    state = random_state(first.num_qubits, 1).reshape(-1)
    _fused.cache_clear()
    run(first, state)
    size = _fused.cache_info().currsize
    assert size > 0
    run(again, state)
    assert _fused.cache_info().currsize == size


def test_wide_diagonal_run_touches_only_its_all_ones_slice(monkeypatch):
    # One run on wires 2, 5, 6 of 7, every gate phasing only where bit 2 is 1;
    # it is phased in place, never multiplied by a fused operator.
    n = 7
    c = circuit_of(n, s(2), cz(2, 5), ccz(2, 5, 6), s(2))
    psi = random_state(n, 3).reshape(-1)
    evolve = sim._evolve

    def wide_only(psi, gates, n):
        if n <= _FUSE_QUBITS:
            pytest.fail("diagonal run was fused")
        return evolve(psi, gates, n)

    monkeypatch.setattr(sim, "_fused", lambda *args: pytest.fail("diagonal run was fused"))
    monkeypatch.setattr(sim, "_evolve", wide_only)
    got = run(c, psi)
    untouched = ((np.arange(1 << n) >> (n - 1 - 2)) & 1) == 0
    assert np.array_equal(got[untouched].view(np.uint64), psi[untouched].view(np.uint64))
    assert np.abs(got - oracle_unitary(c) @ psi).max() <= 1e-12


# --- scheduling past the whole-state cap ---

# Phase gates, angled gates, CRY, Y and H: gates that commute with each
# other and gates that do not, on shared wires.
SCHEDULED_POOL = (
    Gate.Z, Gate.S, Gate.SDG, Gate.CZ, Gate.CS, Gate.CCZ,
    Gate.RX, Gate.RY, Gate.RZ, Gate.CRY, Gate.Y, Gate.H,
)


@st.composite
def scheduled_cases(draw):
    """A circuit of 20-120 gates on 7-12 wires, and fixed kets on all but
    1-3 of its wires."""
    n = draw(st.integers(7, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Half the cases crowd their gates onto 6 wires, so runs fill up and
    # gates wait behind ones that share their wires.
    wires = n if draw(st.booleans()) else 6
    apps = []
    for gate in rng.choice(SCHEDULED_POOL, size=draw(st.integers(20, 120))).tolist():
        qubits = tuple(rng.choice(wires, size=gate.arity, replace=False).tolist())
        angle = float(rng.uniform(-math.pi, math.pi)) if gate.takes_angle else None
        apps.append(GateApp(GateKind(gate, angle), qubits))
    free = draw(st.integers(1, 3))
    kets = [KET_0, KET_1, KET_PLUS_I, KET_MINUS_I]
    fixed = {int(w): kets[int(rng.integers(4))] for w in rng.permutation(n)[free:]}
    return Circuit(n, tuple(apps)), int(rng.integers(2**32)), fixed


@settings(max_examples=100, deadline=None)
@given(scheduled_cases())
def test_scheduled_runs_match_the_per_gate_loop(case):
    c, seed, fixed = case
    n = c.num_qubits
    state = random_state(n, seed).reshape(-1)
    assert np.abs(run(c, state) - per_gate(c, state)).max() <= 1e-12
    want = kron_inputs(n, fixed).reshape((2,) * n + (-1,))
    for app in c.gates:
        want = _apply(want, app)
    assert np.abs(evolve_columns(c, fixed) - want).max() <= 1e-12


def in_order_products(c):
    """Products the in-order cutter takes: maximal runs of consecutive gates
    on at most ``_FUSE_QUBITS`` wires, less the runs of only phase gates."""
    runs, wires = [[]], set()
    for app in c.gates:
        wires |= set(app.qubits)
        if len(wires) > _FUSE_QUBITS:
            runs.append([])
            wires = set(app.qubits)
        runs[-1].append(app.kind.gate)
    return sum(not set(tags) <= set(DIAGONAL_ONES) for tags in runs)


def test_scheduler_takes_fewer_products_than_the_in_order_cut(monkeypatch):
    numpy = RecordingNumpy()
    monkeypatch.setattr(sim, "np", numpy)
    rng = np.random.default_rng(2026)
    circuits = [wide_lowered(rng, 16) for _ in range(8)]
    for c in circuits:
        run(c, random_state(c.num_qubits, 7).reshape(-1))
    assert sum(map(in_order_products, circuits)) == 72
    assert len(numpy.products) == 52


def test_scheduling_is_linear_in_the_gate_count(monkeypatch):
    # The 8-wire lowering of 200 copies of every lowerable gate: 5201 gates,
    # each looked at (taken off the scheduler's queue) once, plus once for
    # every time it waits behind a run. The lookahead bound keeps that
    # below a constant per gate; without it, every run rereads the rest.
    looked = []

    class CountingDeque(deque):
        def popleft(self):
            looked.append(1)
            return super().popleft()

    c = wide_lowered(np.random.default_rng(1), 6, copies=200)
    assert (c.num_qubits, len(c.gates)) == (8, 5201)
    monkeypatch.setattr(sim, "deque", CountingDeque)
    steps = sim._schedule(c.gates)
    assert sorted(map(id, (app for step in steps for app in step))) == sorted(map(id, c.gates))
    assert len(looked) <= 4 * len(c.gates)


def test_induce_peak_is_the_columns_plus_one_product():
    # 12 wires, 10 of them free: the columns are 64 MiB. Evolving them takes
    # one copy buffer beside them, and reading them one rotated copy; no
    # step may hold a third array of their size.
    source = wide_source(np.random.default_rng(10), 10)
    low = lower(source, REAL_O2_CCZ)
    n = low.circuit.num_qubits
    columns = (1 << n) * (1 << source.num_qubits) * np.dtype(complex).itemsize
    induce_lowered(low)  # fill the operator cache first
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        got = induce_lowered(low)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # 5% over two column sizes covers a rotation slab and the small operators.
    assert peak <= 2.05 * columns
    assert phase_aligned_distance(got.block, circuit_unitary(source)) <= 1e-12
    assert got.catalyst_deficit <= 1e-12 and got.leakage <= 1e-12


# --- width caps ---

def test_state_width_cap_is_checked_before_allocating(refuse_big_arrays):
    too_wide = MAX_STATE_QUBITS + 1
    with pytest.raises(ValueError, match="statevector capped"):
        product_state(["0"] * too_wide)
    with pytest.raises(ValueError, match="statevector capped"):
        basis_state(too_wide, 0)
    with pytest.raises(ValueError, match="statevector capped"):
        run(Circuit(too_wide), KET_0.copy())
    fusable = circuit_of(too_wide, h(0), ccz(0, 1, 2), h(2), cz(1, 2))
    with pytest.raises(ValueError, match="statevector capped"):
        run(fusable, KET_0.copy())


def test_column_pass_width_cap_is_checked_before_allocating(refuse_big_arrays):
    too_wide = Circuit(MAX_DENSE_QUBITS + 1)
    with pytest.raises(ValueError, match="capped at 12 qubits, got 13"):
        evolve_columns(too_wide, {MAX_DENSE_QUBITS: KET_PLUS_I})
    with pytest.raises(ValueError, match="capped at 12 qubits, got 13"):
        circuit_unitary(too_wide)
    fusable = circuit_of(MAX_DENSE_QUBITS + 1, h(0), ccz(0, 1, 2), h(2), cz(1, 2))
    with pytest.raises(ValueError, match="capped at 12 qubits, got 13"):
        evolve_columns(fusable, {0: KET_PLUS_I})


# --- evolve_columns ---

@st.composite
def column_cases(draw):
    n = draw(st.integers(1, 5))
    c = random_circuit(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, 12)
    wires = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    kets = draw(st.lists(st.sampled_from([KET_0, KET_1, KET_PLUS_I, KET_MINUS_I]),
                         min_size=len(wires), max_size=len(wires)))
    return c, dict(zip(wires, kets))


def kron_inputs(n, fixed):
    """One column per basis input of the free wires, built by np.kron."""
    free = [q for q in range(n) if q not in fixed]
    columns = []
    for j in range(1 << len(free)):
        vec = np.array([1.0], dtype=complex)
        for q in range(n):
            if q in fixed:
                vec = np.kron(vec, fixed[q])
            else:
                bit = (j >> (len(free) - 1 - free.index(q))) & 1
                vec = np.kron(vec, KET_1 if bit else KET_0)
        columns.append(vec)
    return np.stack(columns, axis=1)


@settings(max_examples=80, deadline=None)
@given(column_cases())
def test_columns_are_the_unitary_on_fixed_inputs(case):
    c, fixed = case
    n = c.num_qubits
    cols = evolve_columns(c, fixed)
    assert cols.shape == (2,) * n + (1 << (n - len(fixed)),)
    want = oracle_unitary(c) @ kron_inputs(n, fixed)
    assert np.abs(cols.reshape(1 << n, -1) - want).max() <= 1e-12


def test_columns_with_the_catalyst_on_wire_zero():
    # The gadgets put the catalyst first; projecting it back out of the
    # columns gives the induced operator that project_wires finds.
    g = cs_gadget()
    cols = evolve_columns(g.circuit, {0: KET_PLUS_I})
    block = np.tensordot(KET_PLUS_I.conj(), cols, axes=([0], [0])).reshape(4, 4)
    full = project_wires(circuit_unitary(g.circuit), 3, {0: KET_PLUS_I}, {0: KET_PLUS_I})
    assert np.abs(block - full).max() <= 1e-12
    assert np.abs(block - g.claimed_induced).max() <= 1e-12


def test_column_pass_rejects_fixed_wires_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        evolve_columns(Circuit(2), {2: KET_0})


# --- circuit_unitary ---

def test_unitary_columns_are_basis_evolutions():
    rng = np.random.default_rng(9)
    c = random_circuit(rng, 3, 12)
    u = circuit_unitary(c)
    for j in range(8):
        col = run(c, basis_state(3, j))
        assert np.abs(u[:, j] - col).max() <= 1e-13


def test_unitary_agrees_with_kronecker_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(20):
        c = random_circuit(rng, 3, 30)
        diff = circuit_unitary(c) - oracle_unitary(c)
        assert np.linalg.norm(diff) <= 1e-12


def test_unitary_qubit_cap():
    with pytest.raises(ValueError, match="capped"):
        circuit_unitary(Circuit(MAX_DENSE_QUBITS + 1))


def test_real_profiles_have_real_unitaries():
    rng = np.random.default_rng(77)
    for profile in (HCCZ, REAL_O2_CCZ):
        for _ in range(8):
            c = random_circuit(rng, 4, 25, tags=profile.tags())
            u = circuit_unitary(c)
            assert np.abs(u.imag).max() <= 1e-13


# --- phase-aligned distance ---

def test_distance_zero_on_self():
    rng = np.random.default_rng(10)
    c = random_circuit(rng, 3, 15)
    u = circuit_unitary(c)
    assert phase_aligned_distance(u, u) == 0.0


def test_distance_quotients_global_phase():
    u = circuit_unitary(circuit_of(2, h(0), cz(0, 1)))
    assert phase_aligned_distance(u, np.exp(0.7j) * u) <= 1e-13


def test_distance_identity_vs_z_is_one():
    assert phase_aligned_distance(np.eye(2, dtype=complex),
                                  gate_matrix(GateKind(Gate.Z))) == 1.0


def test_distance_symmetric():
    rng = np.random.default_rng(11)
    a = circuit_unitary(random_circuit(rng, 2, 10))
    b = circuit_unitary(random_circuit(rng, 2, 10))
    assert abs(phase_aligned_distance(a, b) - phase_aligned_distance(b, a)) <= 1e-14


def test_distance_resolves_below_sqrt_eps():
    # d(I, Rz(eps)) = sqrt(1 - cos(eps/4)^2 ...) ~ eps / (2 sqrt(2)); the naive
    # trace evaluation floors near 1.5e-8 and cannot see this.
    eps = 1e-10
    d = phase_aligned_distance(np.eye(2, dtype=complex),
                               gate_matrix(GateKind(Gate.RZ, eps)))
    expected = eps / (2.0 * math.sqrt(2.0))
    assert abs(d - expected) <= 0.05 * expected


def test_distance_shape_check():
    with pytest.raises(ValueError, match="square"):
        phase_aligned_distance(np.eye(2), np.eye(4))


# --- catalytic factorization ---

def test_extract_identity_is_catalytic():
    rep = extract_catalytic(np.eye(4, dtype=complex), 0, KET_PLUS_I)
    assert rep.is_catalytic
    assert np.abs(rep.induced - np.eye(2)).max() <= 1e-14
    assert rep.catalyst_deficit <= 1e-14


def test_extract_s_gadget_induces_s():
    u = circuit_unitary(parse_circuit("qubits 2\nH 0\nCZ 1 0\nH 0\nCZ 1 0"))
    rep = extract_catalytic(u, 0, KET_PLUS_I)
    assert rep.is_catalytic
    assert np.abs(rep.induced - np.diag([1, 1j])).max() <= 1e-13


def test_extract_swap_is_not_catalytic():
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    rep = extract_catalytic(swap, 0, KET_PLUS_I)
    assert not rep.is_catalytic
    assert rep.induced is None
    assert rep.catalyst_deficit > 0.5


def test_extract_soundness_on_basis_inputs():
    tol = 1e-12
    u = circuit_unitary(parse_circuit("qubits 3\nH 0\nCCZ 1 2 0\nH 0\nCCZ 1 2 0"))
    rep = extract_catalytic(u, 0, KET_PLUS_I, tol)
    assert rep.is_catalytic
    for j in range(4):
        data = basis_state(2, j)
        full_in = np.kron(KET_PLUS_I, data)
        lhs = u @ full_in
        rhs = np.kron(KET_PLUS_I, rep.induced @ data)
        assert np.linalg.norm(lhs - rhs) <= 10 * tol


def test_extract_needs_the_induced_operator_unitary():
    # The catalyst is kept (no residual) but the data block shrinks a column.
    rep = extract_catalytic(np.kron(np.eye(2), np.diag([1.0, 0.5])), 0, KET_PLUS_I)
    assert rep.catalyst_deficit <= 1e-15
    assert not rep.is_catalytic
    assert rep.induced is None


def test_extract_reads_the_deficit_as_an_amplitude():
    # |<-i| RX(theta) |+i>| = sin(theta / 2): the deficit is that amplitude,
    # so a 1e-6 leak reads 1e-6, not the 5e-13 it takes off the kept norm.
    for leak in (0.5, 1e-6):
        u = np.kron(gate_matrix(GateKind(Gate.RX, 2.0 * math.asin(leak))), np.eye(2))
        rep = extract_catalytic(u, 0, KET_PLUS_I)
        assert not rep.is_catalytic
        assert rep.catalyst_deficit == pytest.approx(leak, rel=1e-9)


def test_extract_catalyst_on_middle_wire():
    # Catalyst need not be wire 0: S gadget with data on 0, catalyst on 1.
    u = circuit_unitary(parse_circuit("qubits 2\nH 1\nCZ 0 1\nH 1\nCZ 0 1"))
    rep = extract_catalytic(u, 1, KET_PLUS_I)
    assert rep.is_catalytic
    assert np.abs(rep.induced - np.diag([1, 1j])).max() <= 1e-13


def test_extract_errors():
    with pytest.raises(ValueError, match="at least 2"):
        extract_catalytic(np.eye(2, dtype=complex), 0, KET_PLUS_I)
    with pytest.raises(ValueError, match="out of range"):
        extract_catalytic(np.eye(4, dtype=complex), 2, KET_PLUS_I)
    with pytest.raises(ValueError, match="normalized"):
        extract_catalytic(np.eye(4, dtype=complex), 0, np.array([1.0, 1.0]))


def test_product_state_tokens():
    psi = product_state(["+i", "1"])
    assert np.allclose(psi, np.kron(KET_PLUS_I, KET_1))
    with pytest.raises(ValueError, match="unknown state token"):
        product_state(["2"])
    # Every token is checked, in order, before anything is built.
    with pytest.raises(ValueError, match="unknown state token '2'"):
        product_state(["2", "0", "x"])


def test_product_state_matches_the_kron_chain():
    rng = np.random.default_rng(12)
    names = sorted(sim.STATE_TOKENS)
    for count in range(1, 13):
        tokens = rng.choice(names, size=count).tolist()
        want = np.array([1.0], dtype=complex)
        for tok in tokens:
            want = np.kron(want, sim.STATE_TOKENS[tok])
        got = product_state(tokens)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15


def test_basis_state_bit_order():
    # Qubit 0 is the most significant bit: |10> has index 2.
    psi = product_state(["1", "0"])
    assert np.array_equal(psi, basis_state(2, 2))
    with pytest.raises(ValueError, match="out of range"):
        basis_state(2, 4)
