"""Lowering pass: rule soundness, resource bounds, count law, reports."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catalyq import lowering, sim
from catalyq.ir import (
    FULL,
    HCCZ,
    HCS,
    PROFILES,
    REAL_O2_CCZ,
    Circuit,
    CircuitError,
    Gate,
    GateApp,
    GateKind,
    ccz,
    check_membership,
    circuit_of,
    cs,
    cz,
    gate_counts,
    h,
    rx,
    ry,
    rz,
    s,
    serialize_circuit,
    x,
    z,
)
from catalyq.lowering import (
    A,
    C,
    RULES,
    LoweringError,
    check_lemmas,
    count_report,
    induce,
    induced_block,
    lower,
    merge_phases,
    rule_cost,
    verify_lowering,
)
from catalyq.sim import KET_0, KET_1, KET_PLUS_I, AuxWire, circuit_unitary, phase_aligned_distance
from conftest import random_circuit
from oracles import project_wires

THETAS = [2.0 * math.pi * k / 16.0 for k in range(16)]


def single_gate_circuit(gate, theta=None):
    angle = theta if gate.takes_angle else None
    qubits = tuple(range(gate.arity))
    return Circuit(gate.arity, (GateApp(GateKind(gate, angle), qubits),))


def test_lemma_table():
    assert check_lemmas() <= 1e-13


@pytest.mark.parametrize(
    "gate, broken",
    [
        # RX with S and SDG swapped computes RX(-t).
        (Gate.RX, ((Gate.SDG, (0,)), (Gate.RY, (0,)), (Gate.S, (0,)))),
        # S gadget with its second CCZ dropped: the catalyst leaks.
        (Gate.S, RULES[Gate.S][:3]),
        # CZ widened onto the catalyst instead of the |1> ancilla.
        (Gate.CZ, ((Gate.CCZ, (C, 0, 1)),)),
        # RZ with its RY angle negated (Z RY(t) Z = RY(-t)) computes RZ(-t).
        (Gate.RZ, ((Gate.CCZ, (A, 0, C)), (Gate.Z, (C,)), (Gate.RY, (C,)), (Gate.Z, (C,)),
                   (Gate.CCZ, (A, 0, C)))),
        # SDG with H before the first CCZ is the S gadget: it yields S.
        (Gate.SDG, ((Gate.H, (C,)), (Gate.CCZ, (A, 0, C)), (Gate.H, (C,)), (Gate.CCZ, (A, 0, C)))),
        # RX missing one H.
        (Gate.RX, ((Gate.H, (0,)), (Gate.RZ, (0,)))),
        # Y missing the catalyst's Z: the phase i is lost and |+i> leaves as |-i>.
        (Gate.Y, ((Gate.Z, (0,)), (Gate.X, (0,)), (Gate.X, (C,)))),
    ],
)
def test_corrupted_rule_fails_lemma_check(monkeypatch, gate, broken):
    monkeypatch.setitem(RULES, gate, broken)
    assert check_lemmas() > 1e-6


def test_cached_plans_follow_a_patched_rule(monkeypatch):
    src = circuit_of(2, cz(0, 1), cz(0, 1))
    lower(src, REAL_O2_CCZ)
    misses = lowering._built_plan.cache_info().misses
    assert lower(src, REAL_O2_CCZ).circuit.gates == (x(2), ccz(2, 0, 1), ccz(2, 0, 1))
    assert lowering._built_plan.cache_info().misses == misses
    monkeypatch.setitem(RULES, Gate.CZ, ((Gate.H, (1,)), (Gate.CCZ, (A, 0, 1)), (Gate.H, (1,))))
    assert lower(src, REAL_O2_CCZ).circuit.gates == (x(2), *[h(1), ccz(2, 0, 1), h(1)] * 2)
    monkeypatch.undo()
    assert lower(src, REAL_O2_CCZ).circuit.gates == (x(2), ccz(2, 0, 1), ccz(2, 0, 1))


@pytest.mark.parametrize("field", ["catalyst_deficit", "leakage"])
def test_lemma_check_reads_the_catalyst_and_the_leakage(monkeypatch, field):
    # An exact block is not enough: a rule must also return its catalyst and
    # keep its amplitude in the block.
    real = lowering.induce
    monkeypatch.setattr(lowering, "induce", lambda low: dataclasses.replace(real(low), **{field: 1e-6}))
    assert check_lemmas() >= 1e-6


def test_lemma_check_runs_the_emitted_prep(monkeypatch):
    # The lemma check reads ``lower``'s own output: a wrong ancilla prep in
    # ``lower`` (Z leaves |0> at |0>) must fail it.
    monkeypatch.setattr(lowering, "x", z)
    assert check_lemmas() > 1e-6


# --- per-rule soundness ---

@pytest.mark.parametrize("gate", [Gate.H, Gate.X, Gate.Z, Gate.CCZ, Gate.S,
                                  Gate.SDG, Gate.CS, Gate.CZ])
def test_rule_soundness_fixed_gates_real_target(gate):
    src = single_gate_circuit(gate)
    low = lower(src, REAL_O2_CCZ)
    assert check_membership(low.circuit, REAL_O2_CCZ) == []
    chk = verify_lowering(src, low)
    assert chk.ok, (gate, chk.distance, chk.catalyst_deficit)


@pytest.mark.parametrize("gate", [Gate.RX, Gate.RY, Gate.RZ])
def test_rule_soundness_rotations_real_target(gate):
    for theta in THETAS:
        src = single_gate_circuit(gate, theta)
        low = lower(src, REAL_O2_CCZ)
        assert check_membership(low.circuit, REAL_O2_CCZ) == []
        chk = verify_lowering(src, low)
        assert chk.ok, (gate, theta, chk.distance)


@pytest.mark.parametrize("gate", [Gate.H, Gate.CCZ, Gate.CS])
def test_rule_soundness_hccz_target(gate):
    src = single_gate_circuit(gate)
    low = lower(src, HCCZ)
    assert check_membership(low.circuit, HCCZ) == []
    chk = verify_lowering(src, low)
    assert chk.ok


# --- unlowerable gates ---

@pytest.mark.parametrize(
    "gate, target",
    [
        (Gate.Y, HCCZ),
        (Gate.CRY, REAL_O2_CCZ),
        (Gate.CRY, HCCZ),
        (Gate.S, HCCZ),
        (Gate.X, HCCZ),
        (Gate.RY, HCCZ),
        (Gate.S, HCS),
    ],
)
def test_unlowerable_gates_raise(gate, target):
    src = single_gate_circuit(gate, 0.3)
    with pytest.raises(LoweringError, match="gate 0"):
        lower(src, target)


def test_full_target_passes_everything_through():
    rng = np.random.default_rng(21)
    c = random_circuit(rng, 4, 20)
    low = lower(c, FULL)
    assert low.circuit == c
    assert low.catalyst_qubit is None
    assert low.ancilla_qubits == ()


# --- idempotence and resources ---

def test_lowering_members_is_identity():
    c = circuit_of(3, h(0), x(1), z(2), ry(0.4, 0), ccz(0, 1, 2))
    low = lower(c, REAL_O2_CCZ)
    assert low.circuit == c
    assert low.catalyst_qubit is None
    assert low.ancilla_qubits == ()
    assert low.rule_instances[Gate.S] == 0


def test_resources_capped_at_one_catalyst_one_ancilla():
    gates = []
    for q in (0, 1):
        gates += [s(q), cs(0, 1), cz(0, 1), s(q), s(q)]
    c = Circuit(2, tuple(gates))
    low = lower(c, REAL_O2_CCZ)
    assert low.circuit.num_qubits == 4  # 2 data + catalyst + ancilla
    assert low.catalyst_qubit == 2
    assert low.ancilla_qubits == (AuxWire(3, 0, 1),)
    # Ancilla is prepared exactly once.
    assert low.counts[Gate.X] == 1


def test_catalyst_only_when_no_rule_needs_ancilla():
    low = lower(circuit_of(2, cs(0, 1)), HCCZ)
    assert low.circuit.num_qubits == 3
    assert low.catalyst_qubit == 2
    assert low.ancilla_qubits == ()


def test_named_catalyst_is_kicked_in_place():
    # Wire 2 is the source's |+i> catalyst: RZ kicks it, CZ(1, 2) flips it
    # back and forth around an RY, and only the ancilla is appended.
    src = circuit_of(3, rz(0.9, 0), cz(1, 2), ry(0.7, 2), cz(1, 2), h(1))
    low = lower(src, REAL_O2_CCZ, catalyst=2)
    assert low.circuit.num_qubits == 4
    assert low.catalyst_qubit == 2 and low.ancilla_qubits == (AuxWire(3, 0, 1),)
    chk = verify_lowering(src, low)
    assert chk.ok, chk
    assert chk.source_catalyst_deficit <= 1e-12
    # The same gates with no catalyst named: wire 2 is data, a catalyst is appended.
    plain = lower(src, REAL_O2_CCZ)
    assert plain.catalyst_qubit == 3 and plain.circuit.num_qubits == 5


def test_named_catalyst_without_a_kick_stays_named():
    src = circuit_of(2, cz(0, 1), ry(0.3, 1), cz(0, 1))
    low = lower(src, REAL_O2_CCZ, catalyst=1)
    assert low.catalyst_qubit == 1 and low.ancilla_qubits == (AuxWire(2, 0, 1),)
    assert verify_lowering(src, low).ok


def test_a_source_that_spends_its_catalyst_fails_verification():
    # RY(0.7) on |+i> is a phase, but H sends it to |-i>: the source itself
    # does not return its catalyst, and its lowering cannot either.
    src = circuit_of(2, ry(0.7, 1), h(1))
    chk = verify_lowering(src, lower(src, REAL_O2_CCZ, catalyst=1))
    assert not chk.ok
    assert chk.source_catalyst_deficit == pytest.approx(1.0)


@pytest.mark.parametrize("wire", [-1, 3, 40])
def test_catalyst_outside_the_source_is_refused(refuse_big_arrays, wire):
    with pytest.raises(LoweringError, match="outside"):
        lower(circuit_of(3, s(0)), REAL_O2_CCZ, catalyst=wire)


@pytest.mark.parametrize("app", [s(2), rz(0.4, 2), rx(0.2, 2), cs(0, 2)])
def test_a_rule_may_not_rewrite_a_gate_on_the_named_catalyst(app):
    # Each of these rules kicks the catalyst, so on the catalyst it cannot hold.
    # (CZ's rule needs only the ancilla, so CZ(x, catalyst) lowers.)
    src = circuit_of(3, h(0), app)
    with pytest.raises(LoweringError, match="gate 1 .* catalyst wire 2"):
        lower(src, REAL_O2_CCZ, catalyst=2)


# --- pinned examples ---

def test_lower_cs_to_hccz():
    low = lower(circuit_of(2, cs(0, 1)), HCCZ)
    counts = gate_counts(low.circuit)
    assert counts[Gate.H] == 2
    assert counts[Gate.CCZ] == 2
    chk = verify_lowering(circuit_of(2, cs(0, 1)), low)
    assert chk.ok
    assert chk.distance <= 1e-12


def test_lower_h_unchanged_under_hccz():
    src = circuit_of(1, h(0))
    low = lower(src, HCCZ)
    assert low.circuit == src
    chk = verify_lowering(src, low)
    assert chk.ok
    assert chk.distance == 0.0


def test_lower_s_to_real_target():
    src = circuit_of(1, s(0))
    low = lower(src, REAL_O2_CCZ)
    counts = gate_counts(low.circuit)
    assert counts[Gate.CCZ] == 2
    assert counts[Gate.X] == 1
    assert low.circuit.num_qubits == 3
    block = induced_block(low)
    assert np.abs(block / block[0, 0] - np.diag([1.0, 1j])).max() <= 1e-12


# --- composability over random circuits ---

SOURCE_TAGS = (Gate.H, Gate.S, Gate.SDG, Gate.CS, Gate.CZ, Gate.RY, Gate.RX, Gate.RZ)


def test_composability_random_two_qubit_circuits():
    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        src = random_circuit(rng, 2, 15, tags=SOURCE_TAGS)
        low = lower(src, REAL_O2_CCZ)
        chk = verify_lowering(src, low)
        assert chk.ok, (seed, chk.distance, chk.catalyst_deficit)


def test_count_law_exact():
    for seed in range(20):
        rng = np.random.default_rng(9100 + seed)
        src = random_circuit(rng, 2, 15, tags=SOURCE_TAGS)
        low = lower(src, REAL_O2_CCZ)
        expected = sum(rule_cost(app.kind.gate).ccz for app in src.gates)
        assert low.counts[Gate.CCZ] == expected


def test_count_law_with_source_ccz_passthrough():
    src = circuit_of(3, ccz(0, 1, 2), s(0), ccz(0, 1, 2), cz(1, 2))
    low = lower(src, REAL_O2_CCZ)
    law = sum(rule_cost(app.kind.gate).ccz for app in src.gates if app.kind.gate in RULES)
    assert low.counts[Gate.CCZ] == law + 2  # the two source CCZ ride through


# --- accept/reject per gate and profile ---

LOWERABLE_TO = {
    "FULL": set(Gate),
    "HCS": {Gate.H, Gate.CS},
    "HCCZ": {Gate.H, Gate.CS, Gate.CCZ},
    "REAL_O2_CCZ": set(Gate) - {Gate.CRY},
}


@pytest.mark.parametrize("name", sorted(PROFILES))
@pytest.mark.parametrize("gate", list(Gate))
def test_accept_reject_every_gate_every_profile(gate, name):
    angle = 0.3 if gate.takes_angle else None
    app = GateApp(GateKind(gate, angle), tuple(range(gate.arity)))
    src = Circuit(3, (h(0), app))
    if gate in LOWERABLE_TO[name]:
        low = lower(src, PROFILES[name])
        assert check_membership(low.circuit, PROFILES[name]) == []
        assert verify_lowering(src, low).ok
    else:
        with pytest.raises(LoweringError) as exc:
            lower(src, PROFILES[name])
        assert str(exc.value) == f"gate 1 ({gate.value}) is not lowerable to {name}"


@st.composite
def source_circuits(draw, max_wires=3, max_gates=8, tags=tuple(Gate)):
    n = draw(st.integers(1, max_wires))
    apps = []
    pool = [g for g in tags if g.arity <= n]
    for gate in draw(st.lists(st.sampled_from(pool), max_size=max_gates)):
        qubits = tuple(draw(st.permutations(range(n)))[: gate.arity])
        angle = draw(st.floats(-2 * math.pi, 2 * math.pi)) if gate.takes_angle else None
        apps.append(GateApp(GateKind(gate, angle), qubits))
    return Circuit(n, tuple(apps))


@settings(max_examples=40, deadline=None)
@given(source_circuits())
def test_lowering_is_verified_or_names_first_bad_gate(src):
    for name, profile in PROFILES.items():
        bad = [i for i, g in enumerate(src.gates) if g.kind.gate not in LOWERABLE_TO[name]]
        if bad:
            with pytest.raises(LoweringError, match=rf"^gate {bad[0]} \("):
                lower(src, profile)
            continue
        low = lower(src, profile)
        assert check_membership(low.circuit, profile) == []
        chk = verify_lowering(src, low)
        assert chk.ok, (name, chk.distance, chk.catalyst_deficit)


@settings(max_examples=60, deadline=None)
@given(source_circuits(max_wires=4, max_gates=24))
def test_counts_match_the_emitted_circuit(src):
    # ``lower`` derives its counts from the rule plans; they must equal a
    # recount of what it emitted, and the CCZ count must obey the count law:
    # each rule instance adds the CCZ its own entries name (nested rules
    # fire, and are counted, on their own).
    ccz_in = gate_counts(src)[Gate.CCZ]
    own_ccz = {g: sum(sub is Gate.CCZ for sub, _ in rule) for g, rule in RULES.items()}
    for profile in PROFILES.values():
        try:
            low = lower(src, profile)
        except LoweringError:
            continue
        assert low.counts == gate_counts(low.circuit)
        assert low.rule_instances.keys() == RULES.keys()
        law = ccz_in + sum(k * own_ccz[g] for g, k in low.rule_instances.items())
        assert low.counts[Gate.CCZ] == law


@settings(max_examples=60, deadline=None)
@given(source_circuits(max_wires=4, max_gates=16, tags=SOURCE_TAGS))
def test_each_source_gate_lowers_to_one_span_after_the_prep(src):
    # With an ancilla, the output is its one X prep and then, in source
    # order, one span per source gate: that gate's own one-gate lowering
    # minus its prep, on the gate's operands, the catalyst and the ancilla.
    for profile in PROFILES.values():
        try:
            low = lower(src, profile)
        except LoweringError:
            continue
        if not low.ancilla_qubits:
            continue
        (ancilla,) = low.ancilla_qubits
        anc = ancilla.qubit
        gates = low.circuit.gates
        assert gates[0] == x(anc)
        assert x(anc) not in gates[1:]
        at = 1
        for app in src.gates:
            alone = lower(Circuit(src.num_qubits, (app,)), profile)
            rename = {q: q for q in range(src.num_qubits)}
            rename[alone.catalyst_qubit] = low.catalyst_qubit
            rename.update((a.qubit, anc) for a in alone.ancilla_qubits)
            own = alone.circuit.gates[len(alone.ancilla_qubits) :]
            span = gates[at : at + len(own)]
            assert len(span) == len(own)
            assert span == tuple(GateApp(g.kind, tuple(rename[q] for q in g.qubits)) for g in own)
            assert {q for g in span for q in g.qubits} <= {*app.qubits, low.catalyst_qubit, anc}
            at += len(own)
        assert at == len(gates)


@settings(max_examples=60, deadline=None)
@given(source_circuits(max_wires=4, max_gates=24))
def test_lower_shares_angle_free_gates_and_builds_angled_ones_fresh(src):
    # Among the gates ``lower`` builds (not passed through from the source),
    # equal angle-free gates are one object, and each angled gate is its own.
    passed = set(map(id, src.gates))
    for profile in PROFILES.values():
        try:
            low = lower(src, profile)
        except LoweringError:
            continue
        built = [app for app in low.circuit.gates if id(app) not in passed]
        by_gate: dict[GateApp, set[int]] = {}
        for app in built:
            if app.kind.angle is None:
                by_gate.setdefault(app, set()).add(id(app))
        assert all(len(ids) == 1 for ids in by_gate.values())
        angled = [id(app) for app in built if app.kind.angle is not None]
        assert len(set(angled)) == len(angled)


def test_lower_shares_a_gate_across_source_gates():
    # RZ 0 and RX 0 each emit CCZ (ancilla, 0, catalyst) twice: one object.
    low = lower(circuit_of(1, rz(0.3, 0), rx(0.2, 0)), REAL_O2_CCZ)
    (ancilla,) = low.ancilla_qubits
    anc = ancilla.qubit
    ccz_apps = [app for app in low.circuit.gates if app == ccz(anc, 0, low.catalyst_qubit)]
    assert len(ccz_apps) == 4 and len(set(map(id, ccz_apps))) == 1


# --- lowered output pinned byte for byte ---

def _every_gate(order):
    # Every gate REAL_O2_CCZ can lower, cycling over the operands of 3 wires.
    apps = []
    for i, gate in enumerate(g for g in order if g is not Gate.CRY):
        qubits = tuple((i + k) % 3 for k in range(gate.arity))
        apps.append(GateApp(GateKind(gate, 0.3 + i if gate.takes_angle else None), qubits))
    return Circuit(3, tuple(apps))


GOLDEN_SOURCES = {
    "every_gate": _every_gate(list(Gate)),
    "every_gate_reversed": _every_gate(list(reversed(Gate))),
    # RZ's expansion names the ancilla, so the output opens with its X prep,
    # ahead of RZ's whole span, leading CCZ included.
    "rz_first": Circuit(3, (rz(0.5, 1), s(0), cz(0, 2), cs(1, 2), rz(-0.5, 2))),
    "mix_short": random_circuit(np.random.default_rng(4242), 3, 300, tags=SOURCE_TAGS),
    "mix_long": random_circuit(np.random.default_rng(4343), 5, 2200, tags=SOURCE_TAGS),
    "hccz_mix": random_circuit(
        np.random.default_rng(4444), 4, 300, tags=(Gate.H, Gate.CS, Gate.CCZ)
    ),
}

# sha256 of serialize_circuit, then rule_instances of S, CS and CZ.
GOLDEN_LOWERINGS = {
    ("every_gate", "REAL_O2_CCZ"): (
        "798eb65074aa731eb8ace6ef5ef671a1802c35cf29548c856205fc5eaafe51c4", 1, 1, 1),
    ("every_gate_reversed", "REAL_O2_CCZ"): (
        "6719ea923043854252d5710170d6cbe3a9559887ed984482eb0815f1e512abc2", 1, 1, 1),
    ("rz_first", "REAL_O2_CCZ"): (
        "bc49d93a1ae89b3eb47e7a1f9baf5c5ecd96225b90b8f8cb48463b3b10ca09ea", 1, 1, 1),
    ("mix_short", "REAL_O2_CCZ"): (
        "778c01e8b34987dc315b8269b18e7c2a8b5b65e4c0271fd71b533f6cff8ec2d1", 36, 40, 28),
    ("mix_long", "REAL_O2_CCZ"): (
        "00d77c15357edc5e291b2af03646cf18f725bbcf7f5f3759fc4f69d28c31ff36", 248, 281, 297),
    ("hccz_mix", "REAL_O2_CCZ"): (
        "bc944ef8031727c4984436575e291cca0afc8d2cc0f78d691763c038d00cbda1", 0, 115, 0),
    ("hccz_mix", "HCCZ"): (
        "bc944ef8031727c4984436575e291cca0afc8d2cc0f78d691763c038d00cbda1", 0, 115, 0),
}

GOLDEN_REJECTIONS = {
    ("every_gate", "HCCZ"): "gate 1 (X) is not lowerable to HCCZ",
    ("every_gate_reversed", "HCCZ"): "gate 2 (CZ) is not lowerable to HCCZ",
    ("rz_first", "HCCZ"): "gate 0 (RZ) is not lowerable to HCCZ",
    ("mix_short", "HCCZ"): "gate 2 (RY) is not lowerable to HCCZ",
    ("mix_long", "HCCZ"): "gate 0 (RY) is not lowerable to HCCZ",
}


@pytest.mark.parametrize("source, target", sorted(GOLDEN_LOWERINGS))
def test_lowered_output_is_pinned(source, target):
    low = lower(GOLDEN_SOURCES[source], PROFILES[target])
    digest = hashlib.sha256(serialize_circuit(low.circuit).encode()).hexdigest()
    instances = low.rule_instances
    got = (digest, instances[Gate.S], instances[Gate.CS], instances[Gate.CZ])
    assert got == GOLDEN_LOWERINGS[source, target]
    chk = verify_lowering(GOLDEN_SOURCES[source], low)
    assert max(chk.distance, chk.catalyst_deficit, chk.leakage) <= 1e-12


def test_merged_lowering_is_pinned():
    # merge_phases and lower build their gates through ir.trusted_app; the
    # bytes must be those of gates built through the validating constructors.
    merged = merge_phases(GOLDEN_SOURCES["mix_long"])
    low = lower(merged, REAL_O2_CCZ)
    assert (len(merged.gates), len(low.circuit.gates)) == (1782, 4584)
    digests = [hashlib.sha256(serialize_circuit(c).encode()).hexdigest() for c in (merged, low.circuit)]
    assert digests == [
        "64d2e798daec3d3cac241e26dd99c56c9870e723b36fd7af94aefeb0235fb479",
        "ef6dac17b26742e9bf33964cd5c8eb6e40b29710693fb1beec54c2eafdf0eb28",
    ]


@pytest.mark.parametrize("source, target", sorted(GOLDEN_REJECTIONS))
def test_golden_rejections(source, target):
    with pytest.raises(LoweringError) as exc:
        lower(GOLDEN_SOURCES[source], PROFILES[target])
    assert str(exc.value) == GOLDEN_REJECTIONS[source, target]


# --- negative control: a corrupted lowering must fail verification ---

def test_corrupted_lowering_detected():
    src = circuit_of(1, s(0))
    low = lower(src, REAL_O2_CCZ)
    gates = list(low.circuit.gates)
    idx = max(i for i, g in enumerate(gates) if g.kind.gate is Gate.CCZ)
    del gates[idx]
    broken = dataclasses.replace(
        low, circuit=Circuit(low.circuit.num_qubits, tuple(gates))
    )
    chk = verify_lowering(src, broken)
    assert not chk.ok
    assert chk.distance > 0.1


@pytest.mark.parametrize(
    "field", ["distance", "catalyst_deficit", "leakage", "source_catalyst_deficit"]
)
def test_ok_is_read_from_the_residuals(field):
    # ``ok`` is not stored beside the residuals, so it cannot outlive them.
    src = circuit_of(1, s(0))
    chk = verify_lowering(src, lower(src, REAL_O2_CCZ))
    assert chk.ok
    assert dataclasses.replace(chk, **{field: math.nan}).ok is False


def test_lowering_without_ancilla_prep_leaks():
    src = circuit_of(1, s(0))
    low = lower(src, REAL_O2_CCZ)
    gates = tuple(g for g in low.circuit.gates if g.kind.gate is not Gate.X)
    broken = dataclasses.replace(low, circuit=Circuit(low.circuit.num_qubits, gates))
    chk = verify_lowering(src, broken)
    assert chk.leakage == pytest.approx(1.0)
    assert not chk.ok
    assert verify_lowering(src, low).leakage <= 1e-12


def test_verify_lowering_size_cap(refuse_big_arrays):
    src = Circuit(11, (s(0),))
    low = lower(src, REAL_O2_CCZ)  # 11 data + catalyst + ancilla = 13 wires
    with pytest.raises(ValueError, match="capped"):
        verify_lowering(src, low)


# --- the column pass against the full dense unitary ---

def reference_block(lowered):
    """The induced block from the lowered circuit's full dense unitary."""
    n_low = lowered.circuit.num_qubits
    ins, outs = {}, {}
    if lowered.catalyst_qubit is not None:
        ins[lowered.catalyst_qubit] = outs[lowered.catalyst_qubit] = KET_PLUS_I
    for a in lowered.ancilla_qubits:
        ins[a.qubit], outs[a.qubit] = (KET_0, KET_1)[a.in_bit], (KET_0, KET_1)[a.out_bit]
    return project_wires(circuit_unitary(lowered.circuit), n_low, ins, outs)


def kron_loop_deficit(lowered):
    """Catalyst return deficit from the full unitary, one np.kron-built input
    per data basis state."""
    if lowered.catalyst_qubit is None:
        return 0.0
    n_low = lowered.circuit.num_qubits
    u_low = circuit_unitary(lowered.circuit)
    n_data = n_low - 1 - len(lowered.ancilla_qubits)
    fixed = {lowered.catalyst_qubit: KET_PLUS_I}
    for a in lowered.ancilla_qubits:
        fixed[a.qubit] = (KET_0, KET_1)[a.in_bit]
    deficit = 0.0
    for k in range(1 << n_data):
        vec = np.array([1.0], dtype=complex)
        for q in range(n_low):
            if q in fixed:
                vec = np.kron(vec, fixed[q])
            else:
                bit = (k >> (n_data - 1 - q)) & 1
                vec = np.kron(vec, KET_1 if bit else KET_0)
        out = (u_low @ vec).reshape([2] * n_low)
        kept = np.tensordot(
            KET_PLUS_I.conj(), out, axes=([0], [lowered.catalyst_qubit])
        )
        deficit = max(deficit, 1.0 - float(np.linalg.norm(kept)))
    return deficit


@settings(max_examples=40, deadline=None)
@given(source_circuits())
def test_column_pass_matches_full_unitary(src):
    for profile in PROFILES.values():
        try:
            low = lower(src, profile)
        except LoweringError:
            continue
        got = induce(low)
        want = reference_block(low)
        assert np.abs(got.block - want).max() <= 1e-12
        assert abs(got.catalyst_deficit - kron_loop_deficit(low)) <= 1e-12
        leakage = float(np.max(1.0 - np.linalg.norm(want, axis=0)))
        assert abs(got.leakage - leakage) <= 1e-12


# --- count report ---

GOLDEN_S_REPORT = """{
  "counts": {
    "H": 2,
    "X": 1,
    "Y": 0,
    "Z": 0,
    "S": 0,
    "SDG": 0,
    "RX": 0,
    "RY": 0,
    "RZ": 0,
    "CZ": 0,
    "CS": 0,
    "CRY": 0,
    "CCZ": 2
  },
  "catalyst": true,
  "ancilla": 1,
  "ccz_per_cs": null,
  "ccz_per_s": 2.0,
  "notes": [
    "controlled-S gadget: 2 CCZ per instance, no |0> ancilla (vs an 8-CCZ baseline construction: >= 75% fewer CCZ)",
    "S gadget: 2 CCZ per instance plus one shared X-prepped |1> ancilla",
    "reference, not measured here: S built on a verified k-CCZ |1>-prep circuit totals k+2 CCZ (k=12 gives 14, vs an 18-CCZ baseline)"
  ]
}"""


def test_count_report_golden_bytes():
    low = lower(circuit_of(1, s(0)), REAL_O2_CCZ)
    assert count_report(low).to_json() == GOLDEN_S_REPORT


def test_count_report_key_order_pinned():
    low = lower(circuit_of(2, cs(0, 1)), HCCZ)
    payload = json.loads(count_report(low).to_json())
    assert list(payload) == [
        "counts", "catalyst", "ancilla", "ccz_per_cs", "ccz_per_s", "notes",
    ]
    assert list(payload["counts"]) == [g.value for g in Gate]
    assert payload["ccz_per_cs"] == 2.0
    assert payload["ccz_per_s"] is None


def test_count_report_empty_lowering():
    low = lower(Circuit(1), REAL_O2_CCZ)
    rep = count_report(low)
    assert all(v == 0 for v in rep.counts.values())
    assert rep.catalyst is False
    assert rep.ancilla == 0
    assert rep.ccz_per_cs is None
    assert rep.ccz_per_s is None
    assert rep.ccz_per_other_rule == {}


def test_rates_cover_derived_rules():
    # The RZ rule that an RX rewrite fires still reports its own rate.
    low = lower(circuit_of(1, GateApp(GateKind(Gate.RX, 0.7), (0,))), REAL_O2_CCZ)
    rep = count_report(low)
    assert low.rule_instances[Gate.RX] == low.rule_instances[Gate.RZ] == 1
    assert rep.ccz_per_other_rule == {"RX": 2.0, "RZ": 2.0}
    assert rep.ccz_per_s is None


def test_rule_costs():
    ccz = {g: rule_cost(g).ccz for g in RULES}
    assert ccz == {
        Gate.CS: 2, Gate.S: 2, Gate.CZ: 1, Gate.SDG: 2, Gate.RX: 2, Gate.RZ: 2, Gate.Y: 0,
    }
    # Each is what one source gate adds to a lowering, the ancilla prep aside.
    for gate in RULES:
        low = lower(single_gate_circuit(gate, 0.3), REAL_O2_CCZ)
        prep = len(low.ancilla_qubits)
        assert rule_cost(gate) == (low.counts[Gate.CCZ], len(low.circuit.gates) - prep)


def test_count_report_rates_every_rule_that_fired():
    src = circuit_of(2, s(0), cs(0, 1), cz(0, 1), GateApp(GateKind(Gate.SDG), (1,)),
                     GateApp(GateKind(Gate.Y), (0,)), rz(0.4, 1))
    low = lower(src, REAL_O2_CCZ)
    payload = json.loads(count_report(low).to_json())
    assert list(payload) == [
        "counts", "catalyst", "ancilla", "ccz_per_cs", "ccz_per_s",
        "ccz_per_other_rule", "notes",
    ]
    assert payload["ccz_per_cs"] == payload["ccz_per_s"] == 2.0
    assert payload["ccz_per_other_rule"] == {"CZ": 1.0, "SDG": 2.0, "RZ": 2.0, "Y": 0.0}


# --- merge_phases ---

# ``synth``'s vocabulary plus S, SDG, CS and CCZ.
MERGE_TAGS = (Gate.H, Gate.X, Gate.Z, Gate.S, Gate.SDG, Gate.RX, Gate.RY, Gate.RZ,
              Gate.CZ, Gate.CS, Gate.CCZ)
# Multiples of pi/4 land merged sums on Z, S, SDG and nothing; the rest do not.
MERGE_ANGLES = st.one_of(
    st.sampled_from([k * math.pi / 4.0 for k in range(-8, 9)]), st.floats(-7.0, 7.0)
)


@st.composite
def merge_sources(draw, max_wires=4, max_gates=24):
    n = draw(st.integers(1, max_wires))
    pool = [g for g in MERGE_TAGS if g.arity <= n]
    apps = []
    for gate in draw(st.lists(st.sampled_from(pool), max_size=max_gates)):
        qubits = tuple(draw(st.permutations(range(n)))[: gate.arity])
        angle = draw(MERGE_ANGLES) if gate.takes_angle else None
        apps.append(GateApp(GateKind(gate, angle), qubits))
    return Circuit(n, tuple(apps))


def ccz_cost(c):
    return sum(rule_cost(app.kind.gate).ccz for app in c.gates)


def merge_faults(src, catalyst=None):
    """What ``merge_phases`` gets wrong on ``src``: its operator (the whole
    unitary, or with ``catalyst`` fed |+i> and read out through <+i|) off
    by more than 1e-12, its CCZ cost up, or a second pass changing it."""
    merged = merge_phases(src, catalyst)
    faults = []
    if catalyst is None:
        distance = phase_aligned_distance(circuit_unitary(merged), circuit_unitary(src))
    else:
        # A catalyst that need not come back induces a block that need not be
        # unitary: align the phase on the overlap, then take the largest gap.
        got, want = (sim.induce(c, catalyst).block for c in (merged, src))
        overlap = np.vdot(want, got)
        phase = overlap / abs(overlap) if abs(overlap) else 1.0
        distance = float(np.abs(got - phase * want).max())
    if not distance <= 1e-12:
        faults.append(f"distance {distance:.3e}")
    if ccz_cost(merged) > ccz_cost(src):
        faults.append(f"CCZ {ccz_cost(src)} -> {ccz_cost(merged)}")
    if merge_phases(merged, catalyst) != merged:
        faults.append("a second pass changes it")
    return faults


@settings(max_examples=200, deadline=None)
@given(merge_sources())
def test_merge_phases_keeps_the_operator_and_never_costs_more(src):
    assert merge_faults(src) == []


@st.composite
def catalyst_sources(draw, max_data=2, max_gates=24):
    """Phases and other ``MERGE_TAGS`` gates on the data wires, mixed with
    CZ(w, catalyst), RY on the catalyst (the last wire) and other gates on it."""
    n = draw(st.integers(1, max_data))
    cat = n
    pool = [g for g in MERGE_TAGS if g.arity <= n]
    apps = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(["phase", "data", "cz", "ry", "other"]))
        if kind == "phase":
            apps.append(rz(draw(MERGE_ANGLES), draw(st.integers(0, n - 1))))
        elif kind == "data":
            gate = draw(st.sampled_from(pool))
            qubits = tuple(draw(st.permutations(range(n)))[: gate.arity])
            angle = draw(MERGE_ANGLES) if gate.takes_angle else None
            apps.append(GateApp(GateKind(gate, angle), qubits))
        elif kind == "cz":
            apps.append(cz(draw(st.integers(0, n - 1)), cat))
        elif kind == "ry":
            apps.append(ry(draw(MERGE_ANGLES), cat))
        else:
            gate = draw(st.sampled_from([Gate.H, Gate.X, Gate.Z, Gate.S]))
            apps.append(GateApp(GateKind(gate), (cat,)))
    return Circuit(n + 1, tuple(apps))


@settings(max_examples=200, deadline=None)
@given(catalyst_sources())
# H on wire 0 after CZ(0, catalyst): the catalyst's sign no longer reads wire 0.
@example(circuit_of(2, cz(0, 1), h(0), ry(0.7, 1), rz(0.5, 0)))
def test_merge_phases_with_a_catalyst_keeps_the_induced_operator(src):
    assert merge_faults(src, catalyst=src.num_qubits - 1) == []


@pytest.mark.parametrize(
    "src, want",
    [
        (circuit_of(1, s(0), s(0)), circuit_of(1, z(0))),
        (circuit_of(1, s(0), GateApp(GateKind(Gate.SDG), (0,))), circuit_of(1)),
        (circuit_of(1, z(0), z(0), rz(math.pi / 2, 0)), circuit_of(1, s(0))),
        (circuit_of(2, rz(0.3, 0), cz(0, 1), cs(1, 0), rz(-0.3, 0)), circuit_of(2, cz(0, 1), cs(1, 0))),
        (circuit_of(2, rz(0.2, 0), cz(0, 1), rz(0.3, 0), h(0), rz(0.4, 1)),
         circuit_of(2, cz(0, 1), rz(0.5, 0), h(0), rz(0.4, 1))),
        (circuit_of(3, rz(0.2, 1), ccz(0, 1, 2), x(1), rz(0.5, 1), ry(0.1, 1), rz(0.6, 1)),
         circuit_of(3, ccz(0, 1, 2), rz(0.2, 1), x(1), rz(0.5, 1), ry(0.1, 1), rz(0.6, 1))),
    ],
)
def test_merge_phases_writes_each_sum_once(src, want):
    assert merge_phases(src) == want


def test_merge_phases_feeds_an_rz_to_the_catalyst_walk():
    # Wire 2 is the catalyst. The RY between the CZ(0, 2) pair is taken while
    # the catalyst's sign is (-1)^x0, so RZs on wire 0 on either side join it;
    # the one across H, and the one at the RY under both flips, stay.
    walk = (cz(0, 2), ry(0.7, 2), cz(1, 2), ry(0.4, 2), cz(0, 2), cz(1, 2))
    src = circuit_of(3, rz(0.2, 0), rz(0.5, 1), *walk, rz(0.1, 0), h(0), rz(0.3, 0))
    want = circuit_of(
        3, cz(0, 2), ry(0.7 + 0.2 + 0.1, 2), cz(1, 2), ry(0.4, 2), cz(0, 2), cz(1, 2),
        h(0), rz(0.3, 0), rz(0.5, 1),
    )
    got = merge_phases(src, catalyst=2)
    assert [(a.kind.gate, a.qubits) for a in got.gates] == [(a.kind.gate, a.qubits) for a in want.gates]
    for a, b in zip(got.gates, want.gates):
        assert a.kind.angle == pytest.approx(b.kind.angle)
    assert merge_faults(src, catalyst=2) == []
    # Without the catalyst named the RZs only merge with one another.
    assert [a.kind.gate for a in merge_phases(src).gates].count(Gate.RZ) == 3


def test_a_merged_angle_that_overflows_is_refused():
    # Each RZ(1e308) is finite; their sum is not, on the wire and in the
    # catalyst's RY that takes an RZ in.
    with pytest.raises(CircuitError, match="merged RZ angle on wire 0 is not finite"):
        merge_phases(circuit_of(1, rz(1e308, 0), rz(1e308, 0)))
    walk = circuit_of(2, cz(0, 1), ry(1e308, 1), cz(0, 1), rz(1e308, 0))
    with pytest.raises(CircuitError, match="RY angle must be finite"):
        merge_phases(walk, catalyst=1)


@pytest.mark.parametrize("across", [Gate.H, Gate.RY, Gate.X])
def test_a_merge_across_a_non_diagonal_gate_is_caught(monkeypatch, across):
    monkeypatch.setattr(lowering, "_DIAGONAL", lowering._DIAGONAL | {across})
    angle = 0.7 if across.takes_angle else None
    src = circuit_of(1, rz(0.3, 0), GateApp(GateKind(across, angle), (0,)), rz(0.5, 0))
    assert merge_faults(src)
    # The property's random circuits find it too.
    rng = np.random.default_rng(11)
    caught = sum(
        bool(merge_faults(random_circuit(rng, 3, 12, tags=MERGE_TAGS))) for _ in range(40)
    )
    assert caught > 0
