"""Circuit IR: construction rules, text format, counts, membership."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    GateSetProfile,
    Violation,
    ccz,
    check_membership,
    circuit_of,
    cs,
    cz,
    gate_counts,
    h,
    parse_circuit,
    ry,
    s,
    serialize_circuit,
)
from conftest import random_circuit


def test_parse_single_gate():
    c = parse_circuit("qubits 1\nH 0")
    assert c.num_qubits == 1
    assert c.gates == (h(0),)


def test_parse_ignores_comments_blanks_and_case():
    text = "\n".join(
        [
            "# full-line comment",
            "QUBITS 3",
            "",
            "h 0   # trailing comment",
            "ccz 0 1 2",
            "Ry(0.25) 1",
        ]
    )
    c = parse_circuit(text)
    assert c.gates == (h(0), ccz(0, 1, 2), ry(0.25, 1))


def test_parse_cs_gadget_shape():
    c = parse_circuit("qubits 4\nH 3\nCCZ 1 2 3\nH 3\nCCZ 1 2 3")
    counts = gate_counts(c)
    assert counts[Gate.H] == 2
    assert counts[Gate.CCZ] == 2
    assert len(c.gates) == 4


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("H 0", "qubits"),
        ("qubits 0\nH 0", "positive"),
        ("qubits x\nH 0", "bad qubit count"),
        ("qubits 1\nQ 0", "unknown gate"),
        ("qubits 3\nCCZ 0 0 1", "duplicate"),
        ("qubits 1\nH 0 1", "operand"),
        ("qubits 1\nH 1", "circuit has 1"),
        ("qubits 1\nRY 0", "requires an angle"),
        ("qubits 1\nH(0.5) 0", "takes no angle"),
        ("qubits 1\nRY(nope) 0", "unparseable angle"),
        ("qubits 1\nRY(inf) 0", "finite"),
        ("qubits 1\nRY(1.0 0", "malformed"),
        ("qubits 1\nH q0", "bad operand"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(CircuitError, match=fragment):
        parse_circuit(text)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CircuitError, match="line 3"):
        parse_circuit("qubits 2\nH 0\nCCZ 0 0 1")


def test_parse_repeated_lines_and_case_variants():
    c = parse_circuit("qubits 3\nCZ 0 1\ncz 0 1\nRY(0.5) 2\nCZ 0 1\nRY(0.5) 2\nCZ 0 1  # again")
    assert c.gates == (cz(0, 1), cz(0, 1), ry(0.5, 2), cz(0, 1), ry(0.5, 2), cz(0, 1))
    # An identical accepted angle-free line reuses its GateApp.
    assert c.gates[0] is c.gates[3] is c.gates[5]


def test_parse_repeated_bad_line_reports_its_first_line():
    with pytest.raises(CircuitError, match="^line 3: duplicate"):
        parse_circuit("qubits 2\nCZ 0 1\nCZ 0 0\nH 1\nCZ 0 0")


def test_serialize_canonical_forms():
    assert serialize_circuit(circuit_of(1, h(0))) == "qubits 1\nH 0"
    c = circuit_of(1, ry(math.pi, 0))
    assert serialize_circuit(c) == "qubits 1\nRY(3.1415926535897931) 0"


def test_serialize_parse_structural_round_trip():
    rng = np.random.default_rng(117)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        c = random_circuit(rng, n, int(rng.integers(0, 25)))
        again = parse_circuit(serialize_circuit(c))
        assert again == c


def test_serialize_shared_gate_app_round_trips():
    app, rot = cz(0, 1), ry(0.1, 2)
    c = Circuit(3, (app, rot, app, h(2), app, rot, app))
    text = serialize_circuit(c)
    rot_line = "RY(0.10000000000000001) 2"
    assert text == "\n".join(["qubits 3", "CZ 0 1", rot_line, "CZ 0 1", "H 2", "CZ 0 1", rot_line, "CZ 0 1"])
    assert parse_circuit(text) == c
    assert serialize_circuit(parse_circuit(text)) == text


def test_serialize_is_idempotent_fixed_point():
    text = "qubits 2\n  h 0\nry(0.1) 1  # note"
    once = serialize_circuit(parse_circuit(text))
    twice = serialize_circuit(parse_circuit(once))
    assert once == twice


def test_gate_kind_validation():
    with pytest.raises(CircuitError, match="requires an angle"):
        GateKind(Gate.RX)
    with pytest.raises(CircuitError, match="takes no angle"):
        GateKind(Gate.H, 0.3)
    with pytest.raises(CircuitError, match="finite"):
        GateKind(Gate.RZ, float("nan"))


def test_gate_app_validation():
    with pytest.raises(CircuitError, match="expects 2 operand"):
        GateApp(GateKind(Gate.CZ), (0,))
    with pytest.raises(CircuitError, match="duplicate"):
        GateApp(GateKind(Gate.CCZ), (1, 1, 2))
    with pytest.raises(CircuitError, match="non-negative"):
        GateApp(GateKind(Gate.H), (-1,))


def test_circuit_validation():
    with pytest.raises(CircuitError, match="positive"):
        Circuit(0)
    with pytest.raises(CircuitError, match="uses qubit 2"):
        Circuit(2, (ccz(0, 1, 2),))


def test_circuit_names_the_first_out_of_range_gate():
    with pytest.raises(CircuitError) as exc:
        Circuit(2, (h(0), cz(0, 3), ccz(0, 1, 7)))
    assert str(exc.value) == "gate 1 (CZ) uses qubit 3 but circuit has 2"


def test_width_check_names_gate_k_among_ten_thousand_shared_gates():
    shared = (h(0), ccz(0, 1, 2), cz(2, 1), ry(0.5, 1))
    for k in (0, 4321, 9999):
        gates = [shared[i % len(shared)] for i in range(10_000)]
        gates[k] = cz(0, 5)
        with pytest.raises(CircuitError) as exc:
            Circuit(3, tuple(gates))
        assert str(exc.value) == f"gate {k} (CZ) uses qubit 5 but circuit has 3"
        assert Circuit(6, tuple(gates)).gates[k].top == 5


def test_gate_app_equality_hash_and_repr_ignore_its_top_operand():
    a = GateApp(GateKind(Gate.CZ), (3, 1))
    b = GateApp(GateKind(Gate.CZ), [3, 1])
    assert a.top == b.top == 3
    object.__setattr__(b, "top", 99)
    assert a == b and hash(a) == hash(b) == hash((a.kind, a.qubits))
    assert repr(a) == repr(b) == (
        "GateApp(kind=GateKind(gate=<Gate.CZ: 'CZ'>, angle=None), qubits=(3, 1))"
    )
    assert pickle.loads(pickle.dumps(a)).top == 3


ALL_BUT_X = GateSetProfile("all but X", lambda g: g is not Gate.X)


@st.composite
def shared_circuits(draw):
    # Gates drawn from a small pool, so that most objects recur.
    n = draw(st.integers(1, 4))
    tags = [g for g in Gate if g.arity <= n]
    pool = []
    for gate in draw(st.lists(st.sampled_from(tags), min_size=1, max_size=6)):
        qubits = tuple(draw(st.permutations(range(n)))[: gate.arity])
        angle = draw(st.floats(-4.0, 4.0)) if gate.takes_angle else None
        pool.append(GateApp(GateKind(gate, angle), qubits))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    return Circuit(n, tuple(pool[i] for i in picks))


@settings(max_examples=80, deadline=None)
@given(shared_circuits())
def test_membership_and_counts_equal_a_per_gate_reference(c):
    for profile in (*PROFILES.values(), ALL_BUT_X):
        want = [
            Violation(i, app.kind.gate)
            for i, app in enumerate(c.gates)
            if not profile.admits(app.kind.gate)
        ]
        assert check_membership(c, profile) == want
    want = [(g, sum(app.kind.gate is g for app in c.gates)) for g in Gate]
    assert list(gate_counts(c).items()) == want


def test_gate_counts_empty_circuit_is_all_zero():
    counts = gate_counts(Circuit(3))
    assert set(counts) == set(Gate)
    assert all(v == 0 for v in counts.values())


def test_gate_counts_sum_equals_length():
    rng = np.random.default_rng(5)
    for _ in range(10):
        c = random_circuit(rng, 4, int(rng.integers(0, 30)))
        assert sum(gate_counts(c).values()) == len(c.gates)


def test_membership_examples():
    gadget = parse_circuit("qubits 4\nH 3\nCCZ 1 2 3\nH 3\nCCZ 1 2 3")
    assert check_membership(gadget, HCCZ) == []
    assert check_membership(circuit_of(1, s(0)), HCCZ) == [Violation(0, Gate.S)]
    assert check_membership(circuit_of(1, ry(0.3, 0)), REAL_O2_CCZ) == []
    assert check_membership(circuit_of(2, h(0), cs(0, 1)), HCS) == []


def test_membership_full_is_always_empty():
    rng = np.random.default_rng(6)
    for _ in range(10):
        c = random_circuit(rng, 4, 20)
        assert check_membership(c, FULL) == []


def test_profiles_registry():
    assert set(PROFILES) == {"HCCZ", "HCS", "REAL_O2_CCZ", "FULL"}
    assert PROFILES["HCCZ"].tags() == (Gate.H, Gate.CCZ)
    assert PROFILES["REAL_O2_CCZ"].tags() == (
        Gate.H,
        Gate.X,
        Gate.Z,
        Gate.RY,
        Gate.CCZ,
    )


def test_angle_formatting_round_trips_doubles():
    rng = np.random.default_rng(8)
    for _ in range(200):
        angle = float(rng.uniform(-10, 10))
        c = circuit_of(1, ry(angle, 0))
        back = parse_circuit(serialize_circuit(c))
        assert back.gates[0].kind.angle == angle


def test_gate_lookup_by_value_name_and_pickle_finds_one_entry():
    table = {Gate.H: "h"}
    for key in (Gate("H"), Gate["H"], pickle.loads(pickle.dumps(Gate.H))):
        assert key is Gate.H
        assert table[key] == "h"
    assert len({Gate("CCZ"), Gate["CCZ"], pickle.loads(pickle.dumps(Gate.CCZ))}) == 1
