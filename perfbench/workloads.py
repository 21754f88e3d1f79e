"""The three benchmark workloads: seeded inputs, one timed item, its check.

Each workload makes its inputs from the seed alone, runs one item through the
public API of ``catalyq``, and checks the item's output against the
independent reference in ``oracle`` outside the timed region. Source circuits
use a fixed multiset of gates per item (shuffled, with seeded wires and
angles), so the CCZ and gate counts of the output repeat exactly for every
seed while the circuits themselves differ.

Why each workload exists is written up in this directory's README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from catalyq import ir, lowering, sim, synth

import oracle

LOWERABLE = ("H", "X", "Z", "S", "SDG", "RX", "RY", "RZ", "CZ", "CS", "CCZ")
TARGET_GATES = frozenset({"H", "X", "Z", "RY", "CCZ"})
_ARITY = {"CZ": 2, "CS": 2, "CCZ": 3}
_ANGLED = {"RX", "RY", "RZ"}
_TOKENS = ("0", "1", "+", "-", "+i", "-i")

SYNTH_TOL = 1e-8
STATE_TOL = 1e-9


class CheckFailed(AssertionError):
    """An item's output disagrees with the reference."""


@dataclass(frozen=True)
class Quality:
    ccz: int
    gates: int
    added_wires: int


@dataclass(frozen=True)
class Workload:
    name: str
    group: int  # the timed loop stops only after a whole group of items
    generate: Callable[[int], list]
    item: Callable[[Any], Any]
    new_check: Callable[[], Callable[[Any, Any], Quality]]  # one checker per run
    label: Callable[[Any], str | None]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def source_text(rng: np.random.Generator, n: int, copies: int) -> str:
    """Circuit text with ``copies`` of every lowerable gate, in seeded order."""
    names = rng.permutation(np.repeat(np.array(LOWERABLE), copies))
    wires = rng.permuted(np.tile(np.arange(n), (len(names), 1)), axis=1)
    angles = rng.uniform(-math.pi, math.pi, len(names))
    lines = [f"qubits {n}"]
    for name, row, angle in zip(names.tolist(), wires.tolist(), angles.tolist()):
        head = f"{name}({angle!r})" if name in _ANGLED else name
        lines.append(" ".join([head, *map(str, row[: _ARITY.get(name, 1)])]))
    return "\n".join(lines) + "\n"


def haar_su(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random SU(dim): Ginibre, QR, column phases fixed, determinant removed."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    u = q * (d / np.abs(d))
    return u / np.linalg.det(u) ** (1.0 / dim)


def _quality(n_data: int, n_total: int, ops) -> Quality:
    return Quality(
        ccz=sum(1 for name, _, _ in ops if name == "CCZ"),
        gates=len(ops),
        added_wires=n_total - n_data,
    )


def _added_wire_states(n_data: int, n_total: int, catalyst: int | None):
    """In and out states of the added wires: catalyst |+i> -> |+i>, ancilla |0> -> |1>."""
    if n_total > n_data and catalyst is None:
        raise CheckFailed("wires were added but none is named the catalyst")
    ins, outs = {}, {}
    for w in range(n_data, n_total):
        if w == catalyst:
            ins[w] = outs[w] = oracle.KET_PLUS_I
        else:
            ins[w], outs[w] = oracle.TOKEN_STATES["0"], oracle.TOKEN_STATES["1"]
    return ins, outs


def _expected_state(n_data, data_ops, data_in, n_total, catalyst):
    """Lowered input, and reference(data) (x) the added wires' out states."""
    ins, outs = _added_wire_states(n_data, n_total, catalyst)
    added = range(n_data, n_total)
    full_in = np.kron(data_in, oracle.product(ins[w] for w in added))
    ref = oracle.simulate(n_data, data_ops, data_in)
    return full_in, np.kron(ref, oracle.product(outs[w] for w in added))


def _compare_states(expected: np.ndarray, got: np.ndarray) -> None:
    if got.shape != expected.shape:
        raise CheckFailed(f"output state has shape {got.shape}, expected {expected.shape}")
    infidelity = 1.0 - abs(np.vdot(expected, got))
    norm_error = abs(float(np.linalg.norm(got)) - 1.0)
    if infidelity > STATE_TOL or norm_error > STATE_TOL:
        raise CheckFailed(f"state mismatch: infidelity {infidelity:.3e}, norm error {norm_error:.3e}")


# --- synth_haar ---------------------------------------------------------------

SYNTH_MS = (1, 2, 3)
SYNTH_ROUNDS = 128


def synth_generate(seed: int) -> list[tuple[int, np.ndarray]]:
    rng = _rng(seed, 1)
    return [(m, haar_su(rng, 1 << m)) for _ in range(SYNTH_ROUNDS) for m in SYNTH_MS]


def synth_item(x):
    return synth.synthesize(x[1])


def synth_check(x, result) -> Quality:
    m, target = x
    lowered = result.lowered
    n = lowered.circuit.num_qubits
    ops = oracle.ops_of(lowered.circuit)
    ins, outs = _added_wire_states(m, n, lowered.catalyst_qubit)
    induced = oracle.induced_operator(n, ops, ins, outs)
    distance = oracle.phase_distance(induced, target)
    # Columns of norm 1 mean no amplitude left the catalyst |+i> or the ancilla |1>.
    leakage = float(np.max(np.abs(1.0 - np.linalg.norm(induced, axis=0))))
    if distance > SYNTH_TOL or leakage > SYNTH_TOL:
        raise CheckFailed(f"m={m}: distance {distance:.3e}, leakage {leakage:.3e}")
    return _quality(m, n, ops)


# --- compile_long -------------------------------------------------------------

COMPILE_DATA = 6
COMPILE_COPIES = 200  # 11 gate kinds x 200 = 2200 source gates per item
COMPILE_POOL = 16


def compile_generate(seed: int) -> list[tuple[str, np.ndarray]]:
    """Source texts, each with a random product state to probe it with.

    Generic single-wire states, not basis-like tokens, so that no gate of the
    output can act trivially on the probe by accident.
    """
    rng = _rng(seed, 2)
    out = []
    for _ in range(COMPILE_POOL):
        text = source_text(rng, COMPILE_DATA, COMPILE_COPIES)
        wires = rng.standard_normal((COMPILE_DATA, 2)) + 1j * rng.standard_normal((COMPILE_DATA, 2))
        probe = oracle.product(v / np.linalg.norm(v) for v in wires)
        out.append((text, probe))
    return out


def compile_item(x):
    lowered = lowering.lower(ir.parse_circuit(x[0]), ir.REAL_O2_CCZ)
    report = lowering.count_report(lowered).to_json()
    return lowered, report, ir.serialize_circuit(lowered.circuit)


def compile_check(x, out) -> Quality:
    text, probe = x
    lowered, report, emitted = out
    n_src, src_ops = oracle.parse_text(text)
    n_out, out_ops = oracle.parse_text(emitted)
    stray = {name for name, _, _ in out_ops} - TARGET_GATES
    if stray:
        raise CheckFailed(f"output has gates outside the target set: {sorted(stray)}")
    if ir.parse_circuit(emitted) != lowered.circuit:
        raise CheckFailed("parse(serialize(x)) != x")
    if not isinstance(json.loads(report), dict):
        raise CheckFailed("count report is not a JSON object")
    full_in, expected = _expected_state(n_src, src_ops, probe, n_out, lowered.catalyst_qubit)
    _compare_states(expected, oracle.simulate(n_out, out_ops, full_in))
    return _quality(n_src, n_out, out_ops)


def _digest(circuit) -> bytes:
    return hashlib.sha256(repr((circuit.num_qubits, oracle.ops_of(circuit))).encode()).digest()


class CompileCheck:
    """``compile_check`` that remembers the outputs it has verified.

    An output identical to one already verified for the same source text (the
    emitted text, the report and a digest of the circuit) gets that verdict
    again without re-simulating; any difference gets the full check. Only
    strings and digests are kept: holding the circuits would leave hundreds of
    thousands of objects for the garbage collector to walk inside timed items.
    """

    def __init__(self) -> None:
        self._verified: dict[str, tuple[str, str, bytes, Quality]] = {}

    def __call__(self, x, out) -> Quality:
        lowered, report, emitted = out
        known = self._verified.get(x[0])
        if known is not None and known[:2] == (emitted, report) and known[2] == _digest(lowered.circuit):
            return known[3]
        quality = compile_check(x, out)
        self._verified[x[0]] = (emitted, report, _digest(lowered.circuit), quality)
        return quality


# --- simulate_wide ------------------------------------------------------------

WIDE_DATA = 16
WIDE_COPIES = 2  # 22 source gates per item, about 125 once lowered
WIDE_POOL = 64


def wide_generate(seed: int) -> list[tuple[Any, list, tuple[str, ...]]]:
    rng = _rng(seed, 3)
    out = []
    for _ in range(WIDE_POOL):
        text = source_text(rng, WIDE_DATA, WIDE_COPIES)
        tokens = tuple(rng.choice(_TOKENS, WIDE_DATA).tolist())
        out.append((ir.parse_circuit(text), oracle.parse_text(text)[1], tokens))
    return out


def wide_item(x):
    lowered = lowering.lower(x[0], ir.REAL_O2_CCZ)
    n = lowered.circuit.num_qubits
    added = ["+i" if w == lowered.catalyst_qubit else "0" for w in range(WIDE_DATA, n)]
    return lowered, sim.run(lowered.circuit, sim.product_state([*x[2], *added]))


def wide_check(x, out) -> Quality:
    _, src_ops, tokens = x
    lowered, state = out
    n = lowered.circuit.num_qubits
    data_in = oracle.product(oracle.TOKEN_STATES[t] for t in tokens)
    _, expected = _expected_state(WIDE_DATA, src_ops, data_in, n, lowered.catalyst_qubit)
    _compare_states(expected, np.asarray(state))
    return _quality(WIDE_DATA, n, oracle.ops_of(lowered.circuit))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth_haar", len(SYNTH_MS), synth_generate, synth_item,
                 lambda: synth_check, lambda x: f"m{x[0]}"),
        Workload("compile_long", 1, compile_generate, compile_item,
                 CompileCheck, lambda x: None),
        Workload("simulate_wide", 1, wide_generate, wide_item,
                 lambda: wide_check, lambda x: None),
    )
}


def rule_table() -> dict[str, tuple[int, int]]:
    """Marginal (CCZ, gates) of one source gate, per lowerable gate.

    Lowers a circuit holding the gate twice and once and takes the difference,
    so one-time set-up such as the ancilla's X prep is not charged to a rule.
    """
    table = {}
    for name in LOWERABLE:
        line = f"{name}(0.7)" if name in _ANGLED else name
        line += " " + " ".join(map(str, range(_ARITY.get(name, 1))))
        counted = []
        for copies in (1, 2):
            source = ir.parse_circuit("qubits 3\n" + "\n".join([line] * copies))
            lowered = lowering.lower(source, ir.REAL_O2_CCZ).circuit
            counted.append(_quality(3, lowered.num_qubits, oracle.ops_of(lowered)))
        once, twice = counted
        table[name] = (twice.ccz - once.ccz, twice.gates - once.gates)
    return table
