"""Gate-set lowering via catalytic gadget rewrite rules.

``lower`` rewrites a circuit so every gate lands in a target gate set,
spending at most one catalyst wire (|+i>, appended after the data wires or
named by the source) and at most one ancilla wire (|0>, appended last). Data
wires keep their source indices. A source that names its catalyst (``synth``'s
decompositions do) has its operator read with that wire fed |+i> and read out
through <+i|, and must return it too.

``RULES`` is the only rule table. Each entry expands a gate over its own
operands, the catalyst ``c`` and the ancilla ``a``:

    CS d1 d2   -> gadgets.cs_gadget() on (c, d1, d2):
                  H c, CCZ d1 d2 c, H c, CCZ d1 d2 c
    S d        -> the same gadget on (c, a, d):
                  H c, CCZ a d c, H c, CCZ a d c
    CZ x y     -> CCZ a x y
    SDG d      -> the S gadget reversed: CCZ a d c, H c, CCZ a d c, H c
    RX(t) d    -> H d, RZ(t) d, H d
    RZ(t) d    -> CCZ a d c, RY(t) c, CCZ a d c
    Y d        -> Z d, X d, X c, Z c

RZ is the catalyst kick: |+i> is an RY eigenstate, RY(t)|+i> =
exp(-i t/2)|+i>, and the CCZ on the |1> ancilla is a CZ(d, c) that flips the
sign of t when d is |1>; the result is RZ(t) exactly, global phase included.
Y spends none: Z X maps |+i> to i|+i>, the phase in Y = i X Z.
``rule_cost`` gives each gate's CCZ and gate count once every rule has
expanded: 2 CCZ for S, SDG, CS, RZ and RX, 1 for CZ, 0 for Y.

A gate the target admits passes through; any other gate is expanded through
the table until every gate is admitted, or is not lowerable (CRY has no
entry). If any expansion names ``a``, the lowered circuit opens with the
ancilla's one X prep (|0> -> |1>); then each source gate lowers, in source
order, to one contiguous span: its own expansion, nothing else. The prep is
an emitted gate too, so a rule that names ``a`` needs X admitted: {H, CCZ}
takes CS but not S or CZ.

``merge_phases`` is a pass of its own, run before ``lower`` by a caller that
wants it (``synth`` does): on each wire it adds up the Z, S, SDG and RZ that
only diagonal gates (CZ, CS, CCZ) separate, and writes each sum as one gate
or none. Given a |+i> catalyst wire, it also folds an RZ on w into an RY
the catalyst takes while only CZ(w, catalyst) has flipped its sign.

Verification is one ``sim.induce`` pass over the data columns: the lowered
circuit runs on all 2^k basis inputs of its k data wires at once, with the
catalyst fed |+i> and the ancilla |0>; it allocates 2^(n+k) amplitudes for n
lowered wires, not the 2^(2n) of a full unitary, and is capped at
``sim.MAX_DENSE_QUBITS`` = 12 lowered wires. ``induce`` reads from it the
induced block (<+i| on the catalyst, <1| on the ancilla) and, as amplitude
norms, the catalyst deficit and the leakage. ``check_lemmas`` lowers each
table entry's gate alone, one level deep, and checks ``induce`` of what
``lower`` emits: the block entrywise against the gate, deficit and leakage.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .gadgets import Gadget, cs_gadget
from .ir import (
    Circuit,
    Gate,
    GateApp,
    GateKind,
    GateSetProfile,
    check_membership,
    tag_of,
    x,
)
from . import sim
from .sim import AuxWire, gate_matrix, phase_aligned_distance


class LoweringError(ValueError):
    """A source gate has no rewrite into the requested target gate set."""


# A rule names the rewritten gate's operands 0, 1, ... and these two wires.
# They are negative so that (*operands, catalyst, ancilla)[w] resolves any
# wire of a rule, and (*wires, C, A)[w] maps a nested rule onto its caller.
C, A = -2, -1

Rule = tuple[tuple[Gate, tuple[int, ...]], ...]


def _gadget_rule(g: Gadget, data: tuple[int, ...]) -> Rule:
    """``g``'s circuit with its catalyst on C and its data wires on ``data``."""
    wire = dict(zip((g.catalyst_qubit, *g.data_qubits), (C, *data)))
    return tuple(
        (app.kind.gate, tuple(wire[q] for q in app.qubits)) for app in g.circuit.gates
    )


# Angled gates in an expansion take the rewritten gate's angle.
RULES: dict[Gate, Rule] = {
    Gate.CS: _gadget_rule(cs_gadget(), (0, 1)),
    Gate.S: _gadget_rule(cs_gadget(), (A, 0)),
    Gate.CZ: ((Gate.CCZ, (A, 0, 1)),),
    Gate.SDG: _gadget_rule(cs_gadget(), (A, 0))[::-1],
    Gate.RX: ((Gate.H, (0,)), (Gate.RZ, (0,)), (Gate.H, (0,))),
    Gate.RZ: ((Gate.CCZ, (A, 0, C)), (Gate.RY, (C,)), (Gate.CCZ, (A, 0, C))),
    Gate.Y: ((Gate.Z, (0,)), (Gate.X, (0,)), (Gate.X, (C,)), (Gate.Z, (C,))),
}


@dataclass(frozen=True)
class LoweredCircuit:
    """A rewritten circuit plus the resource layout and rewrite statistics."""

    circuit: Circuit
    catalyst_qubit: int | None
    ancilla_qubits: tuple[AuxWire, ...]  # |0> in, <1| out: its X prep is in the circuit
    counts: dict[Gate, int]
    rule_instances: dict[Gate, int]  # times each ``RULES`` entry fired, 0 if never


def _flatten(gate: Gate, admits: Callable[[Gate], bool], fired: Counter) -> list | None:
    """``gate`` on operands 0, 1, ... rewritten to admitted gates, or None if
    it has no rewrite; ``fired`` counts the rules used."""
    if admits(gate):
        return [(gate, tuple(range(gate.arity)))]
    rule = RULES.get(gate)
    if rule is None:
        return None
    fired[gate] += 1
    out = []
    for sub, ws in rule:
        inner = _flatten(sub, admits, fired)
        if inner is None:
            return None
        frame = (*ws, C, A)
        out += [(g, tuple(frame[w] for w in qs)) for g, qs in inner]
    return out


@dataclass(frozen=True)
class _Plan:
    """How one gate kind lowers, decided once per ``lower`` call.

    ``gates`` holds (tag, shared GateKind or None for angled tags, wires over
    (*operands, catalyst, ancilla)). No fired rule means the gate passes
    through.
    """

    gates: tuple[tuple[Gate, GateKind | None, tuple[int, ...]], ...]
    fired: Counter
    angled: tuple[int, ...]  # indices into ``gates`` of the angled tags


def _plan(gate: Gate, target: GateSetProfile) -> _Plan | None:
    fired: Counter = Counter()
    flat = _flatten(gate, target.admits, fired)
    # A plan that names the ancilla needs its X prep admitted.
    if flat is None or (any(A in ws for _, ws in flat) and not target.admits(Gate.X)):
        return None
    return _Plan(
        gates=tuple((g, None if g.takes_angle else GateKind(g), ws) for g, ws in flat),
        fired=fired,
        angled=tuple(j for j, (g, _) in enumerate(flat) if g.takes_angle),
    )


class RuleCost(NamedTuple):
    ccz: int
    gates: int


# Admits exactly the gates without a rule, so a plan for it expands every rule.
_EXPANDED = GateSetProfile("every rule expanded", lambda g: g not in RULES)


def rule_cost(gate: Gate) -> RuleCost:
    """CCZ and gates one ``gate`` lowers to once every rule has expanded: its
    flattened plan, without the ancilla's one-time X prep. A gate without a
    rule costs itself. For {H, CCZ} and {H, X, Z, RY, CCZ}, which admit no
    gate that has a rule, this is what ``lower`` emits per source gate."""
    plan = _plan(gate, _EXPANDED)
    return RuleCost(sum(g is Gate.CCZ for g, _, _ in plan.gates), len(plan.gates))


def lower(c: Circuit, target: GateSetProfile, catalyst: int | None = None) -> LoweredCircuit:
    """Rewrite ``c`` into ``target``; raises LoweringError if any gate can't go.

    ``catalyst`` names a wire of ``c`` that is already a |+i> catalyst: the
    rules kick it instead of an appended one, and only the ancilla is
    appended. Each angle-free emitted gate is built once per (tag, wires) for
    the whole call and shared by every span that emits it, whatever the source
    gate; angled ones are built fresh, one per source gate.
    """
    if catalyst is not None and not 0 <= catalyst < c.num_qubits:
        raise LoweringError(f"catalyst wire {catalyst} is outside the source's {c.num_qubits}")
    kinds = Counter(map(tag_of, c.gates))
    plans = {gate: _plan(gate, target) for gate in kinds}
    for gate, plan in plans.items():
        if plan is None:
            i = next(i for i, app in enumerate(c.gates) if app.kind.gate is gate)
            raise LoweringError(f"gate {i} ({gate.value}) is not lowerable to {target.name}")
    wires = {w for p in plans.values() for _, _, ws in p.gates for w in ws}
    need_anc = A in wires
    if catalyst is None:
        need_cat = C in wires
        cat = c.num_qubits if need_cat else None
    else:
        need_cat, cat = False, catalyst
        # A rule assumes its catalyst is a wire apart, so none may rewrite a gate on it.
        kicks = {g for g, p in plans.items() if any(C in ws for _, _, ws in p.gates)}
        for i, app in enumerate(c.gates):
            if catalyst in app.qubits and app.kind.gate in kicks:
                raise LoweringError(
                    f"gate {i} ({app.kind.gate.value}) acts on catalyst wire {catalyst}"
                    " and its rule kicks the catalyst"
                )
    anc = c.num_qubits + need_cat if need_anc else None

    # The ancilla's one X prep comes first; after it each source gate is one span.
    gates: list[GateApp] = [x(anc)] if need_anc else []
    # One object per angle-free (tag, wires), and one span per (tag, operands).
    made: dict[tuple[Gate, tuple[int, ...]], GateApp] = {}
    built: dict[tuple[Gate, tuple[int, ...]], list[GateApp | None]] = {}

    def made_once(kind: GateKind, wires: tuple[int, ...]) -> GateApp:
        app = made.get((kind.gate, wires))
        if app is None:
            app = made[kind.gate, wires] = GateApp(kind, wires)
        return app

    for app in c.gates:
        plan = plans[app.kind.gate]
        if not plan.fired:
            gates.append(app)
            continue
        frame = (*app.qubits, cat, anc)
        key = (app.kind.gate, app.qubits)
        shared = built.get(key)
        if shared is None:
            # None holds the place of each angled gate, filled in below.
            shared = built[key] = [
                None if kind is None else made_once(kind, tuple(frame[w] for w in ws))
                for _, kind, ws in plan.gates
            ]
        at = len(gates)
        gates += shared
        for j in plan.angled:
            g, _, ws = plan.gates[j]
            gates[at + j] = GateApp(GateKind(g, app.kind.angle), tuple(frame[w] for w in ws))
    circuit = Circuit(c.num_qubits + need_cat + need_anc, tuple(gates))
    assert not check_membership(circuit, target)

    counts = {g: 0 for g in Gate}
    counts[Gate.X] += need_anc
    rule_instances = dict.fromkeys(RULES, 0)
    for gate, k in kinds.items():
        for g, _, _ in plans[gate].gates:
            counts[g] += k
        for rule, fired in plans[gate].fired.items():
            rule_instances[rule] += k * fired
    return LoweredCircuit(
        circuit=circuit,
        catalyst_qubit=cat,
        ancilla_qubits=(AuxWire(anc, 0, 1),) if need_anc else (),
        counts=counts,
        rule_instances=rule_instances,
    )


# Gates diagonal on every wire they act on: a phase commutes through each.
_DIAGONAL = frozenset({Gate.Z, Gate.S, Gate.SDG, Gate.RZ, Gate.CZ, Gate.CS, Gate.CCZ})
# Each single-wire phase as the t of its diag(1, e^{it}) = RZ(t) up to phase
# (None: RZ's own angle).
_PHASE_ANGLE = {Gate.Z: math.pi, Gate.S: math.pi / 2.0, Gate.SDG: -math.pi / 2.0, Gate.RZ: None}
# Largest gap at which a merged angle is written as the named phase, or nothing, it is near.
PHASE_SNAP_TOL = 1e-12
_SNAPS = ((0.0, None), (math.pi, Gate.Z), (-math.pi, Gate.Z),
          (math.pi / 2.0, Gate.S), (-math.pi / 2.0, Gate.SDG))


def _merged_phase(angle: float, wire: int) -> list[GateApp]:
    """RZ(``angle``) on ``wire`` up to global phase, as nothing, Z, S, SDG or one RZ."""
    t = math.remainder(angle, 2.0 * math.pi)
    for at, gate in _SNAPS:
        if abs(t - at) <= PHASE_SNAP_TOL:
            return [] if gate is None else [GateApp(GateKind(gate), (wire,))]
    return [GateApp(GateKind(Gate.RZ, t), (wire,))]


def merge_phases(c: Circuit, catalyst: int | None = None) -> Circuit:
    """``c`` with each wire's single-wire phases (Z, S, SDG, RZ) merged across
    the gates diagonal on it (CZ, CS, CCZ), equal to ``c`` up to global phase.

    A wire's phases add up until a gate that is not diagonal acts on it; their
    sum is written just before that gate, or at the end of the circuit, as
    nothing, Z, S, SDG or one RZ (``PHASE_SNAP_TOL``). No gate's CCZ cost
    (``rule_cost``) rises, the other gates keep their order, and a second
    pass changes nothing. ``lower`` does not call it, so each source gate
    keeps its one span.

    ``catalyst`` names a |+i> wire, read as ``sim.induce`` reads it: then
    the result equals ``c`` on the other wires with that one fed |+i> and
    read out through <+i|. While only CZ(w, catalyst) and RY have acted on
    it (a phase on it is left in place, and ends this), and nothing but
    diagonal gates on each such w since, its sign is (-1)^(xor of those w),
    and RY(t) on it is the phase -(t/2) times that sign. So an RY taken
    while the sign is (-1)^w alone absorbs, as RY(t + a), any RZ(a) on w
    that diagonal gates alone separate from it, before or after.
    """
    pending: dict[int, float] = {}
    # The wires whose CZs have flipped the catalyst's sign (None once that
    # sign is not known), and per wire the index in ``out`` of its absorbing RY.
    flips: set[int] | None = set() if catalyst is not None else None
    sinks: dict[int, int] = {}
    out: list[GateApp] = []
    for app in c.gates:
        gate = app.kind.gate
        sink = None
        if flips is not None and catalyst in app.qubits:
            if gate is Gate.CZ:
                flips ^= set(app.qubits) - {catalyst}
            elif gate is Gate.RY and len(flips) == 1:
                (sink,) = flips
            elif gate is not Gate.RY:
                flips = None
        elif gate in _PHASE_ANGLE:
            w = app.qubits[0]
            angle = _PHASE_ANGLE[gate]
            if angle is None:
                angle = app.kind.angle
            if w in sinks:
                out[sinks[w]] = _turned(out[sinks[w]], angle)
            else:
                pending[w] = pending.get(w, 0.0) + angle
            continue
        if gate not in _DIAGONAL:
            if flips and not flips.isdisjoint(app.qubits):
                flips = None
            for w in app.qubits:
                sinks.pop(w, None)
                if w in pending:
                    out += _merged_phase(pending.pop(w), w)
        if sink is not None:
            if sink in pending:
                app = _turned(app, pending.pop(sink))
            sinks[sink] = len(out)
        out.append(app)
    for w in sorted(pending):
        out += _merged_phase(pending[w], w)
    return Circuit(c.num_qubits, tuple(out))


def _turned(app: GateApp, angle: float) -> GateApp:
    """The rotation ``app`` turned further by ``angle``."""
    return GateApp(GateKind(app.kind.gate, app.kind.angle + angle), app.qubits)


_REPORT_NOTES = (
    "controlled-S gadget: 2 CCZ per instance, no |0> ancilla "
    "(vs an 8-CCZ baseline construction: >= 75% fewer CCZ)",
    "S gadget: 2 CCZ per instance plus one shared X-prepped |1> ancilla",
    "reference, not measured here: S built on a verified k-CCZ |1>-prep "
    "circuit totals k+2 CCZ (k=12 gives 14, vs an 18-CCZ baseline)",
)


@dataclass(frozen=True)
class CountReport:
    counts: dict[str, int]
    catalyst: bool
    ancilla: int
    ccz_per_cs: float | None
    ccz_per_s: float | None
    ccz_per_other_rule: dict[str, float]  # every other rule that fired, in ``RULES`` order
    notes: tuple[str, ...]

    def to_json(self) -> str:
        """Byte-stable JSON; the field order is the key order. An empty
        ``ccz_per_other_rule`` is left out, so a report on CS and S alone
        reads as it did before that field existed."""
        fields = asdict(self)
        if not self.ccz_per_other_rule:
            del fields["ccz_per_other_rule"]
        return json.dumps(fields, indent=2)


def count_report(lowered: LoweredCircuit) -> CountReport:
    """Gate-count accounting for a lowering: the CCZ per instance
    (``rule_cost``) of every rule that fired, None for CS or S if it did not."""
    ccz = {
        g: float(rule_cost(g).ccz) for g, fired in lowered.rule_instances.items() if fired
    }
    return CountReport(
        counts={g.value: lowered.counts[g] for g in Gate},
        catalyst=lowered.catalyst_qubit is not None,
        ancilla=len(lowered.ancilla_qubits),
        ccz_per_cs=ccz.pop(Gate.CS, None),
        ccz_per_s=ccz.pop(Gate.S, None),
        ccz_per_other_rule={g.value: k for g, k in ccz.items()},
        notes=_REPORT_NOTES,
    )


# The check ``induce`` makes, as reports name it: a dense pass over all data columns.
VERIFY_METHOD = "dense_columns"
# Largest residual (distance, catalyst deficit or leakage) any dense check
# passes: ``verify_lowering``, ``synth.synthesize`` and ``synth.decompose_su2m``.
VERIFY_TOL = 1e-10


def induce(lowered: LoweredCircuit) -> sim.Induced:
    """``sim.induce`` of the lowered circuit over its data wires: catalyst
    |+i> -> <+i|, ancilla |0> -> <1| (its X prep is in the circuit).

    Raises ValueError, before allocating, past ``sim.MAX_DENSE_QUBITS``
    lowered wires.
    """
    return sim.induce(lowered.circuit, lowered.catalyst_qubit, lowered.ancilla_qubits)


def induced_block(lowered: LoweredCircuit) -> np.ndarray:
    """Operator the lowered circuit applies to its data wires (``induce``)."""
    return induce(lowered).block


_LEMMA_THETAS = [2.0 * math.pi * k / 16.0 for k in range(16)] + [0.7, -2.3]


def _rule_error(gate: Gate, angle: float | None) -> float:
    """Error of ``RULES[gate]``, read by ``induce`` off ``lower``'s output for
    ``gate`` alone under a target that admits every other tag (one level
    fires), as ``Induced.error`` against the gate's matrix."""
    kind = GateKind(gate, angle)
    source = Circuit(gate.arity, (GateApp(kind, tuple(range(gate.arity))),))
    one_level = GateSetProfile(f"all but {gate.value}", lambda g: g is not gate)
    return induce(lower(source, one_level)).error(gate_matrix(kind))


def check_lemmas() -> float:
    """Max ``_rule_error`` over every ``RULES`` entry; callers assert it's tiny."""
    return max(
        _rule_error(gate, theta)
        for gate in RULES
        for theta in (_LEMMA_THETAS if gate.takes_angle else [None])
    )


@dataclass(frozen=True)
class LoweringCheck:
    """The residuals of one dense check; ``ok`` is the only verdict on them."""

    distance: float
    catalyst_deficit: float
    leakage: float
    source_catalyst_deficit: float  # 0.0 unless the source names its catalyst

    @property
    def ok(self) -> bool:
        """Every residual within ``VERIFY_TOL``; a NaN fails."""
        residuals = self.distance, self.catalyst_deficit, self.leakage, self.source_catalyst_deficit
        return all(r <= VERIFY_TOL for r in residuals)


def check_induced(got: sim.Induced, want: np.ndarray, source_deficit: float = 0.0) -> LoweringCheck:
    """``got`` against the operator ``want``: their global-phase aligned
    distance, ``got``'s catalyst deficit and leakage, and ``source_deficit``,
    the catalyst deficit of whatever ``want`` was read from."""
    return LoweringCheck(
        distance=phase_aligned_distance(got.block, want),
        catalyst_deficit=got.catalyst_deficit,
        leakage=got.leakage,
        source_catalyst_deficit=source_deficit,
    )


def verify_lowering(source: Circuit, lowered: LoweredCircuit) -> LoweringCheck:
    """Dense check that the lowering induces the source's operator on data wires.

    That operator is the source's unitary, or, if the lowering kicks a
    catalyst wire of the source's own, ``sim.induce`` with it fixed. The
    lowered circuit is induced first, so one too wide to check is refused
    before the source's unitary is built.
    """
    got = induce(lowered)
    cat = lowered.catalyst_qubit
    want = sim.induce(source, cat if cat is not None and cat < source.num_qubits else None)
    return check_induced(got, want.block, want.catalyst_deficit)
