"""Circuit intermediate representation and its text format.

A circuit is an ordered list of gate applications over ``num_qubits`` wires.
List order is execution order: ``gates[0]`` acts first. Gate applications
are immutable, so a circuit may hold the same ``GateApp`` object at several
positions: ``parse_circuit`` shares one object per distinct angle-free gate
line and ``lower`` one per angle-free (tag, wires) it emits, while each
angled gate is its own object. Whole-circuit passes loop in C: ``Circuit``
checks its width over each gate's recorded ``top`` operand and
``check_membership`` looks only at tags, against the profile's ``admitted``
set, unless one is barred; ``serialize_circuit`` formats each object once.

Validation happens once, at the boundary: ``parse_circuit`` and the public
constructors check every part of a gate, while ``trusted_app``, which the
passes that emit gates from already-checked parts use, checks only that a
computed angle is finite.

Text format (one gate per line, ``#`` starts a comment, blank lines ignored)::

    qubits 3
    H 0
    RY(1.5707963267948966) 2   # angles in radians, parenthesized
    CCZ 0 1 2

Gate names are case-insensitive on input; canonical output is uppercase with
angles printed to 17 significant digits (enough to round-trip a double).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Callable


class CircuitError(ValueError):
    """Raised for malformed circuits, gates, or circuit text."""


class Gate(Enum):
    """Gate vocabulary tags, in canonical declaration order; each member
    stores its operand count ``arity`` and whether it ``takes_angle``."""

    H = "H"
    X = "X"
    Y = "Y"
    Z = "Z"
    S = "S"
    SDG = "SDG"
    RX = "RX", 1, True
    RY = "RY", 1, True
    RZ = "RZ", 1, True
    CZ = "CZ", 2
    CS = "CS", 2
    CRY = "CRY", 2, True
    CCZ = "CCZ", 3

    def __new__(cls, value: str, arity: int = 1, takes_angle: bool = False) -> Gate:
        member = object.__new__(cls)
        member._value_ = value
        member.arity = arity
        member.takes_angle = takes_angle
        return member

    # Members are singletons, so identity hashing agrees with ``==`` and runs in C.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class GateKind:
    """A gate tag plus its angle, present exactly for the rotation tags."""

    gate: Gate
    angle: float | None = None

    def __post_init__(self) -> None:
        if self.gate.takes_angle:
            if self.angle is None:
                raise CircuitError(f"{self.gate.value} requires an angle")
            if not math.isfinite(self.angle):
                raise CircuitError(f"{self.gate.value} angle must be finite")
        elif self.angle is not None:
            raise CircuitError(f"{self.gate.value} takes no angle")


@dataclass(frozen=True)
class GateApp:
    """A gate kind applied to a tuple of distinct wire indices.

    ``top`` is the largest operand, recorded once so that whole-circuit width
    checks read it instead of scanning ``qubits``; ``==``, ``hash`` and
    ``repr`` ignore it.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    top: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(self.qubits))
        want = self.kind.gate.arity
        if len(self.qubits) != want:
            raise CircuitError(
                f"{self.kind.gate.value} expects {want} operand(s), got {len(self.qubits)}"
            )
        if any(q < 0 for q in self.qubits):
            raise CircuitError("operand indices must be non-negative")
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"duplicate operands in {self.kind.gate.value} {self.qubits}")
        object.__setattr__(self, "top", max(self.qubits))


# A gate application's tag; whole-circuit passes ``map`` it, looping in C.
tag_of = attrgetter("kind.gate")

# ``trusted_app`` writes a frozen instance's fields into its ``__dict__``,
# as the dataclass ``__init__`` does, minus the checks.
_new = object.__new__

# The one kind of each angle-free tag, shared by the gates built from it.
PLAIN_KIND: dict[Gate, GateKind] = {g: GateKind(g) for g in Gate if not g.takes_angle}


def trusted_app(gate: Gate, qubits: tuple[int, ...], angle: float | None = None) -> GateApp:
    """``GateApp(GateKind(gate, angle), qubits)`` for parts a caller has
    already checked: an angle exactly when ``gate`` takes one, and a tuple of
    ``gate.arity`` distinct non-negative wires, each taken from a checked
    gate or layout. Only the angle's finiteness is checked again, since a
    computed angle can overflow. The result equals the validated one in
    ``==``, ``hash`` and ``repr``, at about a third of its cost; passes that
    emit gates by the thousand (``synth``, ``lowering``) build them here.
    """
    if angle is None:
        kind = PLAIN_KIND[gate]
    else:
        if not math.isfinite(angle):
            raise CircuitError(f"{gate.value} angle must be finite")
        kind = _new(GateKind)
        fields = kind.__dict__
        fields["gate"] = gate
        fields["angle"] = angle
    app = _new(GateApp)
    fields = app.__dict__
    fields["kind"] = kind
    fields["qubits"] = qubits
    fields["top"] = max(qubits)
    return app


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[GateApp, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.num_qubits < 1:
            raise CircuitError("num_qubits must be positive")
        if max(map(attrgetter("top"), self.gates), default=0) < self.num_qubits:
            return
        for i, g in enumerate(self.gates):
            if g.top >= self.num_qubits:
                raise CircuitError(
                    f"gate {i} ({g.kind.gate.value}) uses qubit {g.top} "
                    f"but circuit has {self.num_qubits}"
                )


# Convenience constructors, handy when building circuits in code.
def _plain(gate: Gate) -> Callable[..., GateApp]:
    def make(*qubits: int) -> GateApp:
        return GateApp(PLAIN_KIND[gate], qubits)

    return make


def _rot(gate: Gate) -> Callable[..., GateApp]:
    def make(angle: float, *qubits: int) -> GateApp:
        return GateApp(GateKind(gate, float(angle)), qubits)

    return make


h = _plain(Gate.H)
x = _plain(Gate.X)
y = _plain(Gate.Y)
z = _plain(Gate.Z)
s = _plain(Gate.S)
sdg = _plain(Gate.SDG)
cz = _plain(Gate.CZ)
cs = _plain(Gate.CS)
ccz = _plain(Gate.CCZ)
rx = _rot(Gate.RX)
ry = _rot(Gate.RY)
rz = _rot(Gate.RZ)
cry = _rot(Gate.CRY)


@dataclass(frozen=True)
class GateSetProfile:
    """A named gate set; ``admits`` decides membership per tag.

    ``admitted`` is the set of tags it admits, asked of ``admits`` once, at
    construction; membership checks and ``lowering``'s plans read it.
    """

    name: str
    admits: Callable[[Gate], bool] = field(compare=False)
    admitted: frozenset[Gate] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "admitted", frozenset(g for g in Gate if self.admits(g)))

    def tags(self) -> tuple[Gate, ...]:
        return tuple(g for g in Gate if g in self.admitted)


HCCZ = GateSetProfile("HCCZ", lambda g: g in (Gate.H, Gate.CCZ))
HCS = GateSetProfile("HCS", lambda g: g in (Gate.H, Gate.CS))
REAL_O2_CCZ = GateSetProfile(
    "REAL_O2_CCZ", lambda g: g in (Gate.H, Gate.X, Gate.Z, Gate.RY, Gate.CCZ)
)
FULL = GateSetProfile("FULL", lambda g: True)

PROFILES: dict[str, GateSetProfile] = {
    p.name: p for p in (HCCZ, HCS, REAL_O2_CCZ, FULL)
}


@dataclass(frozen=True)
class Violation:
    """A gate outside a profile: its index in the circuit and its tag."""

    index: int
    gate: Gate


def check_membership(c: Circuit, profile: GateSetProfile) -> list[Violation]:
    """Return all gates of ``c`` not admitted by ``profile`` (empty = member)."""
    admitted = profile.admitted
    if admitted.issuperset(map(tag_of, c.gates)):
        return []
    return [Violation(i, g) for i, g in enumerate(map(tag_of, c.gates)) if g not in admitted]


def gate_counts(c: Circuit) -> dict[Gate, int]:
    """Count per tag; tags absent from the circuit map to 0."""
    counts = {g: 0 for g in Gate}
    for app in c.gates:
        counts[app.kind.gate] += 1
    return counts


_GATE_LINE = re.compile(r"^(?P<name>[A-Za-z]+)(?:\((?P<angle>[^()]*)\))?$")


def _parse_angle(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise CircuitError(f"line {line_no}: unparseable angle {token!r}") from None
    if not math.isfinite(value):
        raise CircuitError(f"line {line_no}: angle must be finite, got {token!r}")
    return value


def parse_circuit(text: str) -> Circuit:
    """Parse the text format described in the module docstring."""
    header: int | None = None
    apps: list[GateApp] = []
    # Identical angle-free gate lines share one immutable GateApp; angled
    # lines seldom repeat, so they are not kept.
    seen: dict[str, GateApp] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in seen:
            apps.append(seen[line])
            continue
        tokens = line.split()
        if header is None:
            if tokens[0].lower() != "qubits" or len(tokens) != 2:
                raise CircuitError(f"line {line_no}: expected 'qubits <n>' header")
            try:
                header = int(tokens[1])
            except ValueError:
                raise CircuitError(f"line {line_no}: bad qubit count {tokens[1]!r}") from None
            if header < 1:
                raise CircuitError(f"line {line_no}: qubit count must be positive")
            continue
        m = _GATE_LINE.match(tokens[0])
        if m is None:
            raise CircuitError(f"line {line_no}: malformed gate token {tokens[0]!r}")
        name = m.group("name").upper()
        try:
            gate = Gate[name]
        except KeyError:
            raise CircuitError(f"line {line_no}: unknown gate {m.group('name')!r}") from None
        angle_token = m.group("angle")
        angle = _parse_angle(angle_token, line_no) if angle_token is not None else None
        operands: list[int] = []
        for tok in tokens[1:]:
            try:
                operands.append(int(tok))
            except ValueError:
                raise CircuitError(f"line {line_no}: bad operand {tok!r}") from None
        try:
            app = GateApp(GateKind(gate, angle), tuple(operands))
        except CircuitError as exc:
            raise CircuitError(f"line {line_no}: {exc}") from None
        apps.append(app)
        if angle is None:
            seen[line] = app
    if header is None:
        raise CircuitError("missing 'qubits <n>' header")
    return Circuit(header, tuple(apps))


def _format_angle(angle: float) -> str:
    return f"{angle:.17g}"


def serialize_circuit(c: Circuit) -> str:
    """Canonical text: uppercase names, 17-significant-digit angles."""
    lines = [f"qubits {c.num_qubits}"]
    # A GateApp object that recurs is formatted once, keyed by identity.
    done: dict[int, str] = {}
    for app in c.gates:
        line = done.get(id(app))
        if line is None:
            name = app.kind.gate.value
            if app.kind.angle is not None:
                name = f"{name}({_format_angle(app.kind.angle)})"
            line = done[id(app)] = " ".join([name, *map(str, app.qubits)])
        lines.append(line)
    return "\n".join(lines)


def circuit_of(num_qubits: int, *gates: GateApp) -> Circuit:
    return Circuit(num_qubits, gates)
