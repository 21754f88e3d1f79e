"""Exact dense statevector simulation.

Bit convention, used everywhere: qubit 0 is the MOST significant bit of the
amplitude index, so ``|q0 q1 ... q_{n-1}>`` has index ``sum q_k 2^(n-1-k)``.
For multi-qubit gates the first operand is the most significant bit of the
gate's own index space; controlled gates list controls first.

Statevectors are 1-D complex ndarrays of length 2^n; unitaries are square
complex ndarrays. Statevectors are capped at ``MAX_STATE_QUBITS`` (24, a
256 MiB state) and column passes, dense unitaries among them, at
``MAX_DENSE_QUBITS`` (12) wires; both caps are checked before any 2^n array
is allocated.

``run`` copies its input once, so the caller's array is never written;
``evolve_columns`` starts from one basis column per input of the free wires,
with each fixed wire fed its ket and the columns as a trailing batch axis
(``circuit_unitary`` is the case with nothing fixed). Both share one gate
loop, ``_evolve``, and one way to build a fused operator, the whole-state
rule; a fused operator spans at most ``_FUSE_QUBITS`` (5) wires:

- up to 5 wires, each maximal run of two or more angle-free gates is one
  product with its 2^n x 2^n operator; angled gates cut the runs;
- wider states are cut by ``_schedule`` into runs of at most 5 wires, out of
  order where gates commute: a gate joins the open run past the gates
  deferred before it if it shares no wire with them, or if it and they are
  all phase gates, and a phase gate that does not fit is phased in place at
  once if it shares no wire with the run. Each run with a non-phase gate is
  one product with a copy of the state that has the run's wires moved to
  the front, written back into the state's own memory. The copy buffer is
  the only new array; the last copy puts the state back in wire order into
  it, and it is the result. The c wires that only the run's phase gates
  touch go first, so its operator is 2^c blocks, one batched product at
  1/2^c of the dense arithmetic. A real operator, as every run of a lowered
  circuit has, multiplies float64 views, each complex amplitude read as its
  (re, im) pair: half the arithmetic of the complex product. A run of only
  phase gates is not built: the kernel phases it. A simulate_wide item (53
  gates on 18 wires) takes 6.2 products, where maximal runs in gate order
  took 8.6.

Angle-free operators are built once and kept read-only by ``_fused``, an LRU
cache keyed by the width and the run's (tag, wires) pairs, wires relative to
the run's. Angles are never in a key, so the cache cannot grow with them.
States of at most 5 wires are not cut: the dense check of one m = 3 target
(a 5-wire, 173-gate lowering on 8 columns) takes 1.0 ms whole and 1.6 ms
cut (median of 20 targets, one BLAS thread, 2-core Xeon).

The kernel ``_apply`` applies one gate without building its embedding. Up
to 5 wires it takes runs of one gate and the angled gates that cut runs; it
also builds every fused operator, on an identity. On wider arrays it takes
only runs of phase gates (Z, S, SDG, CZ, CS, CCZ), so that the amplitudes
they leave alone stay bit-identical. So a one-qubit update never sees more
than 4^5 = 1024 amplitudes:

- phase gates multiply, in place, the basis slice where every operand bit
  is 1 by the gate's phase; amplitudes outside that slice are not touched;
- every other one-qubit gate (H, X, Y, RX, RY, RZ) multiplies its 2x2
  matrix into the (left, 2, right) reshape as one batched product, written
  to a new array that replaces the state;
- CRY does the same one-qubit update on its control=1 slice, in place.

``induce`` reads the operator induced on the free wires off one column pass,
with a |+i> catalyst fed and read out through <+i| and each ``AuxWire`` fed
one basis bit and read at another, and the catalyst deficit and the leakage
as norms of the amplitude that leaves the catalyst and the block; it rotates
one copy of the columns in place, so it never holds more than the columns
and that copy. It is the one catalytic readout: lowerings, sources, the rule
table and gadgets call it, and ``extract_catalytic`` reads an explicit
unitary's columns the same way.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .ir import Circuit, Gate, GateApp, GateKind

MAX_DENSE_QUBITS = 12
MAX_STATE_QUBITS = 24
# Default bound on ``extract_catalytic``'s catalyst deficit and non-unitarity.
CATALYTIC_TOL = 1e-12
# Largest | ||ket|| - 1 | of a catalyst ket that ``extract_catalytic`` accepts.
KET_NORM_TOL = 1e-12

# Single-qubit kets by wire.
Kets = dict[int, np.ndarray]

_SQ2 = 1.0 / math.sqrt(2.0)

# Phase each diagonal gate puts on its all-ones slice; the rest is untouched.
_ONES_PHASE: dict[Gate, complex] = {
    Gate.Z: -1,
    Gate.S: 1j,
    Gate.SDG: -1j,
    Gate.CZ: -1,
    Gate.CS: 1j,
    Gate.CCZ: -1,
}

_FIXED: dict[Gate, np.ndarray] = {
    Gate.H: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    Gate.X: np.array([[0, 1], [1, 0]], dtype=complex),
    Gate.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    **{g: np.diag([1] * (2**g.arity - 1) + [p]).astype(complex) for g, p in _ONES_PHASE.items()},
}
for _m in _FIXED.values():
    _m.flags.writeable = False


def _rx(theta: float) -> np.ndarray:
    c, si = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * si], [-1j * si, c]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    c, si = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -si], [si, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex
    )


def gate_matrix(kind: GateKind) -> np.ndarray:
    """Dense matrix of a gate kind in its own operand-ordered basis."""
    return np.array(_matrix(kind))


def _matrix(kind: GateKind) -> np.ndarray:
    """``gate_matrix`` without the copy: the kernel reads a fixed gate's one
    shared, read-only array."""
    if kind.gate in _FIXED:
        return _FIXED[kind.gate]
    if kind.gate is Gate.RX:
        return _rx(kind.angle)
    if kind.gate is Gate.RY:
        return _ry(kind.angle)
    if kind.gate is Gate.RZ:
        return _rz(kind.angle)
    # CRY: control is the first operand.
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = _ry(kind.angle)
    return m


def _num_qubits_of(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


# Index pieces that keep every axis, so each indexed slice is a view.
_ALL = slice(None)
_ONE = slice(1, 2)


class _Op(NamedTuple):
    """A gate moved onto other wires: the validated kind of a ``GateApp``
    and its new wires. The kernel reads it as it reads a ``GateApp``, and
    building it validates nothing again."""

    kind: GateKind
    qubits: tuple[int, ...]


# The kind of each angle-free tag, for the gates ``_fused`` builds from tags.
_KIND = {g: GateKind(g) for g in Gate if not g.takes_angle}


def _apply(psi: np.ndarray, app: GateApp | _Op) -> np.ndarray:
    """Apply one gate to ``psi`` and return the array that holds the result.

    ``psi`` has shape (2,)*n, optionally followed by one batch axis; ``app``
    must act on wires below n. The phase gates (Z, S, SDG, CZ, CS, CCZ) and
    CRY update ``psi`` in place and return it. H, X, Y, RX, RY and RZ return
    a new array and leave ``psi`` to be dropped: one product into fresh
    memory is about twice as fast as an in-place pair update, whose
    temporaries take as much memory.
    Of a state past the whole-state cap, only phase gates come here, and
    they work on any view, the permuted one a fused run leaves included.
    """
    gate = app.kind.gate
    idx: list = [_ALL] * psi.ndim
    phase = _ONES_PHASE.get(gate)
    if phase is not None:
        for q in app.qubits:
            idx[q] = _ONE
        ones = psi[tuple(idx)]
        ones *= phase
        return psi
    if gate is Gate.CRY:
        control, q = app.qubits
        idx[control] = _ONE
        target = psi[tuple(idx)]
        target[...] = _apply_1q(target, q, _ry(app.kind.angle))
        return psi
    return _apply_1q(psi, app.qubits[0], _matrix(app.kind))


def _apply_1q(psi: np.ndarray, q: int, m: np.ndarray) -> np.ndarray:
    """One-qubit matrix ``m`` on axis ``q`` of ``psi``: one batched product
    into the (left, 2, right) reshape, returned as a new array."""
    pairs = psi.reshape(-1, 2, math.prod(psi.shape[q + 1 :]))
    return np.matmul(m, pairs).reshape(psi.shape)


# A fused operator spans at most _FUSE_QUBITS wires: at the cap it is 32x32
# complex (16 KiB), so the cache holds 16 MiB at most. It has room for the
# angle-free stretches of the angled local runs too: the 64 items of a
# simulate_wide pool build 457-493 shapes (seeds 1-10), which a 256-entry
# cache, cycled, misses on every pass. Up to the cap it spans the whole
# state; a miss builds it on all 2^n columns, which costs more than the run,
# but synthesis, whose run shapes recur, stays within the cap. On wider
# states each product costs a moved copy and a product, both bound by memory
# bandwidth, and a real 32x32 product costs little more than a complex 8x8
# one (18 wires, 2-core Xeon: copy 1.4-1.9 ms, real 32x32 product 1.1 ms,
# complex 8x8 0.8 ms), so runs of up to 5 wires halve the passes of 3.
_FUSE_QUBITS = 5
_FUSE_CACHE_SIZE = 1024
# Past the whole-state cap, a run closes once this many gates wait behind
# it, so each gate is looked at no more than _LOOKAHEAD + 1 times and
# scheduling stays linear in the gate count. Unbounded, it looked at each
# gate of an 8-wire, 5201-gate lowering 200 times (3.5 at 32), and that
# lowering's dense check took 0.37 s instead of 0.07 s (2-core Xeon). A
# simulate_wide item takes 6.6, 6.4, 6.2 and 6.1 products at a bound of 8,
# 16, 32 and 64.
_LOOKAHEAD = 32


def _identity(n: int) -> np.ndarray:
    """The 2^n x 2^n identity shaped (2,)*n + (2^n,): one column per basis input."""
    dim = 1 << n
    return np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))


@functools.lru_cache(maxsize=_FUSE_CACHE_SIZE)
def _fused(n: int, run: tuple[tuple[Gate, tuple[int, ...]], ...]) -> np.ndarray:
    """The read-only 2^n x 2^n operator of angle-free (tag, wires) pairs, all
    on wires below n, built gate by gate on the identity."""
    op = _identity(n)
    for gate, qubits in run:
        op = _apply(op, _Op(_KIND[gate], qubits))
    op = np.ascontiguousarray(op.reshape(1 << n, 1 << n))
    op.flags.writeable = False
    return op


def _evolve(psi: np.ndarray, gates: Sequence[GateApp | _Op], n: int) -> np.ndarray:
    """Apply ``gates`` in order to ``psi``, shaped as for ``_apply``.

    ``psi`` belongs to the caller's pass, which hands it over: it is
    overwritten, and the result may live in its memory.
    """
    if n > _FUSE_QUBITS:
        return _evolve_local(psi, gates)
    run: list[GateApp | _Op] = []
    for app in gates:
        if app.kind.angle is None:
            run.append(app)
            continue
        psi = _apply(_apply_run(psi, run, n), app)
        run = []
    return _apply_run(psi, run, n)


def _apply_run(psi: np.ndarray, run: list[GateApp | _Op], n: int) -> np.ndarray:
    if len(run) == 1:
        return _apply(psi, run[0])
    if run:
        op = _fused(n, tuple((app.kind.gate, app.qubits) for app in run))
        psi = (op @ psi.reshape(1 << n, -1)).reshape(psi.shape)
    return psi


def _schedule(gates: Sequence[GateApp]) -> list[list[GateApp]]:
    """``gates`` cut into the steps of ``_evolve_local``, in the order they run:
    runs on at most ``_FUSE_QUBITS`` wires, and lone phase gates.

    A gate joins the open run if the union of wires still fits and it
    commutes with every gate deferred before it: it shares no wire with
    them, or it and they are phase gates. A phase gate that commutes so but
    does not fit, and shares no wire with the run, is a step of its own,
    before the run. Any other gate is deferred. The run closes once
    ``_LOOKAHEAD`` gates are deferred or none are left, and the deferred
    gates, in order, go back before the unread ones.
    """
    steps: list[list[GateApp]] = []
    queue = deque(gates)
    while queue:
        run: list[GateApp] = []
        wires: set[int] = set()
        deferred: list[GateApp] = []
        blocked: set[int] = set()  # wires of deferred non-phase gates
        phased: set[int] = set()  # wires of deferred phase gates
        while queue and len(deferred) < _LOOKAHEAD:
            app = queue.popleft()
            qubits = app.qubits
            phase = app.kind.gate in _ONES_PHASE
            if blocked.isdisjoint(qubits) and (phase or phased.isdisjoint(qubits)):
                union = wires.union(qubits)
                if len(union) <= _FUSE_QUBITS:
                    run.append(app)
                    wires = union
                    continue
                if phase and wires.isdisjoint(qubits):
                    steps.append([app])
                    continue
            deferred.append(app)
            (phased if phase else blocked).update(qubits)
        steps.append(run)
        queue.extendleft(reversed(deferred))
    return steps


def _evolve_local(psi: np.ndarray, gates: Sequence[GateApp]) -> np.ndarray:
    """``_evolve`` past the whole-state cap, one ``_schedule`` step at a time.

    A step of only phase gates goes through ``_apply``, in place. Any other
    step is one product with its block-diagonal operator (see ``_blocks``),
    through one copy buffer: ``psi`` is copied into it with the step's wires
    moved to the front, and the product goes back into the memory under
    ``psi`` (``psi`` itself, or the array it is a view of, which holds
    exactly the state), viewed with the wires moved back. Behind the step's
    wires the copy orders the others by the next product that uses them,
    soonest first, and those no later product uses keep their order in
    memory: the next copy then moves the wires it needs from near the
    front, and long runs of the rest as they lie. The last copy puts the
    state back in wire order, into the buffer, which is returned: the
    result is C-contiguous, as it is up to the cap.
    """
    steps = _schedule(gates)
    # Per step, the index of the next product that uses each wire.
    later: list[dict[int, int]] = []
    uses: dict[int, int] = {}
    for i in range(len(steps) - 1, -1, -1):
        later.append(uses)
        if not _phases_only(steps[i]):
            uses = {**uses, **{w: i for app in steps[i] for w in app.qubits}}
    later.reverse()
    own = psi if psi.base is None else psi.base
    buf = np.empty(own.size, dtype=complex) if uses else None  # if any step is a product
    memory = list(range(psi.ndim))  # the axes of psi in the order they lie in own
    for run, nxt in zip(steps, later):
        if _phases_only(run):
            for app in run:
                psi = _apply(psi, app)
            continue
        blocks, wires = _blocks(run)
        rest = sorted((a for a in memory if a not in wires), key=lambda a: nxt.get(a, len(steps)))
        memory = wires + rest
        moved = psi.transpose(memory)
        cols = buf.reshape(moved.shape)
        np.copyto(cols, moved)
        src = cols.reshape(blocks.shape[0], blocks.shape[1], -1)
        dst = own.reshape(src.shape, copy=False)
        if blocks.imag.any():
            np.matmul(blocks, src, out=dst)
        else:
            np.matmul(np.ascontiguousarray(blocks.real), src.view(np.float64), out=dst.view(np.float64))
        psi = own.reshape(moved.shape, copy=False).transpose(np.argsort(memory))
    if buf is None:
        return psi
    out = buf.reshape(psi.shape)
    np.copyto(out, psi)
    return out


def _phases_only(run: list[GateApp]) -> bool:
    return all(app.kind.gate in _ONES_PHASE for app in run)


def _blocks(run: list[GateApp]) -> tuple[np.ndarray, list[int]]:
    """The operator of ``run``, and the order of the run's k wires it is
    written in.

    The c wires that only phase gates touch come first, so the operator is
    block-diagonal over them: 2^c blocks of 2^(k-c) x 2^(k-c), shaped
    (2^c, 2^(k-c), 2^(k-c)). The whole-state rule, ``_evolve``, builds them
    at once, on one 2^(k-c)-column identity on the other wires per value of
    those c wires, with the run relabelled onto wires 0..k-1.
    """
    touched = {w for app in run if app.kind.gate not in _ONES_PHASE for w in app.qubits}
    wires = sorted({w for app in run for w in app.qubits} - touched) + sorted(touched)
    k, c = len(wires), len(wires) - len(touched)
    pos = {w: i for i, w in enumerate(wires)}
    local = [_Op(app.kind, tuple(map(pos.__getitem__, app.qubits))) for app in run]
    b = 1 << (k - c)
    start = np.tile(np.eye(b, dtype=complex), (1 << c, 1)).reshape((2,) * k + (b,))
    return _evolve(start, local, k).reshape(1 << c, b, b), wires


def _check_state_width(num_qubits: int) -> None:
    if num_qubits > MAX_STATE_QUBITS:
        raise ValueError(
            f"statevector capped at {MAX_STATE_QUBITS} qubits, got {num_qubits}"
        )


def run(c: Circuit, state: np.ndarray) -> np.ndarray:
    """Execute the circuit on an initial statevector.

    The input is copied once and never written; the gates then work on that
    copy (see ``_apply``).
    """
    _check_state_width(c.num_qubits)
    if state.shape[0] != 1 << c.num_qubits:
        raise ValueError(
            f"state has dimension {state.shape[0]}, circuit needs {1 << c.num_qubits}"
        )
    psi = np.array(state, dtype=complex).reshape([2] * c.num_qubits)
    return _evolve(psi, c.gates, c.num_qubits).reshape(-1)


def evolve_columns(c: Circuit, fixed: Kets) -> np.ndarray:
    """``c`` applied to every basis input of its free wires at once.

    Wire w in ``fixed`` is fed the single-qubit ket ``fixed[w]``; the other
    k wires are free. Returns the output tensor of shape (2,)*n + (2**k,):
    column j is the output state for the input whose free wires, in
    ascending order with the first as the most significant bit, spell j.
    Nothing is projected out. With nothing fixed the columns are those of
    ``circuit_unitary``. Capped at ``MAX_DENSE_QUBITS`` wires, checked
    before any array is allocated.
    """
    n = c.num_qubits
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense simulation capped at {MAX_DENSE_QUBITS} qubits, got {n}")
    if not all(0 <= w < n for w in fixed):
        raise ValueError(f"fixed wires {sorted(fixed)} out of range for {n} qubits")
    psi = _identity(n - len(fixed))
    # Wires below w already have their axes, so w's axis goes in at w.
    for w in sorted(fixed):
        ket = np.asarray(fixed[w], dtype=complex).reshape((2,) + (1,) * (psi.ndim - w))
        psi = np.expand_dims(psi, w) * ket
    return _evolve(psi, c.gates, n)


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (execution order, qubit 0 = MSB)."""
    dim = 1 << c.num_qubits
    return evolve_columns(c, {}).reshape(dim, dim)


@dataclass(frozen=True)
class AuxWire:
    """A work wire with declared computational-basis input and output bits."""

    qubit: int
    in_bit: int
    out_bit: int


@dataclass(frozen=True)
class Induced:
    """What a circuit does to its free wires, read from one column pass.

    ``block`` is U between the fixed wires' in kets and out bras. Over the
    free wires' basis inputs, ``catalyst_deficit`` is the largest norm of
    <cat_perp| U input, the amplitude that leaves the catalyst (0.0 without
    one), and ``leakage`` that of the amplitude outside the block: both are
    linear in a leak.
    """

    block: np.ndarray
    catalyst_deficit: float
    leakage: float

    def error(self, want: np.ndarray) -> float:
        """The block's largest entrywise gap to ``want`` (global phase not
        quotiented), or the deficit or the leakage if larger. Raises
        ValueError unless ``want`` has the block's shape."""
        if want.shape != self.block.shape:
            raise ValueError(f"claim of shape {want.shape} for a {self.block.shape} block")
        return max(float(np.abs(self.block - want).max()), self.catalyst_deficit, self.leakage)


# Elements of the columns one in-place rotation step works on: 1 MiB.
_SLAB = 1 << 16


def _rotated(cols: np.ndarray, outs: Kets) -> np.ndarray:
    """A copy of ``cols`` with each wire of ``outs`` turned into the basis
    (out, out-perp), index 0 reading <outs[w]| and index 1 the amplitude
    that leaves it, with those wires' axes moved first, ascending.

    Each wire is rotated in place on the copy, a slab of at most ``_SLAB``
    elements at a time, so ``cols`` and the copy are the only arrays of
    their size.
    """
    fixed = sorted(outs)
    t = cols.transpose(fixed + [a for a in range(cols.ndim) if a not in outs]).copy()
    for i, w in enumerate(fixed):
        o = outs[w]
        basis = np.array([o.conj(), [-o[1], o[0]]])
        v = t.reshape(1 << i, 2, -1)
        width = _SLAB >> (i + 1)
        for k in range(0, v.shape[2], width):
            part = v[:, :, k : k + width]
            part[...] = basis @ part
    return t


def _largest_norm(sq: np.ndarray) -> float:
    """Max over columns (the last axis) of the norm of the amplitudes whose
    squared magnitudes are ``sq``."""
    return math.sqrt(float(sq.sum(axis=tuple(range(sq.ndim - 1))).max()))


def induce(c: Circuit, catalyst: int | None = None, aux: Sequence[AuxWire] = ()) -> Induced:
    """The operator ``c`` induces on its other wires, from one
    ``evolve_columns`` pass (see ``Induced``), with the ``catalyst`` wire, if
    any, fed |+i> and read out through <+i|, and each ``aux`` wire fed
    |in_bit> and read through <out_bit|.

    Raises ValueError if a wire is fixed twice and, before allocating, past
    ``MAX_DENSE_QUBITS``.
    """
    ins = {} if catalyst is None else {catalyst: KET_PLUS_I}
    outs = dict(ins)
    for a in aux:
        if a.qubit in ins:
            raise ValueError(f"wire {a.qubit} is fixed twice")
        ins[a.qubit], outs[a.qubit] = _BITS[a.in_bit], _BITS[a.out_bit]
    at = None if catalyst is None else sorted(outs).index(catalyst)
    return _read(_rotated(evolve_columns(c, ins), outs), len(outs), at)


def _read(t: np.ndarray, f: int, at: int | None) -> Induced:
    """``Induced`` from a ``_rotated`` copy whose first ``f`` axes are the
    fixed wires, the catalyst's ``at``-th among them (None: no catalyst).
    It takes the copy alone, so the columns it was made from can go."""
    block = t[(0,) * f].reshape(-1, t.shape[-1])
    sq = np.abs(t)
    sq *= sq
    deficit = 0.0 if at is None else _largest_norm(sq[(_ALL,) * at + (1,)])
    sq[(0,) * f] = 0.0
    return Induced(block=block, catalyst_deficit=deficit, leakage=_largest_norm(sq))


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Global-phase-invariant distance sqrt(max(0, 1 - |Tr(A^dag B)| / dim)).

    A pseudometric: zero iff A = e^{i phi} B for unitary inputs. Near zero the
    trace form cancels catastrophically (floor ~ sqrt(machine eps)), so once
    the overlap is large the equivalent form ||A - cB||_F / sqrt(2 dim) with
    c the aligning unit phase is used instead; it resolves distances down to
    machine precision.
    """
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError("phase_aligned_distance needs two equal square matrices")
    dim = a.shape[0]
    t = complex(np.trace(a.conj().T @ b))
    overlap = abs(t) / dim
    if overlap < 0.5:
        return math.sqrt(max(0.0, 1.0 - overlap))
    c = t.conjugate() / abs(t)
    return float(np.linalg.norm(a - c * b)) / math.sqrt(2.0 * dim)


# Single-qubit states by token, as used by circuit inputs.
KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([_SQ2, _SQ2], dtype=complex)
KET_MINUS = np.array([_SQ2, -_SQ2], dtype=complex)
KET_PLUS_I = np.array([_SQ2, _SQ2 * 1j], dtype=complex)
KET_MINUS_I = np.array([_SQ2, -_SQ2 * 1j], dtype=complex)
_BITS = (KET_0, KET_1)

STATE_TOKENS: dict[str, np.ndarray] = {
    "0": KET_0,
    "1": KET_1,
    "+": KET_PLUS,
    "-": KET_MINUS,
    "+i": KET_PLUS_I,
    "-i": KET_MINUS_I,
}


def basis_state(num_qubits: int, index: int) -> np.ndarray:
    _check_state_width(num_qubits)
    if not 0 <= index < (1 << num_qubits):
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    psi = np.zeros(1 << num_qubits, dtype=complex)
    psi[index] = 1.0
    return psi


def product_state(tokens: list[str]) -> np.ndarray:
    """Tensor product of per-qubit tokens ('0','1','+','-','+i','-i'), qubit 0 first."""
    _check_state_width(len(tokens))
    for tok in tokens:
        if tok not in STATE_TOKENS:
            raise ValueError(f"unknown state token {tok!r}")
    # Each half is grown from its last wire, so an outer product's inner loop
    # runs over the state built so far, not over one ket's two entries. The
    # halves stay small, and their outer product is the one state-sized
    # array: growing the whole state so would also allocate, and page-fault
    # in, fresh memory at a half, a quarter, ... of the state's size.
    half = len(tokens) // 2
    return np.multiply.outer(_grown(tokens[:half]), _grown(tokens[half:])).reshape(-1)


def _grown(tokens: list[str]) -> np.ndarray:
    """``product_state`` of known tokens, built from the last wire up."""
    psi = np.ones(1, dtype=complex)
    for tok in reversed(tokens):
        psi = np.multiply.outer(STATE_TOKENS[tok], psi).reshape(-1)
    return psi


@dataclass(frozen=True)
class CatalyticReport:
    """``extract_catalytic``'s verdict: ``induced`` is the operator on the
    other wires, or None unless ``is_catalytic``."""

    is_catalytic: bool
    induced: np.ndarray | None
    catalyst_deficit: float


def extract_catalytic(
    u: np.ndarray,
    catalyst_qubit: int,
    catalyst_state: np.ndarray,
    tol: float = CATALYTIC_TOL,
) -> CatalyticReport:
    """Test whether ``u`` acts as (catalyst kept intact) x (unitary on the rest).

    The catalyst ket goes into ``u``'s input axis, which leaves the columns
    ``evolve_columns`` would give for it, read as ``induce`` reads them.
    Catalytic iff the catalyst deficit is within ``tol`` and, since ``u`` may
    be any matrix, the induced block is unitary within ``tol`` (Frobenius).
    When it holds, u (|cat> tensor |psi>) = |cat> tensor induced |psi>.
    """
    n = _num_qubits_of(u.shape[0])
    if n < 2:
        raise ValueError("need at least 2 qubits to factor out a catalyst")
    if not 0 <= catalyst_qubit < n:
        raise ValueError(f"catalyst qubit {catalyst_qubit} out of range")
    cat = np.asarray(catalyst_state, dtype=complex)
    if cat.shape != (2,) or abs(np.linalg.norm(cat) - 1.0) > KET_NORM_TOL:
        raise ValueError("catalyst state must be a normalized single-qubit vector")
    t = np.asarray(u, dtype=complex).reshape((2,) * (2 * n))
    cols = np.tensordot(t, cat, axes=([n + catalyst_qubit], [0])).reshape((2,) * n + (-1,))
    got = _read(_rotated(cols, {catalyst_qubit: cat}), 1, 0)
    b = got.block
    unitarity = float(np.linalg.norm(b.conj().T @ b - np.eye(b.shape[1])))
    ok = got.catalyst_deficit <= tol and unitarity <= tol
    return CatalyticReport(
        is_catalytic=ok, induced=b if ok else None, catalyst_deficit=got.catalyst_deficit
    )
