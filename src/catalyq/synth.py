"""Unitary synthesis down to the real gate set {H, X, Z, RY, CCZ}.

``decompose_su2m`` turns a 2^m x 2^m unitary (m <= 3) into single-qubit gates
plus CZ using a cosine-sine recursion: the matrix splits as
(A1 (+) A2) . multiplexed-RY . (B1 (+) B2), and each block-diagonal
multiplexor demultiplexes into local unitaries around a multiplexed RZ. Once
lowered a CZ costs 1 CCZ and an RZ 2, while RY, H, X and Z cost none, so the
emission spends its phases where they are free:

- Every multiplexed RY unrolls into a CZ ladder (Z, like X, flips an RY),
  2^k CZ for k controls. The middle one opens with a CZ that is diagonal
  and follows a demultiplexor, so that demultiplexor's lower block absorbs
  it (Shende-Bullock-Markov 2006, A.1): 2^k - 1 CZ there.
- Each multiplexed RZ is paid by a |+i> catalyst, wire m. |+i> is an RY
  eigenstate, so an RY on it is a phase, and a CZ(w, catalyst) flips the
  sign of that phase when w is 1. With k >= 2 controls the centre is one
  kick: a multiplexed RY on the catalyst between two CZ(select, catalyst),
  2^k + 2 CZ. With one control it is one Gray-code walk of the catalyst over
  the parities s, s xor r and r: 4 CZ for any diagonal on the two wires. The
  one-qubit blocks beside a walk are emitted Z-Y-Z, and the RZ that faces
  the walk joins it for free.
- Any other one-qubit block is emitted in its shortest form, Y-Z-Y at
  worst: one RZ between two free RYs.
- ``lowering.merge_phases`` then adds up each wire's RZs across the gates
  diagonal on it, and folds those that reach a walk's r step into it.

For Haar targets that is 2, 15 and 69 CCZ at m = 1, 2 and 3. The catalyst
returns as it came, and wire m exists only if some centre kicks it. Every
dropped single-qubit phase is global, so the result matches the input in
phase-aligned distance at working precision.

``synthesize`` chains that with the catalytic lowering pass, which kicks the
same catalyst wire, yielding a circuit over {H, X, Z, RY, CCZ} plus one |+i>
catalyst and one X-prepped ancilla. It is verified by one dense pass over
the lowered circuit, which must reproduce the input, and return its catalyst,
within ``lowering.VERIFY_TOL`` = 1e-10; the decomposition is not checked on
its own in between.

Haar sampling is pinned for reproducibility: numpy ``default_rng(seed)``
(PCG64), a Ginibre matrix (randn + i randn)/sqrt(2), QR, then the Q columns
rephased by diag(R)/|diag(R)|; SU projection divides by det^(1/dim).

scipy.linalg (for LAPACK's cosine-sine and complex Schur routines, called
directly) is imported by the recursion on its first use, not with the
package: ``ir``, ``lowering`` and ``sim`` never need it, and loading it would
add about 0.25 s to every start and some 16k objects for each full garbage
collection to walk.
"""

from __future__ import annotations

import cmath
import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .ir import REAL_O2_CCZ, Circuit, Gate, GateApp, GateKind, cz, trusted_app
from .lowering import (
    VERIFY_METHOD, LoweredCircuit, LoweringCheck, check_induced, induce, lower, merge_phases,
    rule_cost,
)
from . import sim
from .sim import gate_matrix


class SynthesisError(ValueError):
    """Synthesis produced (or was handed) something outside its contract."""


_FAMILY_EPS = 1e-13
# Largest ||u^dag u - I||_F an input matrix may show.
UNITARY_TOL = 1e-10


def _check_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise SynthesisError("input must be a square matrix")
    if not u.size:
        raise SynthesisError("input has dimension 0")
    if not np.isfinite(u).all():
        raise SynthesisError("input has a non-finite entry")
    dev = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))
    if not dev <= UNITARY_TOL:
        raise SynthesisError(f"input is not unitary (deviation {dev:.3e})")
    return u


# One-qubit blocks are handled as 4-tuples (u00, u01, u10, u11) of Python
# complex: a dozen numpy calls on a 2x2 array cost several times the arithmetic.

def _su2(a: complex, b: complex, c: complex, d: complex) -> tuple[complex, ...]:
    """Rescale the 2x2 unitary [[a, b], [c, d]] into SU(2)."""
    coeff = (a * d - b * c) ** -0.5
    return a * coeff, b * coeff, c * coeff, d * coeff


def _mul(x: tuple[complex, ...], y: tuple[complex, ...]) -> tuple[complex, ...]:
    """The 2x2 product x @ y."""
    (a, b, c, d), (e, f, g, h) = x, y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _params_zyz(su: tuple[complex, ...]) -> tuple[float, float, float]:
    """(theta, phi, lam) with ``su`` in SU(2) = Rz(phi) Ry(theta) Rz(lam), up to sign."""
    theta = 2.0 * math.atan2(abs(su[2]), abs(su[0]))
    plus = 2.0 * cmath.phase(su[3])
    minus = 2.0 * cmath.phase(su[2])
    return theta, (plus + minus) / 2.0, (plus - minus) / 2.0


def _entries(u: np.ndarray) -> tuple[complex, ...]:
    return tuple(np.asarray(u, dtype=complex).ravel().tolist())


# I (as None), then the named gates, each under both signs of its SU(2) form
# (unique up to sign).
_NAMED_SU2 = tuple(
    (g, tuple(sign * z for z in _su2(*_entries(gate_matrix(GateKind(g)) if g else np.eye(2)))))
    for g in (None, Gate.X, Gate.Z, Gate.H, Gate.S, Gate.SDG)
    for sign in (1, -1)
)
_RX90 = _entries(gate_matrix(GateKind(Gate.RX, math.pi / 2.0)))
_RX90_DAG = _entries(gate_matrix(GateKind(Gate.RX, -math.pi / 2.0)))
_ANGLE_EPS = 1e-12
# A CZ is immutable and angle-free: each one is built once and shared.
_cz = functools.cache(cz)
# One-qubit gates that lower to at least one CCZ.
_COSTLY = frozenset(g for g in Gate if g.arity == 1 and rule_cost(g).ccz)
# Largest entrywise gap at which an SU(2) block is emitted as a named gate.
_NAMED_EPS = 1e-12


def _wrap_pi(angle: float) -> float:
    """Reduce a rotation angle to (-pi, pi]; the dropped half-turn is global."""
    wrapped = math.remainder(angle, 2.0 * math.pi)
    return math.pi if wrapped <= -math.pi else wrapped


def _turns(angle: float) -> bool:
    """Whether a rotation by ``angle`` is not the identity, up to phase."""
    return abs(_wrap_pi(angle)) > _ANGLE_EPS


def _rot(gate: Gate, angle: float, qubit: int) -> list[GateApp]:
    angle = _wrap_pi(angle)
    if abs(angle) <= _ANGLE_EPS:
        return []
    return [trusted_app(gate, (qubit,), angle)]


def _short_1q(su: tuple[complex, ...], qubit: int) -> list[GateApp] | None:
    """The SU(2) block ``su`` as a named gate or a single rotation, up to
    global phase, or None if it is neither."""
    a, b, c, d = su
    for g, (p, q, r, s) in _NAMED_SU2:
        if (
            abs(a - p) <= _NAMED_EPS and abs(b - q) <= _NAMED_EPS
            and abs(c - r) <= _NAMED_EPS and abs(d - s) <= _NAMED_EPS
        ):
            return [] if g is None else [trusted_app(g, (qubit,))]
    if abs(a.imag) <= _FAMILY_EPS and abs(b.real) <= _FAMILY_EPS:
        return _rot(Gate.RX, 2.0 * math.atan2(-b.imag, a.real), qubit)
    if abs(a.imag) <= _FAMILY_EPS and abs(b.imag) <= _FAMILY_EPS:
        return _rot(Gate.RY, 2.0 * math.atan2(-b.real, a.real), qubit)
    if abs(b) <= _FAMILY_EPS:
        return _rot(Gate.RZ, 2.0 * cmath.phase(d), qubit)
    return None


def _emit_1q(u: np.ndarray, qubit: int) -> list[GateApp]:
    """Shortest-form emission of a single-qubit unitary, up to global phase.

    A named gate or a single rotation is emitted as such; any other block is
    Y-Z-Y, so it lowers to one RZ (2 CCZ) between two RYs that cost none.
    """
    (a, b), (c, d) = u.tolist()
    su = _su2(a, b, c, d)
    short = _short_1q(su, qubit)
    if short is not None:
        return short
    # RX(pi/2) u RX(pi/2)^dag = Rz(phi) Ry(theta) Rz(lam) gives
    # u = Ry(phi) Rz(-theta) Ry(lam): one RZ between two free RYs.
    theta, phi, lam = _params_zyz(_mul(_mul(_RX90, su), _RX90_DAG))
    return (
        _rot(Gate.RY, lam, qubit) + _rot(Gate.RZ, -theta, qubit) + _rot(Gate.RY, phi, qubit)
    )


def _ucry(angles: np.ndarray, ctrls: list[int], target: int) -> list[GateApp]:
    """Multiplexed RY: apply RY(angles[s]) to ``target`` for control state s.

    Angle index s reads the controls MSB-first. CZ-ladder recursion (Z, like X,
    flips the sign of an RY): the half-difference multiplexor between two
    CZ(ctrls[0], target), then the half-sum one. The first is laid out
    reversed, which is the same multiplexor, so it ends with the CZ that opens
    the second; that pair commutes with the CZ between them and cancels, which
    leaves 2^k CZ for k controls. An all-zero half collapses with its CZ pair.
    The ladder opens with CZ(ctrls[0], target), which ``_qsd`` folds into the
    demultiplexor before the middle multiplexor.
    """
    if not ctrls:
        return _rot(Gate.RY, float(angles[0]), target)
    half = len(angles) // 2
    lo, hi = angles[:half], angles[half:]
    diff = _ucry((lo - hi) / 2.0, ctrls[1:], target)[::-1]
    summ = _ucry((lo + hi) / 2.0, ctrls[1:], target)
    if not diff:
        return summ
    ladder = _cz(ctrls[0], target)
    if summ and diff[-1].kind.gate is Gate.CZ and diff[-1] == summ[0]:
        return [ladder, *diff[:-1], ladder, *summ[1:]]
    return [ladder, *diff, ladder, *summ]


@functools.cache
def _gees():
    """LAPACK's complex Schur routine, the one ``scipy.linalg.schur`` calls."""
    from scipy.linalg.lapack import get_lapack_funcs

    return get_lapack_funcs("gees", dtype=np.complex128)


def _no_sort(_eigenvalue: complex) -> None:
    return None


@functools.cache
def _uncsd(dim: int):
    """LAPACK's complex cosine-sine routine, the one ``scipy.linalg.cossin``
    calls, bound to its workspace for a ``dim`` x ``dim`` matrix cut in halves."""
    from scipy.linalg.lapack import get_lapack_funcs

    csd, csd_lwork = get_lapack_funcs(("uncsd", "uncsd_lwork"), dtype=np.complex128)
    half = dim // 2
    lwork, lrwork, info = csd_lwork(m=dim, p=half, q=half)
    if info != 0:
        raise np.linalg.LinAlgError(f"CS workspace query failed (uncsd info {info})")
    return functools.partial(csd, lwork=int(lwork.real), lrwork=int(lrwork))


def _leaf(u: np.ndarray, qubit: int, walk_after: bool) -> tuple[list[GateApp], float]:
    """A one-qubit block beside a catalyst walk, and the RZ angle the walk takes off it.

    A block that ``_emit_1q`` emits with no costly gate stays as emitted, and
    hands the walk nothing. Any other is Z-Y-Z, u = Rz(phi) Ry(theta) Rz(lam),
    minus the RZ that faces the walk (phi when the walk comes after the block,
    lam when it comes before): that RZ commutes with the walk and joins it for
    free. A diagonal block hands the walk its whole angle.
    """
    (a, b), (c, d) = u.tolist()
    su = _su2(a, b, c, d)
    short = _short_1q(su, qubit)
    if short is not None and not any(app.kind.gate in _COSTLY for app in short):
        return short, 0.0
    theta, phi, lam = _params_zyz(su)
    ry = _rot(Gate.RY, theta, qubit)
    if not ry:
        return [], phi + lam
    if walk_after:
        return _rot(Gate.RZ, lam, qubit) + ry, phi
    return ry + _rot(Gate.RZ, phi, qubit), lam


# The catalyst's walk over the three parities of (s, r): s, then s xor r, then r.
_PARITIES = ((1, 0), (1, 1), (0, 1))


def _walk(coeffs: tuple[float, float, float], s: int, r: int, cat: int) -> list[GateApp]:
    """Diagonal exp(i sum_p coeffs[p] (-1)^p(s, r)) on (s, r), up to global
    phase, as one Gray-code walk of the |+i> catalyst ``cat``.

    ``coeffs`` are the Walsh coefficients of the phase on the parities s,
    s xor r and r. CZ(s, cat) and CZ(r, cat) step the catalyst's sign to
    (-1)^p for the next parity p, and RY(-2 coeffs[p]) there adds the phase
    coeffs[p] (-1)^p, since RY(t) |+-i> = exp(-+i t/2) |+-i>. With all three
    that is CZ(s) RY CZ(r) RY CZ(s) RY CZ(r): 4 CZ. A zero coefficient is
    skipped, so one on s or r alone costs 2 CZ, and all three zero nothing.
    """
    out: list[GateApp] = []
    at = (0, 0)
    for parity, coeff in zip(_PARITIES, coeffs):
        step = _rot(Gate.RY, -2.0 * coeff, cat)
        if step:
            out += [_cz(w, cat) for w, i, j in zip((s, r), at, parity) if i != j]
            out += step
            at = parity
    return out + [_cz(w, cat) for w, i in zip((s, r), at) if i]


def _demux(blk0: np.ndarray, blk1: np.ndarray, select: int, rest: list[int]) -> list[GateApp]:
    """Circuit for blk0 (+) blk1 selected by ``select``: V, mRZ, W sandwich.

    blk0 blk1^dag = V D^2 V^dag (Schur), W = D V^dag blk1, so the multiplexor
    equals (I (x) V) (D (+) D^dag) (I (x) W) with D = diag(exp(i lam)). The
    centre, a phase on (select, rest), is paid for by the |+i> catalyst, an
    RY eigenstate. With two or more ``rest`` wires it is one kick: a
    multiplexed RY on the catalyst between two CZ(select, catalyst), which
    flip the sign of each RY, and so of its phase, when ``select`` is 1. With
    one it is a ``_walk`` with Walsh coefficients (lam0 + lam1) / 2 on s and
    (lam0 - lam1) / 2 on s xor r. When the walk passes s xor r, W and V are
    ``_leaf`` blocks and their facing RZs join it on r. A centre that is the
    identity leaves one block, V W.
    """
    prod = blk0 @ blk1.conj().T
    # The blocks are at most 4x4, so LAPACK takes its unblocked path and the
    # default workspace gives the same (T, V) as scipy's optimal one.
    t_mat, _, _, v, _, info = _gees()(_no_sort, prod)
    if info != 0:
        raise np.linalg.LinAlgError(f"Schur form not found (gees info {info})")
    lam = np.angle(np.diag(t_mat)) / 2.0
    w = (np.exp(1j * lam)[:, None] * v.conj().T) @ blk1
    # ``rest`` always ends at wire m - 1, so the catalyst, wire m, follows it.
    cat = rest[-1] + 1
    if len(rest) > 1:
        kick = _ucry(-2.0 * lam, rest, cat)
        if not kick:
            # D is the identity, so the multiplexor is I (x) V W: one block.
            return _qsd(v @ w, rest)
        return _qsd(w, rest) + [_cz(select, cat), *kick, _cz(select, cat)] + _qsd(v, rest)
    (r,) = rest
    lam0, lam1 = lam.tolist()
    on_s, on_sr = (lam0 + lam1) / 2.0, (lam0 - lam1) / 2.0
    if _turns(-2.0 * on_sr):
        # The walk passes the s xor r parity, so it costs 4 CZ whichever
        # parities it takes: the leaves' facing RZs join it on r for free.
        before, from_w = _leaf(w, r, walk_after=True)
        after, from_v = _leaf(v, r, walk_after=False)
        # RZ(a) on r is the phase -(a / 2) (-1)^r.
        coeffs = (on_s, on_sr, -(from_w + from_v) / 2.0)
        return before + _walk(coeffs, select, r, cat) + after
    if _turns(-2.0 * on_s):
        return _emit_1q(w, r) + _walk((on_s, 0.0, 0.0), select, r, cat) + _emit_1q(v, r)
    return _emit_1q(v @ w, r)


def _fold_opening_cz(
    middle: list[GateApp], v1h: np.ndarray, v2h: np.ndarray, select: int, rest: list[int]
) -> tuple[list[GateApp], np.ndarray]:
    """The middle multiplexor and the block v2h, with the multiplexor's
    opening CZ(rest[0], select), if it has one, folded into v2h.

    That CZ comes right after the demultiplexor of v1h (+) v2h and is
    diagonal, so it is Z on rest[0], the high bit of v2h's rows, when
    ``select`` is 1: negating the lower half of v2h's rows does its work.
    It stays when v1h = v2h: their demultiplexor has no centre, and the
    fold would give it one.
    """
    if not middle or middle[0] != _cz(rest[0], select):
        return middle, v2h
    if np.abs(v1h - v2h).max() <= _NAMED_EPS:
        return middle, v2h
    half = v2h.shape[0] // 2
    return middle[1:], np.concatenate((v2h[:half], -v2h[half:]))


def _qsd(u: np.ndarray, qubits: list[int]) -> list[GateApp]:
    if len(qubits) == 1:
        return _emit_1q(u, qubits[0])
    half = u.shape[0] // 2
    *_, theta, u1, u2, v1h, v2h, info = _uncsd(u.shape[0])(
        u[:half, :half], u[:half, half:], u[half:, :half], u[half:, half:]
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"CS decomposition not found (uncsd info {info})")
    select, rest = qubits[0], qubits[1:]
    middle, v2h = _fold_opening_cz(_ucry(2.0 * theta, rest, select), v1h, v2h, select, rest)
    return _demux(v1h, v2h, select, rest) + middle + _demux(u1, u2, select, rest)


def _decompose(u: np.ndarray) -> Circuit:
    """``decompose_su2m`` without its self-check, for a ``u`` that passed ``_check_unitary``."""
    dim = u.shape[0]
    m = dim.bit_length() - 1
    if dim != 1 << m or m not in (1, 2, 3):
        raise SynthesisError(f"dimension {dim} is not 2^m with m in 1..3")
    gates = tuple(_qsd(u, list(range(m))))
    # Wire m, the catalyst, exists only if some gate uses it.
    kicked = any(app.top == m for app in gates)
    return merge_phases(Circuit(m + kicked, gates), m if kicked else None)


def _catalyst(circuit: Circuit, dim: int) -> int | None:
    """The catalyst wire of a decomposition of a ``dim``-dimensional target, if any."""
    m = dim.bit_length() - 1
    return m if circuit.num_qubits > m else None


def decompose_su2m(u: np.ndarray) -> Circuit:
    """Decompose a 2^m x 2^m unitary (m in {1,2,3}) over 1q gates plus CZ.

    Wire m, when present, is a |+i> catalyst that every multiplexed RZ kicks
    and that comes back: the target is the operator the circuit induces on
    wires 0..m-1 with wire m fed |+i> and read out through <+i|. Self-checks
    that operator's distance, catalyst deficit and leakage against ``u``
    (``lowering.check_induced``), each within ``lowering.VERIFY_TOL``.
    """
    u = _check_unitary(u)
    circuit = _decompose(u)
    check = check_induced(sim.induce(circuit, _catalyst(circuit, u.shape[0])), u)
    if not check.ok:
        raise SynthesisError(f"decomposition self-check failed: {check}")
    return circuit


@dataclass(frozen=True)
class SynthesisResult(LoweringCheck):
    """The residuals of ``synthesize``'s one dense check, and what it checked."""

    lowered: LoweredCircuit
    timings: dict[str, float]  # seconds in each stage: decompose, lower, verify
    method: str = VERIFY_METHOD


def synthesize(u: np.ndarray) -> SynthesisResult:
    """Compile a unitary onto {H, X, Z, RY, CCZ} with catalyst and ancilla.

    Verified by one dense pass over the lowered circuit (no separate check of
    the decomposition): the distance of its induced data-register operator
    from ``u``, its catalyst deficit and its leakage must each be within
    ``lowering.VERIFY_TOL`` (1e-10), or this raises. The lowering rules are
    exact (``check_lemmas`` measures them at working precision), so the
    decomposition is within that bound too, up to rounding: no check is
    looser than ``decompose_su2m``'s self-check.
    """
    u = _check_unitary(u)
    t0 = time.perf_counter()
    source = _decompose(u)
    t1 = time.perf_counter()
    lowered = lower(source, REAL_O2_CCZ, _catalyst(source, u.shape[0]))
    t2 = time.perf_counter()
    check = check_induced(induce(lowered), u)
    t3 = time.perf_counter()
    if not check.ok:
        raise SynthesisError(f"synthesis verification failed: {check}")
    return SynthesisResult(
        **vars(check),
        lowered=lowered,
        timings={"decompose": t1 - t0, "lower": t2 - t1, "verify": t3 - t2},
    )


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary from the pinned PCG64 Ginibre + QR recipe."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    d = np.diag(r)
    return q * (d / np.abs(d))


def haar_su(dim: int, seed: int) -> np.ndarray:
    """Haar unitary projected onto SU(dim) by the principal det root."""
    u = haar_unitary(dim, seed)
    return u / np.linalg.det(u) ** (1.0 / dim)


def parse_matrix(text: str) -> np.ndarray:
    """Read the matrix file format: 'dim <n>' then n rows of n 're,im' entries."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or len(lines[0].split()) != 2 or lines[0].split()[0].lower() != "dim":
        raise SynthesisError("matrix file must start with 'dim <n>'")
    try:
        dim = int(lines[0].split()[1])
    except ValueError:
        raise SynthesisError("bad dimension in matrix file") from None
    if dim < 1:
        raise SynthesisError(f"matrix dimension must be positive, got {dim}")
    if len(lines) != dim + 1:
        raise SynthesisError(f"expected {dim} matrix rows, got {len(lines) - 1}")
    out = np.zeros((dim, dim), dtype=complex)
    for i, line in enumerate(lines[1:]):
        entries = line.split()
        if len(entries) != dim:
            raise SynthesisError(f"row {i}: expected {dim} entries, got {len(entries)}")
        for j, ent in enumerate(entries):
            parts = ent.split(",")
            if len(parts) != 2:
                raise SynthesisError(f"row {i}: entry {ent!r} is not 're,im'")
            try:
                out[i, j] = complex(float(parts[0]), float(parts[1]))
            except ValueError:
                raise SynthesisError(f"row {i}: unparseable entry {ent!r}") from None
    return out


def format_matrix(u: np.ndarray) -> str:
    """Inverse of :func:`parse_matrix`, 17 significant digits per component."""
    rows = [f"dim {u.shape[0]}"]
    for row in np.asarray(u, dtype=complex):
        rows.append(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row))
    return "\n".join(rows)
