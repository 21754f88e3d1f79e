"""Command-line interface.

Every command prints a human-readable summary by default, or one JSON object
on stdout with ``--json`` (diagnostics go to stderr). Exit code is 0 exactly
when the command's ``ok`` is true.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from .gadgets import catalyst_flip_check, cs_gadget, induced_on_data, rz_gadget, s_gadget, verify_one_prep
from .ir import (
    PROFILES,
    Circuit,
    CircuitError,
    Gate,
    check_membership,
    gate_counts,
    parse_circuit,
    serialize_circuit,
)
from .lowering import VERIFY_METHOD, LoweringError, check_lemmas, count_report, lower, rule_cost, verify_lowering
from .sim import basis_state, product_state, run
from .synth import SynthesisError, haar_su, parse_matrix, synthesize


@dataclass
class RunReport:
    command: str
    ok: bool
    metrics: dict[str, float] = field(default_factory=dict)
    artifacts: list[str] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)

    def to_payload(self) -> dict[str, Any]:
        payload = asdict(self)
        payload.update(payload.pop("extra"))
        return payload


def _emit(report: RunReport, as_json: bool) -> int:
    if as_json:
        print(json.dumps(report.to_payload(), indent=2))
    else:
        for key, value in report.metrics.items():
            print(f"{key}: {value:.6g}")
        for path in report.artifacts:
            print(f"wrote: {path}")
        print(f"ok: {str(report.ok).lower()}")
    return 0 if report.ok else 1


def _read_circuit(path: str) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_circuit(fh.read())


def cmd_verify(args: argparse.Namespace) -> RunReport:
    tol = args.tol
    steps = args.theta_steps
    if steps < 1:
        raise ValueError(f"--theta-steps must be at least 1, got {steps}")
    rzs = [rz_gadget(2.0 * math.pi * k / steps) for k in range(steps)]
    max_rz, s_err, cs_err = (
        max(induced_on_data(g).error(g.claimed_induced) for g in gs)
        for gs in (rzs, [s_gadget()], [cs_gadget()])
    )
    flip = catalyst_flip_check()
    flip_err = abs(flip.phase - math.pi / 4.0)
    if not flip.ok:
        flip_err = max(flip_err, 1.0)
    rule_err = check_lemmas()
    ok = all(e <= tol for e in (max_rz, s_err, cs_err, flip_err, rule_err))
    return RunReport(
        command="verify",
        ok=ok,
        metrics={
            "theta_steps": float(steps),
            "tol": tol,
            "max_rz_error": max_rz,
            "s_gadget_error": s_err,
            "cs_gadget_error": cs_err,
            "catalyst_flip_error": flip_err,
            "catalyst_flip_phase": flip.phase,
            "rule_lemma_error": rule_err,
        },
    )


def cmd_lower(args: argparse.Namespace) -> RunReport:
    t0 = time.perf_counter()
    source = _read_circuit(args.circuit)
    t1 = time.perf_counter()
    lowered = lower(source, PROFILES[args.target])
    t2 = time.perf_counter()
    report = count_report(lowered)
    n_low = lowered.circuit.num_qubits
    metrics: dict[str, float] = {
        "total_qubits": float(n_low),
        "ccz_count": float(lowered.counts[Gate.CCZ]),
    }
    # A lowering too wide to check densely is written out but never ok; the
    # column pass refuses it before allocating.
    try:
        check = verify_lowering(source, lowered)
    except ValueError as exc:
        ok = False
        metrics["verify_skipped"] = 1.0
        print(f"not verified: {exc}", file=sys.stderr)
    else:
        ok = check.ok
        metrics["distance"] = check.distance
        metrics["catalyst_deficit"] = check.catalyst_deficit
        metrics["leakage"] = check.leakage
        metrics["verify_skipped"] = 0.0
    t3 = time.perf_counter()
    timings = {"parse": t1 - t0, "lower": t2 - t1, "verify": t3 - t2}
    method = None if metrics["verify_skipped"] else VERIFY_METHOD
    artifacts = []
    if args.out:
        text = serialize_circuit(lowered.circuit)
        timings["serialize"] = time.perf_counter() - t3
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        artifacts.append(args.out)
    rep = RunReport(
        command="lower",
        ok=ok,
        metrics=metrics,
        artifacts=artifacts,
        extra={"report": json.loads(report.to_json()), "method": method, "timings": timings},
    )
    if not args.json:
        print(report.to_json())
    return rep


def cmd_synthesize(args: argparse.Namespace) -> RunReport:
    dim = 1 << args.m
    if args.matrix is not None:
        with open(args.matrix, "r", encoding="utf-8") as fh:
            u = parse_matrix(fh.read())
        if u.shape[0] != dim:
            raise SynthesisError(
                f"matrix has dimension {u.shape[0]}, but --m {args.m} needs {dim}"
            )
    else:
        u = haar_su(dim, args.seed)
    result = synthesize(u)
    circuit_text = serialize_circuit(result.lowered.circuit)
    rep = RunReport(
        command="synthesize",
        ok=result.ok,
        metrics={
            "distance": result.distance,
            "ccz_count": float(result.lowered.counts[Gate.CCZ]),
            "catalyst_deficit": result.catalyst_deficit,
            "leakage": result.leakage,
            "total_qubits": float(result.lowered.circuit.num_qubits),
        },
        extra={
            "circuit": circuit_text,
            "report": json.loads(count_report(result.lowered).to_json()),
            "timings": result.timings,
            "method": result.method,
        },
    )
    if not args.json:
        print(circuit_text)
    return rep


def cmd_check_prep(args: argparse.Namespace) -> RunReport:
    c = _read_circuit(args.circuit)
    check = verify_one_prep(c, args.target_qubit)
    ccz_count = gate_counts(c)[Gate.CCZ]
    return RunReport(
        command="check-prep",
        ok=check.passes,
        metrics={
            "passes": float(check.passes),
            "gate_set_ok": float(check.gate_set_ok),
            "max_error": check.max_error,
            "phase": check.phase,
            "ccz_count": float(ccz_count),
            "s_total_ccz": float(ccz_count + rule_cost(Gate.CS).ccz),
        },
    )


def cmd_counts(args: argparse.Namespace) -> RunReport:
    c = _read_circuit(args.circuit)
    counts = gate_counts(c)
    metrics: dict[str, float] = {
        "num_qubits": float(c.num_qubits),
        "total_gates": float(len(c.gates)),
    }
    for name in ("HCCZ", "HCS", "REAL_O2_CCZ"):
        member = not check_membership(c, PROFILES[name])
        metrics[f"member_{name.lower()}"] = float(member)
    return RunReport(
        command="counts",
        ok=True,
        metrics=metrics,
        extra={"counts": {g.value: counts[g] for g in Gate}},
    )


def cmd_simulate(args: argparse.Namespace) -> RunReport:
    c = _read_circuit(args.circuit)
    if args.input:
        tokens = args.input.split(",")
        if len(tokens) != c.num_qubits:
            raise CircuitError(
                f"--input has {len(tokens)} tokens but the circuit has {c.num_qubits} qubits"
            )
        state = product_state(tokens)
    else:
        state = basis_state(c.num_qubits, 0)  # all |0>; checks the width first
    psi = run(c, state)
    amplitudes = []
    for idx, amp in enumerate(psi):
        if abs(amp) >= args.cutoff:
            amplitudes.append(
                {
                    "basis": format(idx, f"0{c.num_qubits}b"),
                    "re": float(amp.real),
                    "im": float(amp.imag),
                }
            )
    rep = RunReport(
        command="simulate",
        ok=True,
        metrics={
            "norm": float(np.linalg.norm(psi)),
            "shown": float(len(amplitudes)),
            "cutoff": args.cutoff,
        },
        extra={"amplitudes": amplitudes},
    )
    if not args.json:
        for entry in amplitudes:
            print(f"|{entry['basis']}>  {entry['re']:+.12f} {entry['im']:+.12f}j")
    return rep


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catalyq",
        description="Catalytic gate-set lowering and exact dense verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the gadget identities on a theta grid")
    p.add_argument("--theta-steps", type=int, default=128)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lower", help="rewrite a circuit into a target gate set")
    p.add_argument("circuit")
    p.add_argument("--target", choices=["HCCZ", "REAL_O2_CCZ"], required=True)
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lower)

    p = sub.add_parser("synthesize", help="compile a unitary onto {H,X,Z,RY,CCZ}")
    p.add_argument("--m", type=int, choices=[1, 2, 3], required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--seed", type=int)
    group.add_argument("--matrix")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("check-prep", help="verify a |0>->|1> preparation circuit")
    p.add_argument("circuit")
    p.add_argument("--target-qubit", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_prep)

    p = sub.add_parser("counts", help="gate counts and gate-set memberships")
    p.add_argument("circuit")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("simulate", help="run a circuit on a product-state input")
    p.add_argument("circuit")
    p.add_argument("--input", help="comma-joined per-qubit tokens from 0,1,+,-,+i,-i")
    p.add_argument("--cutoff", type=float, default=1e-3)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
    except (CircuitError, LoweringError, SynthesisError, ValueError, OSError, MemoryError) as exc:
        if not args.json:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report = RunReport(args.command, ok=False, extra={"error": str(exc)})
    return _emit(report, args.json)


if __name__ == "__main__":
    raise SystemExit(main())
