"""Catalytic gate-set lowering with exact dense verification.

A |+i> = (|0> + i|1>)/sqrt(2) catalyst lets circuits over real gate sets such
as {H, CCZ} implement imaginary gates (S, controlled-S, Rz) exactly, with the
catalyst returned intact. This package provides the circuit IR, the gadget
constructions, a rewrite-rule lowering pass, small-unitary synthesis, and a
dense simulator that certifies every identity up to global phase.
"""

import os

# One BLAS thread, set before numpy loads, unless the user chose a count: the
# kernels multiply tiny gate matrices into big states, where threads only cost.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .gadgets import (
    AuxWire,
    FlipCheck,
    Gadget,
    PrepCheck,
    catalyst_flip_check,
    cs_gadget,
    induced_on_data,
    rz_gadget,
    s_gadget,
    s_via_prep,
    verify_one_prep,
)
from .ir import (
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
    check_membership,
    gate_counts,
    parse_circuit,
    serialize_circuit,
)
from .lowering import (
    RULES,
    CountReport,
    LoweredCircuit,
    LoweringCheck,
    LoweringError,
    check_lemmas,
    count_report,
    lower,
    verify_lowering,
)
from .sim import (
    KET_0,
    KET_1,
    KET_MINUS,
    KET_MINUS_I,
    KET_PLUS,
    KET_PLUS_I,
    CatalyticReport,
    basis_state,
    circuit_unitary,
    extract_catalytic,
    gate_matrix,
    phase_aligned_distance,
    product_state,
    run,
)
from .synth import (
    SynthesisError,
    SynthesisResult,
    decompose_su2m,
    format_matrix,
    haar_su,
    haar_unitary,
    parse_matrix,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "AuxWire",
    "CatalyticReport",
    "Circuit",
    "CircuitError",
    "CountReport",
    "FULL",
    "FlipCheck",
    "Gadget",
    "Gate",
    "GateApp",
    "GateKind",
    "GateSetProfile",
    "HCCZ",
    "HCS",
    "KET_0",
    "KET_1",
    "KET_MINUS",
    "KET_MINUS_I",
    "KET_PLUS",
    "KET_PLUS_I",
    "LoweredCircuit",
    "LoweringCheck",
    "LoweringError",
    "PROFILES",
    "PrepCheck",
    "REAL_O2_CCZ",
    "RULES",
    "SynthesisError",
    "SynthesisResult",
    "Violation",
    "basis_state",
    "catalyst_flip_check",
    "check_lemmas",
    "check_membership",
    "circuit_unitary",
    "count_report",
    "cs_gadget",
    "decompose_su2m",
    "extract_catalytic",
    "format_matrix",
    "gate_counts",
    "gate_matrix",
    "haar_su",
    "haar_unitary",
    "induced_on_data",
    "lower",
    "parse_circuit",
    "parse_matrix",
    "phase_aligned_distance",
    "product_state",
    "run",
    "rz_gadget",
    "s_gadget",
    "s_via_prep",
    "serialize_circuit",
    "synthesize",
    "verify_lowering",
    "verify_one_prep",
]
