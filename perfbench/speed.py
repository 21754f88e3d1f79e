"""Host-speed probe: a fixed task timed next to the program to rescale its times.

The cores this benchmark runs on are shared, and their speed drifts by a
quarter or more over seconds to minutes; thread CPU time follows wall time, so
the drift is the host's speed, not preemption, and longer runs do not average
it away. ``probe`` times a fixed task that uses no ``catalyq`` code. The
harness runs it after every group of items and around every set-up
repetition, and reports each time metric scaled by ``REF_S / median probe``:
seconds on a host on which the probe takes ``REF_S``. A slower program still
reads slower; a slower host does not. Raw times are printed in the report.

The task mixes the three kinds of work the workloads do: interpreted Python
over short strings and dicts (parsing and lowering), small dense complex
algebra (``circuit_unitary`` at a few wires), and a diagonal gate applied to
an 18-wire, 4 MiB state (``sim.run`` on ``simulate_wide``).
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

REF_S = 0.0035  # about the probe's time on a quiet 2-core Xeon host

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_STATE = np.full((2,) * 18, 2.0**-9, dtype=complex)
_PHASE = np.exp(0.25j * np.pi * np.arange(2))
_OUT = np.empty_like(_STATE)
_LINES = [f"RZ({0.1 * i!r}) {i % 7} {(i + 3) % 7}" for i in range(400)]


def _task() -> None:
    counts: dict[str, int] = {}
    for _ in range(2):
        for line in _LINES:
            head, *wires = line.split()
            name = head.partition("(")[0]
            counts[name] = counts.get(name, 0) + len(wires)
    a = _SMALL
    for _ in range(30):
        a = np.kron(a[:2, :2], a[:2, :2]) @ _SMALL
        a = a / np.abs(a).max()
    np.multiply(_STATE, _PHASE, out=_OUT)


def probe() -> float:
    """Seconds the fixed task takes now.

    The garbage collector is off meanwhile, so the program's heap, which a
    collection would walk, does not reach into the probe.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _task()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def scale(probes: list[float]) -> float:
    """Factor that turns times measured alongside ``probes`` into reference seconds."""
    return REF_S / statistics.median(probes)
