"""Timed closed loop, set-up measurement, and the metrics computed from them.

One caller runs one item at a time and starts the next only when the last
has returned (a closed loop with a single client). Only the item call is
timed; checking its output happens between items, outside the timed region.
The host-speed probe of ``speed`` runs after every group of items, and the
time metrics are reported in its reference seconds.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import speed
import workloads
from spans import Span, Tracer, self_times

SETUP_REPS = 5
SETUP_PROBES = 3  # probes on each side of a set-up repetition's timed part
LOCAL_GROUPS = 3  # groups on each side whose probes scale an item
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Sample:
    seconds: float
    label: str | None
    quality: workloads.Quality | None
    error: str | None
    traced: bool = False
    probe: float | None = None  # host-speed probe after the last item of a group


def run_phase(
    workload: workloads.Workload,
    inputs: list,
    seconds: float,
    tracer: Tracer | None = None,
) -> list[Sample]:
    """Run items until their summed time reaches ``seconds`` and a group is whole.

    With a tracer, every other group of items is traced, so drift during the
    run falls evenly on traced and untraced items. The host-speed probe runs
    after each group, outside the timed region.
    """
    check = workload.new_check()
    samples: list[Sample] = []
    busy = 0.0
    i = 0
    at_least = workload.group * (2 if tracer is not None else 1)
    while busy < seconds or i % workload.group or i < at_least:
        x = inputs[i % len(inputs)]
        traced = tracer is not None and (i // workload.group) % 2 == 1
        out: Any = None
        error = None
        if traced:
            tracer.item, tracer.enabled = i, True
        start = time.perf_counter()
        try:
            out = workload.item(x)
        except Exception as exc:  # a raised error is a failed item, not a crash
            error = f"item raised {exc!r}"
        took = time.perf_counter() - start
        if traced:
            tracer.enabled = False
        busy += took
        quality = None
        if error is None:
            try:
                quality = check(x, out)
            except Exception as exc:
                error = f"check: {exc!r}"
        if error is not None:
            print(f"# item {i} failed: {error}", file=sys.stderr)
        i += 1
        probe = speed.probe() if i % workload.group == 0 else None
        samples.append(Sample(took, workload.label(x), quality, error, traced, probe))
    return samples


def child_import(src: Path) -> tuple[float, list[float]]:
    """Time to import the program in a fresh interpreter, measured inside it.

    Returns the seconds and the host-speed probes the child takes right after
    the import, on whichever core it ran.
    """
    code = (
        "import time; t = time.perf_counter(); import catalyq; "
        "took = time.perf_counter() - t\n"
        "import speed; speed.probe()\n"
        f"print(took, *[speed.probe() for _ in range({2 * SETUP_PROBES})])"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), str(Path(__file__).resolve().parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    took, *probes = map(float, done.stdout.split())
    return took, probes


def measure_setup(
    workload: workloads.Workload, seed: int, src: Path
) -> tuple[float, float, list]:
    """Import + input generation + one warm-up group, median over SETUP_REPS.

    Returns (reference seconds, raw seconds, inputs). The import is scaled by
    the probes of the child that imported, the rest by probes taken just
    before and after it in this process.
    """
    scaled, raw = [], []
    inputs: list = []
    speed.probe()  # the probe's own first call is not a measurement
    for _ in range(SETUP_REPS):
        imported, child_probes = child_import(src)
        probes = [speed.probe() for _ in range(SETUP_PROBES)]
        start = time.perf_counter()
        inputs = workload.generate(seed)
        for x in inputs[: workload.group]:
            workload.item(x)
        generated = time.perf_counter() - start
        probes += [speed.probe() for _ in range(SETUP_PROBES)]
        raw.append(imported + generated)
        scaled.append(imported * speed.scale(child_probes) + generated * speed.scale(probes))
    return statistics.median(scaled), statistics.median(raw), inputs


def tail(values: list[float]) -> tuple[float, float]:
    """Value with TAIL_BEYOND samples above it, and its percentile rank.

    With too few samples it falls back to the maximum (rank 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


Metrics = dict[str, tuple[float, str]]


def host_scales(samples: list[Sample]) -> list[float]:
    """Per item, the factor from its measured seconds to reference seconds.

    An item is scaled by the median probe of its own group and of
    LOCAL_GROUPS groups on each side, so a slow spell of the host scales the
    items run during it.
    """
    probes = [s.probe for s in samples if s.probe is not None]
    out, group = [], 0
    for s in samples:
        out.append(speed.scale(probes[max(0, group - LOCAL_GROUPS): group + LOCAL_GROUPS + 1]))
        group += s.probe is not None
    return out


def end_to_end(
    samples: list[Sample], setup_s: float, setup_raw_s: float
) -> tuple[Metrics, Metrics]:
    """(metrics for BENCHMARK.json, extra figures printed in the report).

    Times are in the host-speed probe's reference seconds; the report also
    prints them as measured (``.raw``).
    """
    scales = host_scales(samples)
    raw_ms = [s.seconds * 1e3 for s in samples]
    ms = [t * k for t, k in zip(raw_ms, scales)]
    good = [s.quality for s in samples if s.quality is not None]
    tail_ms, tail_pct = tail(ms)

    def mean(field: str) -> float:
        return statistics.fmean(getattr(q, field) for q in good) if good else 0.0

    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(samples) / (sum(ms) * 1e-3), "1/s"),
        "item_ms_p50": (statistics.median(ms), "ms"),
        "item_ms_tail": (tail_ms, "ms"),
        "ccz_per_item": (mean("ccz"), "count"),
        "gates_per_item": (mean("gates"), "count"),
        "added_wires_per_item": (mean("added_wires"), "count"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    failed = sum(1 for s in samples if s.error is not None)
    probes = [s.probe for s in samples if s.probe is not None]
    extra = {
        "host.probe_ms_p50": (1e3 * statistics.median(probes), "ms"),
        "host.scale_p50": (statistics.median(scales), "ratio"),
        "setup_s.raw": (setup_raw_s, "s"),
        "items_per_s.raw": (len(samples) / (sum(raw_ms) * 1e-3), "1/s"),
        "item_ms_p50.raw": (statistics.median(raw_ms), "ms"),
        "fail_ratio": (failed / len(samples), "ratio"),
        "item_ms_tail.percentile": (tail_pct, "%"),
        "item_ms_tail.samples": (float(len(samples)), "count"),
    }
    by_label: dict[str, list[float]] = defaultdict(list)
    for s, t in zip(samples, ms):
        if s.label is not None:
            by_label[s.label].append(t)
    for label in sorted(by_label):
        extra[f"synth_{label}_ms"] = (statistics.median(by_label[label]), "ms")
    return metrics, extra


# --- traced run ---------------------------------------------------------------


def _first(args: tuple, kwargs: dict) -> Any:
    return args[0] if args else next(iter(kwargs.values()))


def _width(args, kwargs, result) -> dict:
    c = _first(args, kwargs)
    return {"n": c.num_qubits, "gates": len(c.gates)}


def _lines(args, kwargs, result) -> dict:
    text = _first(args, kwargs)
    return {"lines": text.count("\n") + (not text.endswith("\n"))}


TARGETS = {
    "ir.parse_circuit": _lines,
    "ir.serialize_circuit": lambda a, k, r: {"gates": len(_first(a, k).gates)},
    "ir.check_membership": None,
    "ir.gate_counts": None,
    "lowering.lower": lambda a, k, r: {"gates_out": len(r.circuit.gates)},
    "lowering.count_report": None,
    "lowering.induced_block": None,
    "lowering.catalyst_return_deficit": None,
    "lowering.verify_lowering": None,
    "sim.circuit_unitary": _width,
    "sim.run": _width,
    "sim.product_state": None,
    "sim.project_wires": None,
    "sim.phase_aligned_distance": None,
    "synth.decompose_su2m": lambda a, k, r: {
        "cz_out": sum(1 for g in r.gates if g.kind.gate.value == "CZ")
    },
    "synth.synthesize": None,
}
LAYERS = ("ir", "lowering", "sim", "synth")
# Widths given a per-layer rate in BENCHMARK.json: the dense unitary at the
# synth_haar widths m and m + 2, the statevector at simulate_wide's width.
UNITARY_WIDTHS = (1, 2, 3, 4, 5)
RUN_WIDTHS = (workloads.WIDE_DATA + 2,)


def per_layer_names() -> list[str]:
    """Names of the per-layer metrics a traced run reports, in order."""
    names = [f"{t}.{m}" for t in TARGETS for m in ("calls_per_item", "errors", "self_pct")]
    names += [f"layer.{layer}.self_pct" for layer in LAYERS]
    names += ["trace.unwrapped_pct", "trace.overhead_ratio"]
    names += [f"sim.circuit_unitary.gates_per_s.n{w}" for w in UNITARY_WIDTHS]
    names += [f"sim.run.gates_per_s.n{w}" for w in RUN_WIDTHS]
    names += [
        "sim.run.amp_updates_computed",
        "synth.decompose_su2m.cz_out",
        "lowering.lower.gates_out_per_s",
        "ir.parse_circuit.lines_per_s",
        "ir.serialize_circuit.gates_per_s",
    ]
    names += [f"lowering.{k}_per_rule.{g}" for k in ("ccz", "gates") for g in workloads.LOWERABLE]
    return names


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def per_layer(
    spans: list[Span], samples: list[Sample], rules: dict[str, tuple[int, int]]
) -> tuple[Metrics, Metrics]:
    """(metrics for BENCHMARK.json, extra figures printed in the report).

    Shares are of the traced items' summed wall time; rates and per-gate
    times are in the host-speed probe's reference seconds. A function a
    workload never calls reads 0 calls, 0 errors and a 0 share.
    """
    traced = [s for s in samples if s.traced]
    untraced = [s for s in samples if not s.traced]
    wall = sum(s.seconds for s in traced)
    k = statistics.median(f for s, f in zip(samples, host_scales(samples)) if s.traced)
    items = len(traced)
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    span_s: dict[str, float] = defaultdict(float)
    attr_sum: dict[tuple[str, str], float] = defaultdict(float)
    by_width: dict[tuple[str, int], list[float]] = defaultdict(lambda: [0.0, 0.0])
    for span, s in zip(spans, own):
        calls[span.name] += 1
        errors[span.name] += span.error
        self_s[span.name] += s
        span_s[span.name] += span.end - span.start
        for key, value in span.attrs.items():
            attr_sum[span.name, key] += value
        if "n" in span.attrs:
            acc = by_width[span.name, span.attrs["n"]]
            acc[0] += span.attrs["gates"]
            acc[1] += s

    metrics: Metrics = {}
    extra: Metrics = {}
    for name in TARGETS:
        metrics[f"{name}.calls_per_item"] = (calls[name] / items, "count")
        metrics[f"{name}.errors"] = (float(errors[name]), "count")
        metrics[f"{name}.self_pct"] = (100.0 * self_s[name] / wall, "%")
        extra[f"{name}.self_s"] = (self_s[name], "s")
    for layer in LAYERS:
        share = sum(self_s[t] for t in TARGETS if t.startswith(layer + "."))
        metrics[f"layer.{layer}.self_pct"] = (100.0 * share / wall, "%")
    metrics["trace.unwrapped_pct"] = (100.0 * (wall - sum(self_s.values())) / wall, "%")
    ips_untraced = len(untraced) / sum(s.seconds for s in untraced)
    metrics["trace.overhead_ratio"] = (ips_untraced / (items / wall), "ratio")

    for (name, width), (gates, seconds) in sorted(by_width.items()):
        extra[f"{name}.us_per_gate.n{width}"] = (1e6 * seconds * k / gates, "us")
    for w in UNITARY_WIDTHS:
        gates, seconds = by_width.get(("sim.circuit_unitary", w), (0.0, 0.0))
        metrics[f"sim.circuit_unitary.gates_per_s.n{w}"] = (_rate(gates, seconds * k), "1/s")
    for w in RUN_WIDTHS:
        gates, seconds = by_width.get(("sim.run", w), (0.0, 0.0))
        metrics[f"sim.run.gates_per_s.n{w}"] = (_rate(gates, seconds * k), "1/s")
    # Computed, not measured: each gate of a run touches all 2^n amplitudes.
    amp_updates = sum(g * (1 << w) for (name, w), (g, _) in by_width.items() if name == "sim.run")
    metrics["sim.run.amp_updates_computed"] = (amp_updates / items, "count")
    decomposed = calls["synth.decompose_su2m"]
    metrics["synth.decompose_su2m.cz_out"] = (
        attr_sum["synth.decompose_su2m", "cz_out"] / decomposed if decomposed else 0.0, "count")
    metrics["lowering.lower.gates_out_per_s"] = (
        _rate(attr_sum["lowering.lower", "gates_out"], span_s["lowering.lower"] * k), "1/s")
    metrics["ir.parse_circuit.lines_per_s"] = (
        _rate(attr_sum["ir.parse_circuit", "lines"], self_s["ir.parse_circuit"] * k), "1/s")
    metrics["ir.serialize_circuit.gates_per_s"] = (
        _rate(attr_sum["ir.serialize_circuit", "gates"], self_s["ir.serialize_circuit"] * k), "1/s")
    for column, kind in enumerate(("ccz", "gates")):
        for gate, counts in rules.items():
            metrics[f"lowering.{kind}_per_rule.{gate}"] = (float(counts[column]), "count")
    extra["trace.items"] = (float(items), "count")
    extra["trace.spans"] = (float(len(spans)), "count")
    return metrics, extra
