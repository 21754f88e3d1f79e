"""Tests of the benchmark's own code: inputs, reference, checks, tracing.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import harness  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from catalyq import ir, lowering, sim, synth  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and bool(np.all(a == b))
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_and_counts(name):
    w = workloads.WORKLOADS[name]
    first, again, other = w.generate(5), w.generate(5), w.generate(6)
    assert _same(first, again)
    assert not _same(first, other)
    check = w.new_check()
    counts = [check(x, w.item(x)) for x in first[: w.group]]
    assert counts == [check(x, w.item(x)) for x in again[: w.group]]
    # Fixed gate multisets: another seed's circuits give the same counts.
    assert counts == [check(x, w.item(x)) for x in other[: w.group]]


def _random_ops(rng, n, count):
    names = [g for g in workloads.LOWERABLE if workloads._ARITY.get(g, 1) <= n]
    ops = []
    for _ in range(count):
        name = names[rng.integers(len(names))]
        wires = tuple(int(q) for q in rng.permutation(n)[: workloads._ARITY.get(name, 1)])
        angle = float(rng.uniform(-6, 6)) if name in workloads._ANGLED else None
        ops.append((name, angle, wires))
    return ops


def _text(n, ops):
    lines = [f"qubits {n}"]
    for name, angle, wires in ops:
        head = name if angle is None else f"{name}({angle!r})"
        lines.append(" ".join([head, *map(str, wires)]))
    return "\n".join(lines)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_oracle_agrees_with_sim(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        ops = _random_ops(rng, n, 30)
        circuit = ir.parse_circuit(_text(n, ops))
        assert oracle.parse_text(ir.serialize_circuit(circuit)) == (n, oracle.ops_of(circuit))
        eye = np.eye(1 << n, dtype=complex)
        assert np.allclose(oracle.simulate(n, ops, eye), sim.circuit_unitary(circuit), atol=1e-12)
        psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        psi /= np.linalg.norm(psi)
        assert np.allclose(oracle.simulate(n, ops, psi), sim.run(circuit, psi), atol=1e-12)


def test_oracle_induced_operator_agrees_with_lowering():
    rng = np.random.default_rng(7)
    source = ir.parse_circuit(_text(2, _random_ops(rng, 2, 12)))
    low = lowering.lower(source, ir.REAL_O2_CCZ)
    n = low.circuit.num_qubits
    ins, outs = workloads._added_wire_states(2, n, low.catalyst_qubit)
    ours = oracle.induced_operator(n, oracle.ops_of(low.circuit), ins, outs)
    assert np.allclose(ours, lowering.induced_block(low), atol=1e-12)
    assert oracle.phase_distance(ours, sim.circuit_unitary(source)) < 1e-12


@pytest.mark.parametrize("qubits", [(2, 0), (0, 2, 1), (3, 1, 4)])
def test_oracle_diagonal_path_matches_dense_path(qubits):
    rng = np.random.default_rng(len(qubits))
    k = len(qubits)
    diag = np.exp(1j * rng.uniform(0, 6, 1 << k))  # no operand symmetry
    state = rng.standard_normal((32, 3)) + 1j * rng.standard_normal((32, 3))
    dense = oracle.apply(state, 5, np.diag(diag), qubits)
    assert np.allclose(oracle.apply_diagonal(state, 5, diag.reshape([2] * k), qubits), dense)


def test_phase_distance_ignores_global_phase_only():
    u = workloads.haar_su(np.random.default_rng(1), 4)
    assert oracle.phase_distance(np.exp(0.3j) * u, u) < 1e-15
    assert oracle.phase_distance(u @ np.diag([1, 1, 1, 1j]), u) > 0.1


def _drop_first_ccz(circuit):
    gates = list(circuit.gates)
    gates.pop(next(i for i, g in enumerate(gates) if g.kind.gate.value == "CCZ"))
    return replace(circuit, gates=tuple(gates))


def test_synth_check_rejects_a_dropped_ccz():
    w = workloads.WORKLOADS["synth_haar"]
    check = w.new_check()
    x = w.generate(3)[1]
    result = w.item(x)
    assert check(x, result).ccz > 0
    broken = replace(result, lowered=replace(result.lowered, circuit=_drop_first_ccz(result.lowered.circuit)))
    with pytest.raises(workloads.CheckFailed):
        check(x, broken)


def test_compile_check_rejects_corrupted_output():
    w = workloads.WORKLOADS["compile_long"]
    check = w.new_check()  # remembers verified outputs: corruptions must still fail
    x = w.generate(3)[0]
    lowered, report, text = w.item(x)
    quality = check(x, (lowered, report, text))
    assert check(x, (lowered, report, text)) == quality
    dropped = _drop_first_ccz(lowered.circuit)
    dropped_text = ir.serialize_circuit(dropped)
    with pytest.raises(workloads.CheckFailed):
        check(x, (replace(lowered, circuit=dropped), report, dropped_text))
    with pytest.raises(workloads.CheckFailed, match="parse"):
        check(x, (lowered, report, dropped_text))
    with pytest.raises(workloads.CheckFailed, match="target set"):
        check(x, (lowered, report, text + "\nS 0"))
    with pytest.raises(workloads.CheckFailed, match="parse"):
        check(x, (replace(lowered, circuit=dropped), report, text))
    assert check(x, (lowered, report, text)) == quality


def test_wide_check_rejects_wrong_state_and_loop_counts_failures():
    w = workloads.WORKLOADS["simulate_wide"]
    check = w.new_check()
    x = w.generate(3)[0]
    lowered, state = w.item(x)
    check(x, (lowered, state))
    with pytest.raises(workloads.CheckFailed):
        check(x, (lowered, sim.run(_drop_first_ccz(lowered.circuit), state)))

    def dropping_item(x):
        low = lowering.lower(x[0], ir.REAL_O2_CCZ)
        low = replace(low, circuit=_drop_first_ccz(low.circuit))
        added = ["+i" if q == low.catalyst_qubit else "0" for q in range(16, low.circuit.num_qubits)]
        return low, sim.run(low.circuit, sim.product_state([*x[2], *added]))

    def raising_item(x):
        raise RuntimeError("boom")

    for item in (dropping_item, raising_item):
        broken = replace(w, item=item)
        samples = harness.run_phase(broken, [x], 1e-9)
        assert len(samples) == 1 and samples[0].error is not None and samples[0].quality is None


def test_self_times_on_a_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),  # overlaps a: the union [1, 5] counts once
        Span("c", 8.0, 12.0, 0, 0),  # runs past root: clipped to [8, 10]
        Span("b.child", 3.0, 4.0, 2, 0),
        Span("other_root", 20.0, 21.5, None, 1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.0, 4.0, 1.0, 1.5])


def test_tracer_wraps_every_binding_and_restores_them():
    original = sim.circuit_unitary
    x = workloads.WORKLOADS["synth_haar"].generate(1)[2]
    with Tracer({"sim.circuit_unitary": harness._width, "synth.synthesize": None,
                 "nowhere.missing": None}) as tracer:
        for mod in (sim, lowering, synth):
            assert mod.circuit_unitary is not original
        tracer.enabled, tracer.item = True, 7
        synth.synthesize(x[1])
        tracer.enabled = False
        synth.synthesize(x[1])  # disabled: not recorded
    for mod in (sim, lowering, synth):
        assert mod.circuit_unitary is original
    assert tracer.missing == ["nowhere.missing"]
    names = [s.name for s in tracer.spans]
    assert names.count("synth.synthesize") == 1 and names.count("sim.circuit_unitary") == 3
    root = names.index("synth.synthesize")
    for s in tracer.spans:
        assert s.item == 7 and s.start <= s.end
        if s.name == "sim.circuit_unitary":
            assert s.parent == root and s.attrs["n"] in (3, 5)


def test_tail_has_ten_samples_beyond():
    values = list(range(100))
    assert harness.tail(values) == (89, 90.0)
    assert harness.tail([3.0, 1.0]) == (3.0, 100.0)


def test_times_are_scaled_by_the_host_speed_probe():
    w = workloads.WORKLOADS["synth_haar"]
    samples = harness.run_phase(w, w.generate(2)[:3], 1e-9)
    assert [s.probe is not None for s in samples] == [False, False, True]
    slow_host = [replace(s, probe=2 * speed.REF_S) if s.probe else s for s in samples]
    metrics, extra = harness.end_to_end(slow_host, 1.0, 1.0)
    assert extra["host.scale_p50"][0] == 0.5
    assert metrics["item_ms_p50"][0] == pytest.approx(0.5 * extra["item_ms_p50.raw"][0])
    assert metrics["items_per_s"][0] == pytest.approx(2 * extra["items_per_s.raw"][0])


def test_rule_table_baseline():
    table = workloads.rule_table()
    ccz = {g: c for g, (c, _) in table.items() if c}
    assert ccz == {"S": 2, "SDG": 6, "RX": 8, "RZ": 8, "CS": 2, "CZ": 1, "CCZ": 1}


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec["paths"]) == {BENCH.name}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == harness.per_layer_names()
    w = workloads.WORKLOADS["synth_haar"]
    inputs = w.generate(2)
    samples = harness.run_phase(w, inputs, 1e-9)
    metrics, _ = harness.end_to_end(samples, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in metrics.items()}
    with Tracer(harness.TARGETS) as tracer:
        samples = harness.run_phase(w, inputs, 1e-9, tracer)
    metrics, _ = harness.per_layer(tracer.spans, samples, workloads.rule_table())
    assert list(metrics) == harness.per_layer_names()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in metrics.items()}
