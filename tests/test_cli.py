"""End-to-end exercises of the command-line interface via main(argv)."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from catalyq import cli, gadgets, lowering
from catalyq.cli import main
from catalyq.ir import HCCZ, Gate, check_membership, gate_counts, parse_circuit
from catalyq.synth import format_matrix, haar_su, synthesize

CS_TEXT = "qubits 2\nCS 0 1\n"
Y_TEXT = "qubits 1\nY 0\n"
CS_GADGET_TEXT = "qubits 3\nH 0\nCCZ 1 2 0\nH 0\nCCZ 1 2 0\n"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run_cli(argv + ["--json"], capsys)
    return code, json.loads(out), err


# --- verify ---

def test_verify_small_grid_passes(capsys):
    code, out, err = run_cli(["verify", "--theta-steps", "8"], capsys)
    assert code == 0
    assert "ok: true" in out
    assert "max_rz_error:" in out
    assert err == ""


def test_verify_single_step(capsys):
    code, payload, _ = run_json(["verify", "--theta-steps", "1"], capsys)
    assert code == 0
    assert payload["ok"] is True
    assert payload["metrics"]["theta_steps"] == 1.0


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_verify_refuses_an_empty_theta_grid(steps, capsys):
    # No RZ gadget would be checked, so there is nothing to report ok.
    code, payload, _ = run_json(["verify", "--theta-steps", steps], capsys)
    assert code == 1
    assert payload["ok"] is False
    assert "--theta-steps must be at least 1" in payload["error"]
    code, out, err = run_cli(["verify", "--theta-steps", steps], capsys)
    assert code == 1
    assert out == ""
    assert "--theta-steps must be at least 1" in err


def test_verify_impossible_tolerance_fails(capsys):
    code, payload, _ = run_json(["verify", "--theta-steps", "4", "--tol", "1e-30"], capsys)
    assert code == 1
    assert payload["ok"] is False
    assert payload["metrics"]["catalyst_flip_phase"] == pytest.approx(math.pi / 4)


def test_verify_json_shape(capsys):
    code, payload, _ = run_json(["verify", "--theta-steps", "4"], capsys)
    assert code == 0
    assert set(payload) == {"command", "ok", "metrics", "artifacts"}
    assert payload["command"] == "verify"
    expected = {
        "theta_steps", "tol", "max_rz_error", "s_gadget_error",
        "cs_gadget_error", "catalyst_flip_error", "catalyst_flip_phase",
        "rule_lemma_error",
    }
    assert set(payload["metrics"]) == expected
    assert payload["metrics"]["max_rz_error"] <= 1e-12
    assert payload["metrics"]["rule_lemma_error"] <= 1e-12


def test_verify_fails_on_a_broken_rule_table(monkeypatch, capsys):
    # The gadgets still hold; only the rule table as lower ships it is off.
    monkeypatch.setattr(cli, "check_lemmas", lambda: 1.0)
    code, payload, _ = run_json(["verify", "--theta-steps", "4"], capsys)
    assert code == 1
    assert payload["ok"] is False
    assert payload["metrics"]["rule_lemma_error"] == 1.0
    assert payload["metrics"]["max_rz_error"] <= 1e-12


def test_verify_fails_when_a_rule_spends_its_catalyst(monkeypatch, capsys):
    # Every block exact, but each rule's catalyst comes back 1e-6 short.
    real = lowering.induce
    monkeypatch.setattr(lowering, "induce", lambda low: dataclasses.replace(real(low), catalyst_deficit=1e-6))
    code, payload, _ = run_json(["verify", "--theta-steps", "4"], capsys)
    assert code == 1
    assert payload["ok"] is False
    assert payload["metrics"]["rule_lemma_error"] >= 1e-6


def test_verify_fails_when_a_gadget_spends_its_catalyst(monkeypatch, capsys):
    # Every gadget block exact, but each catalyst comes back 1e-6 short.
    real = gadgets.induce

    def spent(*args):
        got = real(*args)
        return dataclasses.replace(got, catalyst_deficit=got.catalyst_deficit + 1e-6)

    monkeypatch.setattr(gadgets, "induce", spent)
    code, payload, _ = run_json(["verify", "--theta-steps", "4"], capsys)
    assert code == 1
    assert payload["ok"] is False
    for key in ("s_gadget_error", "cs_gadget_error", "max_rz_error"):
        assert payload["metrics"][key] >= 1e-6
    assert payload["metrics"]["rule_lemma_error"] <= 1e-12


# --- lower ---

def test_lower_cs_to_hccz_writes_artifact(tmp_path, capsys):
    src = tmp_path / "cs.txt"
    src.write_text(CS_TEXT)
    out_file = tmp_path / "lowered.txt"
    code, payload, _ = run_json(
        ["lower", str(src), "--target", "HCCZ", "--out", str(out_file)], capsys
    )
    assert code == 0
    assert payload["ok"] is True
    assert payload["artifacts"] == [str(out_file)]
    assert payload["metrics"]["ccz_count"] == 2.0
    assert payload["metrics"]["distance"] <= 1e-12
    assert payload["metrics"]["verify_skipped"] == 0.0
    lowered = parse_circuit(out_file.read_text())
    assert check_membership(lowered, HCCZ) == []
    counts = gate_counts(lowered)
    assert counts[Gate.CCZ] == 2
    assert counts[Gate.H] == 2


def test_lower_text_mode_prints_count_report(tmp_path, capsys):
    src = tmp_path / "cs.txt"
    src.write_text(CS_TEXT)
    code, out, _ = run_cli(["lower", str(src), "--target", "HCCZ"], capsys)
    assert code == 0
    report = json.loads(out[: out.index("total_qubits:")])
    assert report["ccz_per_cs"] == 2.0
    assert "ok: true" in out


def test_lower_unlowerable_gate_text_error(tmp_path, capsys):
    src = tmp_path / "y.txt"
    src.write_text(Y_TEXT)
    code, out, err = run_cli(["lower", str(src), "--target", "HCCZ"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "not lowerable" in err


def test_lower_unlowerable_gate_json_error(tmp_path, capsys):
    src = tmp_path / "y.txt"
    src.write_text(Y_TEXT)
    code, payload, err = run_json(["lower", str(src), "--target", "HCCZ"], capsys)
    assert code == 1
    assert err == ""
    assert payload["ok"] is False
    assert payload["metrics"] == {}
    assert payload["artifacts"] == []
    assert "not lowerable" in payload["error"]


def test_lower_missing_file_is_reported(tmp_path, capsys):
    code, payload, _ = run_json(
        ["lower", str(tmp_path / "absent.txt"), "--target", "HCCZ"], capsys
    )
    assert code == 1
    assert payload["ok"] is False


def test_lower_verifies_five_data_wires(tmp_path, capsys):
    src = tmp_path / "s5.txt"
    src.write_text("qubits 5\nS 0\n")  # 5 data + catalyst + ancilla = 7 wires
    code, payload, err = run_json(["lower", str(src), "--target", "REAL_O2_CCZ"], capsys)
    assert code == 0
    assert payload["ok"] is True
    metrics = payload["metrics"]
    assert metrics["verify_skipped"] == 0.0
    assert metrics["total_qubits"] == 7.0
    assert metrics["distance"] <= 1e-12
    assert metrics["catalyst_deficit"] <= 1e-12
    assert metrics["leakage"] <= 1e-12
    assert err == ""
    assert payload["method"] == "dense_columns"


def test_lower_past_verify_cap_is_not_ok(tmp_path, capsys, refuse_big_arrays):
    src = tmp_path / "s11.txt"
    src.write_text("qubits 11\nS 0\n")  # 11 data + catalyst + ancilla = 13 wires
    out_file = tmp_path / "lowered.txt"
    code, payload, err = run_json(
        ["lower", str(src), "--target", "REAL_O2_CCZ", "--out", str(out_file)], capsys
    )
    assert code == 1
    assert payload["ok"] is False
    assert payload["metrics"]["verify_skipped"] == 1.0
    assert payload["metrics"]["total_qubits"] == 13.0
    assert "distance" not in payload["metrics"]
    assert "not verified" in err
    assert payload["method"] is None
    assert payload["artifacts"] == [str(out_file)]
    assert parse_circuit(out_file.read_text()).num_qubits == 13


def mask_timings(out, stages):
    """``lower --json`` output with each stage time replaced by a marker,
    after checking that ``stages`` are exactly its timed stages, in order."""
    timings = json.loads(out)["timings"]
    assert list(timings) == stages
    assert all(isinstance(t, float) and t >= 0.0 for t in timings.values())
    block = re.search(r'"timings": \{[^}]*\}', out)
    masked = re.sub(r'(": )[-+.\deE]+', r"\1T", block.group())
    return out[: block.start()] + masked + out[block.end() :]


def test_lower_output_is_byte_stable(tmp_path, capsys):
    # Everything but the measured stage times repeats byte for byte; the
    # serialize stage is timed only when the circuit is written out.
    src = tmp_path / "cs.txt"
    src.write_text(CS_TEXT)
    out_file = tmp_path / "lowered.txt"
    argv = ["lower", str(src), "--target", "HCCZ", "--json"]
    for extra, stages in (
        ([], ["parse", "lower", "verify"]),
        (["--out", str(out_file)], ["parse", "lower", "verify", "serialize"]),
    ):
        code, out, err = run_cli(argv + extra, capsys)
        written = out_file.read_text() if extra else ""
        again = run_cli(argv + extra, capsys)
        assert (code, mask_timings(out, stages), err) == (
            again[0], mask_timings(again[1], stages), again[2]
        )
        assert all(f'"{stage}": T' in mask_timings(out, stages) for stage in stages)
        if extra:
            assert out_file.read_text() == written


# --- synthesize ---

def test_synthesize_matrix_file_s_gate(tmp_path, capsys):
    f = tmp_path / "s.mat"
    f.write_text(format_matrix(np.diag([1.0, 1j])))
    code, payload, _ = run_json(["synthesize", "--m", "1", "--matrix", str(f)], capsys)
    assert code == 0
    assert payload["metrics"]["ccz_count"] == 2.0
    assert payload["metrics"]["distance"] <= 1e-12
    circuit = parse_circuit(payload["circuit"])
    assert circuit.num_qubits == 3


def test_synthesize_identity_matrix(tmp_path, capsys):
    f = tmp_path / "eye.mat"
    f.write_text(format_matrix(np.eye(2, dtype=complex)))
    code, payload, _ = run_json(["synthesize", "--m", "1", "--matrix", str(f)], capsys)
    assert code == 0
    assert payload["metrics"]["distance"] == 0.0
    assert payload["metrics"]["ccz_count"] == 0.0


def test_synthesize_seeded(capsys):
    code, payload, _ = run_json(["synthesize", "--m", "2", "--seed", "7"], capsys)
    assert code == 0
    assert payload["ok"] is True
    assert payload["metrics"]["distance"] <= 1e-8
    assert 0.0 <= payload["metrics"]["leakage"] <= 1e-8
    assert payload["metrics"]["total_qubits"] == 4.0
    assert set(payload["timings"]) == {"decompose", "lower", "verify"}
    assert all(t >= 0.0 for t in payload["timings"].values())
    assert payload["method"] == "dense_columns"


def test_synthesize_json_reports_ccz_per_rule(capsys):
    # The lowered circuit's count report, as `lower --json` gives it: a Haar
    # target fires the CZ and RZ rules, at 1 and 2 CCZ per instance.
    code, payload, _ = run_json(["synthesize", "--m", "3", "--seed", "7"], capsys)
    assert code == 0
    report = payload["report"]
    assert report["ccz_per_other_rule"]["CZ"] == 1.0
    assert report["ccz_per_other_rule"]["RZ"] == 2.0
    assert report["counts"]["CCZ"] == payload["metrics"]["ccz_count"] == 69.0
    assert report["catalyst"] is True and report["ancilla"] == 1


def test_synthesize_text_mode_prints_circuit(capsys):
    code, out, _ = run_cli(["synthesize", "--m", "1", "--seed", "3"], capsys)
    assert code == 0
    body, _, tail = out.partition("distance:")
    assert tail
    parse_circuit(body)


def test_synthesize_seed_and_matrix_conflict(tmp_path, capsys):
    f = tmp_path / "eye.mat"
    f.write_text(format_matrix(np.eye(2, dtype=complex)))
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "--m", "1", "--seed", "1", "--matrix", str(f)])
    assert exc.value.code == 2
    capsys.readouterr()


def test_synthesize_requires_a_source(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "--m", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_synthesize_non_unitary_matrix(tmp_path, capsys):
    f = tmp_path / "bad.mat"
    f.write_text("dim 2\n1,0 0,0\n0,0 2,0\n")
    code, payload, _ = run_json(["synthesize", "--m", "1", "--matrix", str(f)], capsys)
    assert code == 1
    assert "not unitary" in payload["error"]


@pytest.mark.parametrize("entry", ["inf,0", "nan,0", "0,-inf"])
def test_synthesize_non_finite_matrix(tmp_path, capsys, entry):
    f = tmp_path / "bad.mat"
    f.write_text(f"dim 2\n1,0 0,0\n0,0 {entry}\n")
    code, out, _ = run_cli(["synthesize", "--m", "1", "--matrix", str(f), "--json"], capsys)
    assert code == 1
    payload = json.loads(out, parse_constant=pytest.fail)  # strict JSON: no NaN token
    assert payload["ok"] is False
    assert "non-finite" in payload["error"]


def test_synthesize_nan_residual_is_not_ok(monkeypatch, capsys):
    real = cli.synthesize
    monkeypatch.setattr(
        cli, "synthesize", lambda u: dataclasses.replace(real(u), leakage=math.nan)
    )
    code, payload, _ = run_json(["synthesize", "--m", "1", "--seed", "3"], capsys)
    assert code == 1
    assert payload["ok"] is False


def test_synthesize_ok_is_the_library_verdict(monkeypatch, capsys):
    # One definition of the bound: a passing target is ok in both, and a
    # distance of 5e-9, past lowering.VERIFY_TOL, is ok in neither.
    result = synthesize(haar_su(4, 7))
    code, payload, _ = run_json(["synthesize", "--m", "2", "--seed", "7"], capsys)
    assert code == 0 and payload["ok"] is True is result.ok
    assert payload["metrics"]["distance"] == result.distance
    tilted = dataclasses.replace(result, distance=5e-9)
    monkeypatch.setattr(cli, "synthesize", lambda u: tilted)
    code, payload, _ = run_json(["synthesize", "--m", "2", "--seed", "7"], capsys)
    assert code == 1 and payload["ok"] is False is tilted.ok


def test_synthesize_dimension_mismatch(tmp_path, capsys):
    f = tmp_path / "s.mat"
    f.write_text(format_matrix(np.diag([1.0, 1j])))
    code, payload, _ = run_json(["synthesize", "--m", "2", "--matrix", str(f)], capsys)
    assert code == 1
    assert "needs 4" in payload["error"]


# --- check-prep ---

def test_check_prep_x_shortcut(tmp_path, capsys):
    src = tmp_path / "prep.txt"
    src.write_text("qubits 1\nX 0\n")
    code, payload, _ = run_json(["check-prep", str(src), "--target-qubit", "0"], capsys)
    assert code == 0
    metrics = payload["metrics"]
    assert metrics["passes"] == 1.0
    assert metrics["gate_set_ok"] == 0.0
    assert metrics["ccz_count"] == 0.0
    assert metrics["s_total_ccz"] == 2.0
    assert metrics["max_error"] <= 1e-12


def test_check_prep_empty_circuit_fails(tmp_path, capsys):
    src = tmp_path / "empty.txt"
    src.write_text("qubits 1\n")
    code, payload, _ = run_json(["check-prep", str(src), "--target-qubit", "0"], capsys)
    assert code == 1
    assert payload["metrics"]["passes"] == 0.0


def test_check_prep_too_wide_fails_before_allocating(tmp_path, capsys, refuse_big_arrays):
    src = tmp_path / "wide.txt"
    src.write_text("qubits 13\nX 0\n")
    code, payload, _ = run_json(["check-prep", str(src), "--target-qubit", "0"], capsys)
    assert code == 1
    assert payload["ok"] is False
    assert "capped at 12 qubits, got 13" in payload["error"]


def test_check_prep_bad_target_qubit(tmp_path, capsys):
    src = tmp_path / "prep.txt"
    src.write_text("qubits 1\nX 0\n")
    code, payload, _ = run_json(["check-prep", str(src), "--target-qubit", "5"], capsys)
    assert code == 1
    assert "out of range" in payload["error"]


# --- counts ---

def test_counts_cs_gadget_memberships(tmp_path, capsys):
    src = tmp_path / "gadget.txt"
    src.write_text(CS_GADGET_TEXT)
    code, payload, _ = run_json(["counts", str(src)], capsys)
    assert code == 0
    metrics = payload["metrics"]
    assert metrics["num_qubits"] == 3.0
    assert metrics["total_gates"] == 4.0
    assert metrics["member_hccz"] == 1.0
    assert metrics["member_hcs"] == 0.0
    assert metrics["member_real_o2_ccz"] == 1.0
    assert payload["counts"]["H"] == 2
    assert payload["counts"]["CCZ"] == 2
    assert payload["counts"]["Y"] == 0


def test_counts_empty_circuit(tmp_path, capsys):
    src = tmp_path / "empty.txt"
    src.write_text("qubits 2\n")
    code, payload, _ = run_json(["counts", str(src)], capsys)
    assert code == 0
    assert payload["metrics"]["total_gates"] == 0.0
    assert all(n == 0 for n in payload["counts"].values())


# --- simulate ---

def test_simulate_cs_gadget_action(tmp_path, capsys):
    src = tmp_path / "gadget.txt"
    src.write_text(CS_GADGET_TEXT)
    code, payload, _ = run_json(["simulate", str(src), "--input", "+i,1,1"], capsys)
    assert code == 0
    assert payload["metrics"]["norm"] == pytest.approx(1.0, abs=1e-12)
    amp = {entry["basis"]: (entry["re"], entry["im"]) for entry in payload["amplitudes"]}
    assert set(amp) == {"011", "111"}
    root_half = math.sqrt(0.5)
    assert amp["011"] == pytest.approx((0.0, root_half), abs=1e-12)
    assert amp["111"] == pytest.approx((-root_half, 0.0), abs=1e-12)


def test_simulate_defaults_to_all_zeros(tmp_path, capsys):
    src = tmp_path / "h.txt"
    src.write_text("qubits 1\nH 0\n")
    code, payload, _ = run_json(["simulate", str(src)], capsys)
    assert code == 0
    amp = {entry["basis"]: entry["re"] for entry in payload["amplitudes"]}
    root_half = math.sqrt(0.5)
    assert amp["0"] == pytest.approx(root_half, abs=1e-12)
    assert amp["1"] == pytest.approx(root_half, abs=1e-12)


def test_simulate_cutoff_hides_amplitudes(tmp_path, capsys):
    src = tmp_path / "h.txt"
    src.write_text("qubits 1\nH 0\n")
    code, payload, _ = run_json(["simulate", str(src), "--cutoff", "0.9"], capsys)
    assert code == 0
    assert payload["metrics"]["shown"] == 0.0
    assert payload["amplitudes"] == []


def test_simulate_token_count_mismatch(tmp_path, capsys):
    src = tmp_path / "h.txt"
    src.write_text("qubits 1\nH 0\n")
    code, payload, _ = run_json(["simulate", str(src), "--input", "0,1"], capsys)
    assert code == 1
    assert "2 tokens" in payload["error"]


def test_simulate_unknown_token(tmp_path, capsys):
    src = tmp_path / "h.txt"
    src.write_text("qubits 1\nH 0\n")
    code, payload, _ = run_json(["simulate", str(src), "--input", "q"], capsys)
    assert code == 1
    assert "state token" in payload["error"]


def test_simulate_too_wide_fails_before_allocating(tmp_path, capsys, refuse_big_arrays):
    src = tmp_path / "wide.txt"
    # The second width does not even fit a list index.
    for width in (30, 99999999999999999999):
        src.write_text(f"qubits {width}\nH 0\n")
        code, payload, _ = run_json(["simulate", str(src)], capsys)
        assert code == 1
        assert payload["ok"] is False
        assert f"capped at 24 qubits, got {width}" in payload["error"]


def test_memory_error_becomes_json_failure(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("cannot allocate the state")

    monkeypatch.setattr("catalyq.cli.run", out_of_memory)
    src = tmp_path / "h.txt"
    src.write_text("qubits 1\nH 0\n")
    code, payload, _ = run_json(["simulate", str(src)], capsys)
    assert code == 1
    assert payload["ok"] is False
    assert payload["error"] == "cannot allocate the state"


def test_simulate_text_mode_lists_kets(tmp_path, capsys):
    src = tmp_path / "h.txt"
    src.write_text("qubits 1\nH 0\n")
    code, out, _ = run_cli(["simulate", str(src)], capsys)
    assert code == 0
    assert "|0>" in out and "|1>" in out
    assert "ok: true" in out


# --- process setup ---

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_import_pins_blas_threads_unless_set(preset, expected):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    if preset is not None:
        env.update(dict.fromkeys(BLAS_VARS, preset))
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    probe = f"import os, catalyq; print([os.environ[v] for v in {BLAS_VARS!r}])"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == repr([expected] * 3)


def test_import_leaves_scipy_linalg_to_synthesis():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    probe = (
        "import sys, catalyq\n"
        "print('scipy.linalg' in sys.modules)\n"
        "catalyq.decompose_su2m(catalyq.haar_su(4, 0))\n"
        "print('scipy.linalg' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["False", "True"]
