"""End-to-end tests of the command-line interface and report format."""

import dataclasses
import json
from pathlib import Path

import pytest

from heisim import linalg, network, oracle, relative
from heisim.cli import main

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"
# Reference reports of circuits/*.yaml, one <stem>.json each.
REFERENCE_REPORTS = Path(__file__).resolve().parent / "data"

UNENTANGLED_FOLIATION = """
format_version: 1
qubits: 2
records:
  - {step: 0, qubit: 1, component: z}
queries:
  - {kind: foliate, qubits: [1], record: {qubit: 1, component: z, step: 0}}
"""

# q_1z is recorded at step 2, after the measurement; the H at step 2 then
# swaps q_1x and q_1z. Queries must read the record, not the final q_1z.
EARLY_RECORD = """
format_version: 1
qubits: 2
gates:
  - {step: 0, kind: H, operands: [1]}
  - {step: 1, kind: CNOT, operands: [1, 2]}
  - {step: 2, kind: H, operands: [1]}
records:
  - {step: 2, qubit: 1, component: z}
  - {step: 3, qubit: 1, component: z}
queries:
  - {kind: expectation, qubit: 2, component: z,
     frame: {qubit: 1, component: z, step: 2, label: -1}}
  - {kind: foliate, qubits: [2], record: {qubit: 1, component: z, step: 2}}
  - {kind: autonomy, gate: {kind: CNOT, operands: [1, 2]},
     records: [{qubit: 1, component: z, step: 2}]}
  - {kind: autonomy, gate: {kind: CNOT, operands: [1, 2]},
     records: [{qubit: 1, component: z, step: 3}]}
"""

NO_QUERIES = """
format_version: 1
qubits: 2
gates:
  - {step: 0, kind: H, operands: [1]}
  - {step: 1, kind: CNOT, operands: [1, 2]}
"""


# Measure qubit 1 onto qubit 2 and foliate qubit 2 by the record.
FOLIATION = """
format_version: 1
qubits: 2
gates:
  - {step: 0, kind: H, operands: [1]}
  - {step: 1, kind: CNOT, operands: [1, 2]}
records:
  - {step: 2, qubit: 1, component: z}
queries:
  - {kind: foliate, qubits: [2], record: {qubit: 1, component: z, step: 2}}
"""

# The second query's gate names qubit 3 of 2.
BAD_AUTONOMY_GATE = """
format_version: 1
qubits: 2
records:
  - {step: 0, qubit: 1, component: z}
queries:
  - {kind: expectation, qubit: 1, component: z}
  - {kind: autonomy, gate: {kind: CNOT, operands: [1, 3]},
     records: [{qubit: 1, component: z, step: 0}]}
"""


NON_FINITE_GATES = {
    "rz-nan": "{step: 0, kind: RZ, operands: [1], params: [.nan]}",
    "rz-inf": "{step: 0, kind: RZ, operands: [1], params: [.inf]}",
    "f-nan": "{step: 0, kind: F, operands: [1, 2], params: [.nan, 0, 0, 0]}",
    # 10**400 is an integer YAML reads exactly, and no float holds it.
    "rz-huge-int": ("{step: 0, kind: RZ, operands: [1], params: [1"
                    + "0" * 400 + "]}"),
}
# An F gate with unitarity defect 1e-12: inside the fixed bound a Gate is
# built against, outside a run's --tol unitary=1e-13.
NEARLY_UNITARY_F = """
format_version: 1
qubits: 2
gates:
  - {step: 0, kind: F, operands: [1, 2], params: [1.000000000001, 0, 0, 0]}
"""

# Documents that both validate and run must reject with exit status 1.
INVALID_DOCUMENTS = {
    "too-many-qubits": "qubits: 40\n",
    "repeated-register-qubit": """qubits: 2
queries:
  - {kind: classical, register: [1, 1], reference: [2]}
""",
    "repeated-reference-qubit": """qubits: 3
queries:
  - {kind: classical, register: [1], reference: [2, 3, 2]}
""",
    "autonomy-gate-not-a-mapping": """qubits: 2
records:
  - {step: 0, qubit: 1, component: z}
queries:
  - {kind: autonomy, gate: 5, records: [{qubit: 1, component: z, step: 0}]}
""",
    # YAML reads true as a boolean, which Python counts as the integer 1.
    "boolean-entanglement-qubit": """qubits: 2
queries:
  - {kind: entanglement, qubits: [true, 2]}
""",
    "boolean-foliate-qubit": """qubits: 2
records:
  - {step: 0, qubit: 1, component: z}
queries:
  - {kind: foliate, qubits: [true], record: {qubit: 1, component: z, step: 0}}
""",
    "boolean-register-qubit": """qubits: 2
queries:
  - {kind: classical, register: [true], reference: [2]}
""",
}

# One gate of every kind on a 3-qubit document.
ONE_GATE = {
    "I": "{step: 0, kind: I}",
    "NOT": "{step: 0, kind: NOT, operands: [2]}",
    "H": "{step: 0, kind: H, operands: [3]}",
    "CNOT": "{step: 0, kind: CNOT, operands: [3, 1]}",
    "RZ": "{step: 0, kind: RZ, operands: [1], params: [0.7]}",
    "F": "{step: 0, kind: F, operands: [2, 3], params: [0.5, 0.5, 0.5, -0.5]}",
    "CCNOT": "{step: 0, kind: CCNOT, operands: [3, 1, 2]}",
}


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def report_mismatches(want, got, where="report") -> list[str]:
    """Where ``got`` differs from ``want``: floats may differ by 1e-12
    absolute, everything else (keys, lengths, types, values) must be equal."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [m for key in want
                for m in report_mismatches(want[key], got[key], f"{where}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [m for i, (w, g) in enumerate(zip(want, got))
                for m in report_mismatches(w, g, f"{where}[{i}]")]
    if isinstance(want, float):
        ok = isinstance(got, float) and (got == want or abs(got - want) <= 1e-12)
    else:
        ok = type(got) is type(want) and got == want
    return [] if ok else [f"{where}: {got!r} != {want!r}"]


class TestValidate:
    def test_shipped_circuits(self, capsys):
        for name in ("measurement.yaml", "classical_registers.yaml"):
            status, out, _ = run_cli(capsys, "validate", str(CIRCUITS / name))
            assert status == 0
            assert out.strip() == "ok"

    def test_broken_file(self, capsys, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("qubits: [unclosed", encoding="utf-8")
        status, _, err = run_cli(capsys, "validate", str(path))
        assert status == 1
        assert "error:" in err

    def test_autonomy_gate_error_names_its_query(self, capsys, tmp_path):
        path = tmp_path / "autonomy.yaml"
        path.write_text(BAD_AUTONOMY_GATE, encoding="utf-8")
        status, _, err = run_cli(capsys, "validate", str(path))
        assert status == 1
        assert "error: queries[1].gate: operand 3 out of range 1..2" in err

    def test_missing_file(self, capsys, tmp_path):
        status, _, _ = run_cli(capsys, "validate", str(tmp_path / "nope.yaml"))
        assert status == 1


class TestRunMeasurement:
    def report(self, capsys, *extra):
        status, out, err = run_cli(
            capsys, "run", str(CIRCUITS / "measurement.yaml"), *extra)
        assert status == 0, err
        return json.loads(out)

    def test_query_values(self, capsys):
        report = self.report(capsys)
        queries = report["queries"]
        assert queries[0]["value"] == pytest.approx(0.0, abs=1e-10)
        assert queries[1]["value"] == pytest.approx(1.0, abs=1e-10)
        assert queries[1]["frame_weight"] == pytest.approx(0.5, abs=1e-10)
        assert queries[2]["value"] == pytest.approx(-1.0, abs=1e-10)
        assert queries[3]["sharp"] is False
        assert queries[4]["entangled"] is True
        assert queries[4]["discrepancy"] == pytest.approx(1.0, abs=1e-9)
        for foliation in (queries[5], queries[6]):
            assert foliation["valid"] is True
            weights = [f["weight"] for f in foliation["frames"]]
            assert weights == pytest.approx([0.5, 0.5], abs=1e-10)
        assert queries[7]["classification"] == "DESTROYING"

    def test_report_structure(self, capsys):
        report = self.report(capsys)
        assert report["qubits"] == 2
        assert report["steps"] == 2
        assert len(report["queries"]) == 8
        assert report["residuals"]["algebra"] <= 1e-8
        assert report["residuals"]["oracle_max"] <= 1e-9
        assert len(report["residuals"]["oracle_per_step"]) == 3
        assert "tolerances" in report

    def test_determinism(self, capsys):
        status1, out1, _ = run_cli(capsys, "run",
                                   str(CIRCUITS / "measurement.yaml"))
        status2, out2, _ = run_cli(capsys, "run",
                                   str(CIRCUITS / "measurement.yaml"))
        assert status1 == status2 == 0
        assert out1 == out2

    def test_summary_mode(self, capsys):
        status, out, _ = run_cli(capsys, "run",
                                 str(CIRCUITS / "measurement.yaml"),
                                 "--summary")
        assert status == 0
        assert out.startswith("heisim report")
        assert "queries:" in out

    def test_tol_override_echoed(self, capsys):
        report = self.report(capsys, "--tol", "sharp=1e-6")
        assert report["tolerances"]["sharp"] == pytest.approx(1e-6)


class TestRunRegisters:
    def test_branch_table(self, capsys):
        status, out, err = run_cli(
            capsys, "run", str(CIRCUITS / "classical_registers.yaml"))
        assert status == 0, err
        report = json.loads(out)
        classical = report["queries"][0]
        table = {round(b["label"]): b["value"] for b in classical["branches"]}
        assert table == {j: (j + 1) % 4 for j in range(4)}
        for b in classical["branches"]:
            assert b["weight"] == pytest.approx(0.25, abs=1e-10)
        assert report["queries"][1]["entangled"] is True


class TestRecords:
    def test_record_is_read_at_its_step(self, capsys, tmp_path):
        path = tmp_path / "early.yaml"
        path.write_text(EARLY_RECORD, encoding="utf-8")
        status, out, err = run_cli(capsys, "run", str(path))
        assert status == 0, err
        expectation, foliation, at_2, at_3 = json.loads(out)["queries"]
        assert expectation["value"] == pytest.approx(-1.0, abs=1e-10)
        assert expectation["frame_weight"] == pytest.approx(0.5, abs=1e-10)
        assert foliation["relative_expectations"]["2"]["-1"] == pytest.approx(
            [0.0, 0.0, -1.0], abs=1e-10)
        # The CNOT is controlled by the final q_1z, which commutes with it;
        # the step-2 record of q_1z is now q_1x, which the CNOT flips.
        assert at_2["classification"] == "DESTROYING"
        assert at_3["classification"] == "PRESERVING"


class TestReferenceReports:
    """A refactor keeps the reports of the shipped circuits: every query
    answer as in tests/data, and every residual within its bound."""

    @pytest.mark.parametrize("circuit", sorted(CIRCUITS.glob("*.yaml")),
                             ids=lambda path: path.stem)
    def test_report_matches_reference(self, capsys, circuit):
        status, out, err = run_cli(capsys, "run", str(circuit))
        assert status == 0, err
        got = json.loads(out)
        want = json.loads((REFERENCE_REPORTS / f"{circuit.stem}.json")
                          .read_text(encoding="utf-8"))
        residuals, want_residuals = got.pop("residuals"), want.pop("residuals")
        assert report_mismatches(want, got) == []
        # The bounds execute() enforces.
        tol = got["tolerances"]
        assert sorted(residuals) == sorted(want_residuals)
        assert residuals["algebra"] <= 100 * tol["general"]
        per_step = residuals["oracle_per_step"]
        assert len(per_step) == len(want_residuals["oracle_per_step"])
        for residual in [residuals["oracle_max"], *per_step]:
            assert residual <= tol["oracle"]


@pytest.mark.parametrize("kind", network.GATE_KINDS)
def test_every_gate_kind_is_cross_checked(capsys, tmp_path, kind):
    # run parses the gate and checks the network against the oracle.
    path = tmp_path / f"{kind}.yaml"
    path.write_text("format_version: 1\nqubits: 3\ngates:\n  - "
                    + ONE_GATE[kind] + "\n", encoding="utf-8")
    status, out, err = run_cli(capsys, "run", str(path))
    assert status == 0, err
    assert json.loads(out)["steps"] == 1


class TestExitStatuses:
    def test_tolerance_violation_is_2(self, capsys, monkeypatch):
        # An oracle that ignores every gate disagrees with the network by
        # 1.0 after the Hadamard, whatever the roundoff.
        monkeypatch.setattr(oracle, "gate_matrix",
                            lambda gate, n: linalg.identity(2 ** n))
        status, _, err = run_cli(capsys, "run",
                                 str(CIRCUITS / "measurement.yaml"))
        assert status == 2
        assert "error:" in err

    def test_nan_residual_fails_its_bound(self, capsys, monkeypatch):
        monkeypatch.setattr(network, "algebra_residual",
                            lambda *args, **kwargs: float("nan"))
        status, _, err = run_cli(capsys, "run",
                                 str(CIRCUITS / "measurement.yaml"))
        assert status == 2
        assert "algebra residual nan" in err

    @pytest.mark.parametrize("name", sorted(NON_FINITE_GATES))
    def test_non_finite_gate_params_are_1(self, capsys, tmp_path, name):
        path = tmp_path / f"{name}.yaml"
        path.write_text("format_version: 1\nqubits: 2\ngates:\n  - "
                        + NON_FINITE_GATES[name] + "\n", encoding="utf-8")
        for command in ("validate", "run"):
            status, out, err = run_cli(capsys, command, str(path))
            assert status == 1, (command, out, err)
            assert "finite" in err

    def test_tol_unitary_bounds_the_oracle_not_the_document(self, capsys,
                                                              tmp_path):
        path = tmp_path / "nearly_unitary_f.yaml"
        path.write_text(NEARLY_UNITARY_F, encoding="utf-8")
        for command in ("validate", "run"):
            status, _, err = run_cli(capsys, command, str(path))
            assert status == 0, (command, err)
        status, out, err = run_cli(capsys, "run", str(path),
                                   "--tol", "unitary=1e-13")
        assert status == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("name", sorted(INVALID_DOCUMENTS))
    def test_validate_and_run_both_reject(self, capsys, tmp_path, name):
        path = tmp_path / f"{name}.yaml"
        path.write_text("format_version: 1\n" + INVALID_DOCUMENTS[name],
                        encoding="utf-8")
        for command in ("validate", "run"):
            status, out, err = run_cli(capsys, command, str(path))
            assert status == 1, (command, out, err)
            assert out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-9"])
    def test_bad_tol_value_is_1(self, capsys, value):
        status, out, err = run_cli(capsys, "run",
                                   str(CIRCUITS / "measurement.yaml"),
                                   "--tol", f"sharp={value}")
        assert status == 1
        assert out == ""
        assert "sharp" in err

    def test_physics_error_is_3(self, capsys, tmp_path):
        path = tmp_path / "unentangled.yaml"
        path.write_text(UNENTANGLED_FOLIATION, encoding="utf-8")
        status, _, err = run_cli(capsys, "run", str(path))
        assert status == 3
        assert "foliat" in err

    def test_nan_frame_weight_in_foliation_is_3(self, capsys, tmp_path,
                                                monkeypatch):
        # A foliation whose frames carry NaN weights must neither skip them
        # nor report their relative expectations.
        make_pvm = relative.make_pvm

        def nan_weights(*args, **kwargs):
            return tuple(dataclasses.replace(f, weight=float("nan"))
                         for f in make_pvm(*args, **kwargs))

        monkeypatch.setattr(relative, "make_pvm", nan_weights)
        path = tmp_path / "foliation.yaml"
        path.write_text(FOLIATION, encoding="utf-8")
        status, out, err = run_cli(capsys, "run", str(path))
        assert status == 3
        assert out == ""
        assert "weight nan" in err

    @pytest.mark.parametrize("seed", ["-1", "-2"])
    def test_negative_seed_is_1(self, capsys, seed):
        status, out, err = run_cli(capsys, "selftest", "--seed", seed)
        assert status == 1
        assert out == ""
        assert "--seed" in err

    def test_bad_tol_name_is_1(self, capsys):
        status, _, _ = run_cli(capsys, "run",
                               str(CIRCUITS / "measurement.yaml"),
                               "--tol", "bogus=1")
        assert status == 1

    def test_no_queries_still_reports(self, capsys, tmp_path):
        path = tmp_path / "noqueries.yaml"
        path.write_text(NO_QUERIES, encoding="utf-8")
        status, out, _ = run_cli(capsys, "run", str(path))
        assert status == 0
        report = json.loads(out)
        assert report["queries"] == []
        assert "residuals" in report
