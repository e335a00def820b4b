"""End-to-end tests of the command-line interface and report format."""

import dataclasses
import json
import random
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml

from heisim import acceptance, linalg, network, oracle, relative, runner
from heisim.circuit import load_circuit, parse_circuit
from heisim.cli import main
from heisim.errors import PreconditionFailed

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
# built against, and stored as the exact signs of its eigenvalues.
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


# Per tolerance: a shipped circuit, a --tol value and the exit status it
# gives. Each changes the default run's exit status, or at exit 0 its answers.
TOLERANCE_EFFECTS = {
    "general": ("measurement", "1e-20", 2),
    "entangle": ("measurement", "10", 0),
    "commute": ("branch_queries", "0", 2),
    "weight": ("measurement", "0.6", 3),
    "oracle": ("branch_queries", "0", 2),
    "sharp": ("branch_queries", "10", 3),
    "unitary": ("measurement", "0", 2),
}


# H(1), CNOT(1, 2), RZ(2, 0.9): RZ on half of a Bell pair, a phase no local
# expectation reads, and <q_2x> framed on an x record of qubit 1.
HIDDEN_PHASE = """\
format_version: 1
qubits: 2
gates:
  - {step: 0, kind: H, operands: [1]}
  - {step: 1, kind: CNOT, operands: [1, 2]}
  - {step: 2, kind: RZ, operands: [2], params: [0.9]}
records:
  - {step: 3, qubit: 1, component: x}
queries:
  - {kind: expectation, qubit: 2, component: x,
     frame: {qubit: 1, component: x, step: 3, label: 1}}
"""


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def report_mismatches(want, got, where="report", tol=1e-12) -> list[str]:
    """Where ``got`` differs from ``want``: floats may differ by ``tol``
    absolute, everything else (keys, lengths, types, values) must be equal."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [m for key in want
                for m in report_mismatches(want[key], got[key],
                                           f"{where}.{key}", tol)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [m for i, (w, g) in enumerate(zip(want, got))
                for m in report_mismatches(w, g, f"{where}[{i}]", tol)]
    if isinstance(want, float):
        ok = isinstance(got, float) and (got == want or abs(got - want) <= tol)
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
        assert residuals["algebra"] <= min(tol["general"], tol["commute"])
        per_step = residuals["oracle_per_step"]
        assert len(per_step) == len(want_residuals["oracle_per_step"])
        for residual in [residuals["oracle_max"], *per_step]:
            assert residual <= tol["oracle"]


# Fields of a gate, record or query that hold one qubit, or a list of them.
QUBIT_FIELDS = {"qubit"}
QUBIT_LIST_FIELDS = {"operands", "qubits", "register", "reference"}


def relabel(node, perm):
    """A gate, record or query (or a list of them) with every qubit q renamed
    perm[q]: nested frames, records and autonomy gates included."""
    if isinstance(node, list):
        return [relabel(entry, perm) for entry in node]
    if not isinstance(node, dict):
        return node
    out = {}
    for key, value in node.items():
        if key in QUBIT_FIELDS:
            out[key] = perm[value]
        elif key in QUBIT_LIST_FIELDS:
            out[key] = [perm[q] for q in value]
        else:
            out[key] = relabel(value, perm)
    return out


def renamed_answer(answer, perm):
    """A query's answer as the relabelled run should give it: the same, with
    a foliation's relative expectations keyed by the new qubit names."""
    if answer["kind"] != "foliate":
        return answer
    return {**answer, "relative_expectations": {
        str(perm[int(q)]): value
        for q, value in answer["relative_expectations"].items()}}


@pytest.mark.parametrize("circuit", sorted(CIRCUITS.glob("*.yaml")),
                         ids=lambda path: path.stem)
def test_qubit_relabelling_keeps_every_answer(circuit):
    """Renaming the qubits renames the answers and changes nothing else, to
    1e-9. This catches a read of the wrong qubit, which both pictures would
    make alike, so that no cross-check between them could see it."""
    doc = yaml.safe_load(circuit.read_text(encoding="utf-8"))
    n = doc["qubits"]
    want = runner.execute(parse_circuit(yaml.safe_dump(doc)))["queries"]
    rng = np.random.default_rng(sum(map(ord, circuit.stem)))
    identity = np.arange(1, n + 1)
    perms = []
    while len(perms) < 3:  # three that move some qubit
        order = rng.permutation(n) + 1
        if np.any(order != identity):
            perms.append(dict(zip(identity.tolist(), order.tolist())))
    for perm in perms:
        moved = {**doc, **{key: relabel(doc[key], perm)
                           for key in ("gates", "records", "queries")
                           if key in doc}}
        got = runner.execute(parse_circuit(yaml.safe_dump(moved)))["queries"]
        want_moved = [renamed_answer(answer, perm) for answer in want]
        assert report_mismatches(want_moved, got, "queries", 1e-9) == [], perm


def test_each_record_is_checked_once_per_run(capsys, monkeypatch):
    """Every record and register of branch_queries.yaml is read at the final
    step, which the run certifies before its queries: one certificate. It
    bounds each record's involution defect and each commutator whose block
    commutator is 0, and the registers are read from |phi|^2: no eigh. The
    violated snapshot of each autonomy query with a CNOT, the CNOT's target
    record, reads U_T† [g, sigma] U_T from the operands' block: no dense
    commutator norm and no gate unitary U_T† g U_T."""
    path = CIRCUITS / "branch_queries.yaml"
    doc = load_circuit(path)
    final = len(doc.gates)
    distinct = set()
    for query in doc.queries:
        for ref in (query.get("frame"), query.get("record"),
                    *query.get("records", ())):
            if ref is not None:
                distinct.add((ref["step"], ref["qubit"], ref["component"]))
        for q in [*query.get("register", ()), *query.get("reference", ())]:
            distinct.add((final, q, "z"))
    cnots = sum(query["kind"] == "autonomy" and query["gate"].kind == "CNOT"
                for query in doc.queries)
    counts = {"certificate": 0, "commutator_norm": 0, "eigh": 0,
              "build_gate_unitary": 0}
    certificate = network.algebra_certificate

    def counted_certificate(state):
        counts["certificate"] += "certificate" not in state._cache
        return certificate(state)

    def counted(module, name):
        inner = getattr(module, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    monkeypatch.setattr(network, "algebra_certificate", counted_certificate)
    counted(linalg, "commutator_norm")
    counted(np.linalg, "eigh")
    counted(network, "build_gate_unitary")
    status, _, err = run_cli(capsys, "run", str(path))
    assert status == 0, err
    assert {step for step, _, _ in distinct} == {final}
    assert len(distinct) == 8 and cnots == 8
    assert counts == {"certificate": 1, "commutator_norm": 0,
                      "eigh": 0, "build_gate_unitary": 0}


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
        # 1.0 after the Hadamard, whatever the roundoff. Its steps apply
        # each gate's parts, here those of the identity for every gate.
        def identity_parts(gates, z):
            shape = (len(gates), z.shape[1])
            return (np.ones(shape, complex), np.zeros(shape, complex),
                    np.zeros(len(gates), int))
        monkeypatch.setattr(oracle, "_parts", identity_parts)
        status, _, err = run_cli(capsys, "run",
                                 str(CIRCUITS / "measurement.yaml"))
        assert status == 2
        assert "error:" in err

    def test_a_locally_hidden_phase_error_is_2(self, capsys, tmp_path,
                                               monkeypatch):
        # A network whose RZ turns by 2 theta / 3 leaves every <sigma_ac>
        # of this Bell pair as it was, but not its state: the run stops on
        # its oracle residual instead of answering <q_2x> framed on q_1x = 1
        # as 0.825 for cos 0.9.
        path = tmp_path / "hidden.yaml"
        path.write_text(HIDDEN_PHASE, encoding="utf-8")
        status, out, err = run_cli(capsys, "run", str(path))
        assert status == 0, err
        assert json.loads(out)["queries"][0]["value"] == pytest.approx(
            np.cos(0.9), abs=1e-12)
        local = network.local_matrix

        def short_rz(gate):
            if gate.kind == "RZ":
                (theta,) = gate.params
                return local(network.Gate.rz(gate.operands[0], 2 * theta / 3))
            return local(gate)

        monkeypatch.setattr(network, "local_matrix", short_rz)
        status, out, err = run_cli(capsys, "run", str(path))
        assert status == 2 and out == ""
        assert "oracle residual" in err

    def test_certificate_above_the_record_bound_is_2(self, capsys):
        # mid_records' certificate, 2.02e-14, is above min(general, commute)
        # at general=1e-14, so its record checks cannot read it: the run
        # stops before its queries.
        status, out, err = run_cli(capsys, "run",
                                   str(CIRCUITS / "mid_records.yaml"),
                                   "--tol", "general=1e-14")
        assert status == 2 and out == ""
        assert "algebra residual" in err

    def test_nan_residual_fails_its_bound(self, capsys, monkeypatch):
        monkeypatch.setattr(network, "algebra_certificate",
                            lambda *args, **kwargs: float("nan"))
        status, _, err = run_cli(capsys, "run",
                                 str(CIRCUITS / "measurement.yaml"))
        assert status == 2
        assert "algebra residual nan" in err

    def test_run_never_takes_the_dense_algebra_residual(self, capsys,
                                                        monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("dense algebra residual called")

        monkeypatch.setattr(network, "algebra_residual", dense)
        status, _, err = run_cli(capsys, "run",
                                 str(CIRCUITS / "measurement.yaml"))
        assert status == 0, err

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
        measurement = str(CIRCUITS / "measurement.yaml")
        for command in ("validate", "run"):
            status, _, err = run_cli(capsys, command, measurement)
            assert status == 0, (command, err)
        status, out, err = run_cli(capsys, "run", measurement,
                                   "--tol", "unitary=1e-16")
        assert status == 2
        assert out == ""
        # The oracle names the gate: its step, kind and operands. H's
        # 1/sqrt(2) rounds to a defect of one ulp of 1.
        assert err == ("error: step 0: H on (1): unitarity defect "
                       "2.220e-16 > 1.000e-16\n")
        # A nearly unitary F is valid, and stored exact: no bound of the
        # run sees its defect.
        path = tmp_path / "nearly_unitary_f.yaml"
        path.write_text(NEARLY_UNITARY_F, encoding="utf-8")
        for args in (("validate",), ("run",), ("run", "--tol", "unitary=0")):
            status, _, err = run_cli(capsys, *args, str(path))
            assert status == 0, (args, err)

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

    def test_selftest_prints_each_criterion_as_it_finishes(self, capsys,
                                                            monkeypatch):
        """An error in one criterion keeps the lines of those before it,
        and exits with the error's status; the criteria after it do not
        run."""
        ran = []

        def criterion(name, passed):
            def check(seed):
                ran.append(name)
                return {"name": name, "passed": passed,
                        "detail": f"seed {seed}"}
            return check

        def raises(seed):
            raise PreconditionFailed("register M is sharp")
        monkeypatch.setattr(acceptance, "CRITERIA", (
            criterion("first", True), criterion("second", False), raises,
            criterion("after", True)))
        status, out, err = run_cli(capsys, "selftest", "--seed", "3")
        assert status == PreconditionFailed.exit_status == 3
        assert out == "PASS first: seed 3\nFAIL second: seed 3\n"
        assert err == "error: register M is sharp\n"
        assert ran == ["first", "second"]

    @pytest.mark.parametrize("name", ["bogus", "hermitian", "norm",
                                      "eigengap"])
    def test_bad_tol_name_is_1(self, capsys, name):
        status, out, err = run_cli(capsys, "run",
                                   str(CIRCUITS / "measurement.yaml"),
                                   "--tol", f"{name}=1")
        assert status == 1
        assert out == ""
        accepted = sorted(f.name for f in dataclasses.fields(linalg.Tolerances))
        assert str(accepted) in err

    @pytest.mark.parametrize("name", sorted(TOLERANCE_EFFECTS))
    def test_every_tolerance_can_change_a_run(self, capsys, name):
        stem, value, want = TOLERANCE_EFFECTS[name]
        circuit = str(CIRCUITS / f"{stem}.yaml")
        status, out, err = run_cli(capsys, "run", circuit,
                                   "--tol", f"{name}={value}")
        assert status == want, err
        if want == 0:
            _, default, _ = run_cli(capsys, "run", circuit)
            assert (json.loads(out)["queries"]
                    != json.loads(default)["queries"])

    def test_tolerance_effects_name_every_tolerance(self):
        # A tolerance that no longer controls anything fails here, not
        # silently in every report's echo.
        fields = {f.name for f in dataclasses.fields(linalg.Tolerances)}
        assert set(TOLERANCE_EFFECTS) == fields

    @pytest.mark.parametrize("stem", ["branch_queries", "classical_registers",
                                      "limit_n10", "mid_records"])
    def test_residual_bounds_come_before_the_queries(self, capsys,
                                                     monkeypatch, stem):
        # A network that skips the gate of step 3, keeping U_3 at t = 4,
        # disagrees with the oracle. The run names that residual, not a query
        # precondition that the wrong state breaks (a zero-weight branch).
        apply_gate = network.apply_gate

        def skip_step_3(state, gate):
            if state.t != 3:
                return apply_gate(state, gate)
            return network.NetworkState(state.n, 4, state.u, state.tol)

        monkeypatch.setattr(network, "apply_gate", skip_step_3)
        status, out, err = run_cli(capsys, "run",
                                   str(CIRCUITS / f"{stem}.yaml"))
        assert status == 2, err
        assert out == ""
        assert "oracle residual" in err

    def test_no_queries_still_reports(self, capsys, tmp_path):
        path = tmp_path / "noqueries.yaml"
        path.write_text(NO_QUERIES, encoding="utf-8")
        status, out, _ = run_cli(capsys, "run", str(path))
        assert status == 0
        report = json.loads(out)
        assert report["queries"] == []
        assert "residuals" in report


# Runs ``heisim run`` and prints its own peak RSS in KiB (Linux's unit) on
# stderr's last line. RUSAGE_CHILDREN in the test process would read the
# largest child it ever ran.
PEAK_RSS_WRAPPER = """
import resource, sys
from heisim.cli import main
from heisim.errors import PreconditionFailed
status = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(status)
"""


def deep_circuit(n, depth, record, seed=3):
    """A random circuit with one z record of qubit 1 at step ``record`` and
    the framed expectation that reads it at the final step."""
    rng = random.Random(seed)
    lines = ["format_version: 1", f"qubits: {n}", "gates:"]
    for step in range(depth):
        kind = rng.choice(["NOT", "H", "RZ", "CNOT", "CCNOT"])
        arity = {"NOT": 1, "H": 1, "RZ": 1, "CNOT": 2, "CCNOT": 3}[kind]
        operands = ", ".join(map(str, rng.sample(range(1, n + 1), arity)))
        params = (f", params: [{rng.uniform(0, 6):.6f}]" if kind == "RZ"
                  else "")
        lines.append(f"  - {{step: {step}, kind: {kind}, "
                     f"operands: [{operands}]{params}}}")
    lines += ["records:", f"  - {{step: {record}, qubit: 1, component: z}}",
              "queries:",
              "  - {kind: expectation, qubit: 2, component: z,",
              f"     frame: {{qubit: 1, component: z, step: {record}, "
              "label: 1}}"]
    return "\n".join(lines) + "\n"


def test_ten_qubits_at_depth_1000_run_within_200_mib(tmp_path):
    """A run keeps U only at its record step and at T, and each picture
    stacks (T+1) vectors of 2^n, not (T+1) 4^n matrices: the cross-check
    compares the two stacks a block of rows at a time."""
    path = tmp_path / "deep.yaml"
    path.write_text(deep_circuit(10, 1000, 500), encoding="utf-8")
    # -W error: a RuntimeWarning of the vectorised code at n=10 fails too.
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", PEAK_RSS_WRAPPER, "run",
         str(path)],
        capture_output=True, text=True, cwd=CIRCUITS.parent)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["qubits"] == 10 and report["steps"] == 1000
    assert report["queries"][0]["frame_weight"] > 0.1
    peak_mib = int(done.stderr.splitlines()[-1]) / 1024
    assert peak_mib < 200, f"peak RSS {peak_mib:.1f} MiB"


def test_oracle_at_ten_qubits_peaks_below_2_2_stacks():
    """The oracle's peak on ``deep_circuit(10, 1000, 500)``, in stacks of
    (T+1) state vectors, 16 (T+1) 2^n bytes: its states, and its gate
    parts, here 481 distinct gates' worth, a stack each."""
    gates = parse_circuit(deep_circuit(10, 1000, 500)).gates
    psi = network.init_network(10).phi
    tracemalloc.start()
    try:
        oracle.evolve(psi, gates, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stacks = peak / (16 * (len(gates) + 1) * 2 ** 10)
    assert stacks < 2.2, f"peak {stacks:.2f} stacks"


def test_a_record_before_the_final_step_reads_no_matrix(capsys, tmp_path,
                                                        monkeypatch):
    """The framed expectation of ``deep_circuit`` reads its record of step
    20 as the ket U_T U_20† sigma phi_20, after the certificate of U_20: no
    descriptor matrix and no eigh."""
    path = tmp_path / "deep.yaml"
    path.write_text(deep_circuit(4, 40, 20), encoding="utf-8")
    counts = {"component": 0, "eigh": 0}

    def counted(owner, name):
        inner = getattr(owner, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, call)

    counted(network.NetworkState, "component")
    counted(np.linalg, "eigh")
    status, out, err = run_cli(capsys, "run", str(path))
    assert status == 0, err
    assert json.loads(out)["queries"][0]["kind"] == "expectation"
    assert counts == {"component": 0, "eigh": 0}


def test_the_initial_state_is_freed_before_the_cross_check(monkeypatch):
    """With no record at step 0, nothing holds the initial state and its
    U_0 past the run: the oracle starts from the timeline's phi_0."""
    circuit = load_circuit(CIRCUITS / "mid_records.yaml")
    assert 0 not in {r.step for r in circuit.records}
    init, check = network.init_network, oracle.cross_validate
    initial, alive = [], []

    def tracked_init(*args, **kwargs):
        state = init(*args, **kwargs)
        initial.append(weakref.ref(state))
        return state

    def tracked_check(*args, **kwargs):
        alive.append(initial[0]() is not None)
        return check(*args, **kwargs)

    monkeypatch.setattr(network, "init_network", tracked_init)
    monkeypatch.setattr(oracle, "cross_validate", tracked_check)
    runner.execute(circuit)
    assert len(initial) == 1 and alive == [False]
