"""Tests for circuit document parsing and validation."""

from pathlib import Path

import pytest
import yaml

from heisim import circuit as circuit_module
from heisim.circuit import load_circuit, parse_circuit
from heisim.errors import ParseError, ValidationError

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"

MINIMAL = """
format_version: 1
qubits: 2
gates:
  - {step: 0, kind: H, operands: [1]}
  - {step: 1, kind: CNOT, operands: [1, 2]}
records:
  - {step: 2, qubit: 1, component: z}
"""

# Block and flow style, anchors, quoting, comments and YAML 1.1 number forms.
YAML_FEATURES = """
%YAML 1.1
---
format_version: 0x1   # hex int
qubits: 3
gates:
  - step: 0
    kind: 'h'
    operands: &first [1]
  - {step: 1, kind: "CNOT", operands: [1, 2]}
  - {step: 2, kind: RZ, operands: *first, params: [2.5e+0]}
  - {step: 3, kind: F, operands: [2, 3], params: [0.5, .5, 0.5, -5.0e-1]}
  - {step: 4, kind: CCNOT, operands: [1, 2, 3]}
  - {step: 5, kind: RZ, operands: [3], params: [1_0]}
records:
  - &rec {step: 6, qubit: 1, component: z}
  - {step: 2, qubit: 2, component: "x"}
queries:
  - {kind: expectation, qubit: 2, component: z, frame: {<<: *rec, label: -1}}
  - {kind: sharpness, qubit: 3, component: x}
  - {kind: entanglement, qubits: [1, 2]}
  - {kind: foliate, qubits: [2, 3], record: *rec}
  - kind: autonomy
    gate: {kind: NOT, operands: [3]}
    records: [*rec, {step: 2, qubit: 2, component: x}]
  - {kind: classical, register: [1], reference: [2, 3]}
...
"""

# Documents whose CircuitFile must not depend on the YAML loader.
LOADER_DOCUMENTS = {
    **{path.stem: path.read_text(encoding="utf-8")
       for path in sorted(CIRCUITS.glob("*.yaml"))},
    "minimal": MINIMAL,
    "yaml-features": YAML_FEATURES,
}

# Malformed documents and the line each error names.
MALFORMED = [
    ("format_version: 1\nqubits: 2\ngates: b: c\n", 3),
    ("format_version: 1\nqubits: 2\n\tgates: []\n", 3),
    ("format_version: 1\nqubits: [2\nrecords: {]\n", 3),
]
UNCLOSED = "gates: [unclosed"

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader]
                               if hasattr(yaml, "CSafeLoader") else [])


class TestLoaders:
    def test_libyaml_when_available(self):
        assert circuit_module._LOADER is getattr(yaml, "CSafeLoader",
                                                 yaml.SafeLoader)

    @pytest.mark.parametrize("name", sorted(LOADER_DOCUMENTS))
    def test_same_circuit_under_each_loader(self, monkeypatch, name):
        parsed = []
        for loader in LOADERS:
            monkeypatch.setattr(circuit_module, "_LOADER", loader)
            parsed.append(parse_circuit(LOADER_DOCUMENTS[name]))
        assert parsed[0].gates
        assert all(p == parsed[0] for p in parsed[1:])

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda l: l.__name__)
    @pytest.mark.parametrize("text, line", MALFORMED)
    def test_invalid_yaml_names_its_line(self, monkeypatch, loader, text,
                                          line):
        monkeypatch.setattr(circuit_module, "_LOADER", loader)
        with pytest.raises(ParseError, match=f"invalid YAML at line {line}:"):
            parse_circuit(text)

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda l: l.__name__)
    @pytest.mark.parametrize("text", [text for text, _ in MALFORMED]
                             + [UNCLOSED])
    def test_invalid_yaml_reads_as_yaml_load_reports_it(self, monkeypatch,
                                                        loader, text):
        # parse_circuit builds documents from the parser's events, and
        # leaves every YAML error to yaml.load.
        monkeypatch.setattr(circuit_module, "_LOADER", loader)
        with pytest.raises(yaml.YAMLError) as loaded:
            yaml.load(text, Loader=loader)
        line = loaded.value.problem_mark.line + 1
        with pytest.raises(ParseError) as parsed:
            parse_circuit(text)
        assert str(parsed.value) == f"invalid YAML at line {line}: {loaded.value}"

    def test_lone_surrogate_is_a_parse_error(self):
        with pytest.raises(ParseError, match="invalid YAML"):
            parse_circuit("format_version: 1\nqubits: \ud800\n")


class TestParseCircuit:
    def test_shipped_measurement_circuit(self):
        circuit = load_circuit(CIRCUITS / "measurement.yaml")
        assert circuit.qubits == 2
        assert [g.kind for g in circuit.gates] == ["H", "CNOT"]
        assert len(circuit.records) == 2
        assert len(circuit.queries) == 8
        assert circuit.format_version == 1

    def test_shipped_register_circuit(self):
        circuit = load_circuit(CIRCUITS / "classical_registers.yaml")
        assert circuit.qubits == 4
        assert len(circuit.gates) == 6

    def test_minimal_document(self):
        circuit = parse_circuit(MINIMAL)
        assert circuit.qubits == 2
        assert circuit.records[0].key == (1, "z", 2)
        assert circuit.queries == ()

    def test_gates_sorted_by_step(self):
        text = """
format_version: 1
qubits: 2
gates:
  - {step: 1, kind: CNOT, operands: [1, 2]}
  - {step: 0, kind: H, operands: [1]}
"""
        circuit = parse_circuit(text)
        assert [g.kind for g in circuit.gates] == ["H", "CNOT"]

    def test_invalid_yaml(self):
        with pytest.raises(ParseError):
            parse_circuit(UNCLOSED)

    def test_non_mapping_document(self):
        with pytest.raises(ParseError):
            parse_circuit("- just\n- a\n- list\n")

    def test_unsupported_version(self):
        with pytest.raises(ValidationError):
            parse_circuit("format_version: 99\nqubits: 1\n")

    def test_missing_version(self):
        with pytest.raises(ValidationError):
            parse_circuit("qubits: 1\n")

    def test_missing_theta_on_rz(self):
        text = """
format_version: 1
qubits: 1
gates:
  - {step: 0, kind: RZ, operands: [1]}
"""
        with pytest.raises(ValidationError):
            parse_circuit(text)

    def test_invalid_f_coefficients(self):
        text = """
format_version: 1
qubits: 2
gates:
  - {step: 0, kind: F, operands: [1, 2], params: [0.5, 0.5, 0.5, 0.5]}
"""
        with pytest.raises(ValidationError):
            parse_circuit(text)

    def test_valid_f_coefficients(self):
        text = """
format_version: 1
qubits: 2
gates:
  - {step: 0, kind: F, operands: [1, 2], params: [0.5, 0.5, 0.5, -0.5]}
"""
        circuit = parse_circuit(text)
        assert circuit.gates[0].params == (0.5, 0.5, 0.5, -0.5)

    def test_non_consecutive_steps(self):
        text = """
format_version: 1
qubits: 2
gates:
  - {step: 0, kind: H, operands: [1]}
  - {step: 2, kind: CNOT, operands: [1, 2]}
"""
        with pytest.raises(ValidationError):
            parse_circuit(text)

    def test_record_step_out_of_range(self):
        text = MINIMAL.replace("step: 2, qubit: 1", "step: 3, qubit: 1")
        with pytest.raises(ValidationError):
            parse_circuit(text)

    def test_operand_out_of_range(self):
        text = MINIMAL.replace("operands: [1, 2]", "operands: [1, 3]")
        with pytest.raises(ValidationError):
            parse_circuit(text)


class TestQueryValidation:
    def build(self, query_line: str) -> str:
        return MINIMAL + "queries:\n  - " + query_line + "\n"

    def test_unknown_query_kind(self):
        with pytest.raises(ValidationError):
            parse_circuit(self.build("{kind: teleport, qubit: 1}"))

    def test_frame_without_matching_record(self):
        query = ("{kind: expectation, qubit: 2, component: z, "
                 "frame: {qubit: 2, component: z, step: 2, label: 1}}")
        with pytest.raises(ValidationError):
            parse_circuit(self.build(query))

    def test_frame_label_must_be_unit(self):
        query = ("{kind: expectation, qubit: 2, component: z, "
                 "frame: {qubit: 1, component: z, step: 2, label: 2}}")
        with pytest.raises(ValidationError):
            parse_circuit(self.build(query))

    def test_entanglement_needs_two_distinct(self):
        with pytest.raises(ValidationError):
            parse_circuit(self.build("{kind: entanglement, qubits: [1, 1]}"))

    def test_autonomy_needs_records(self):
        query = "{kind: autonomy, gate: {kind: CNOT, operands: [1, 2]}, records: []}"
        with pytest.raises(ValidationError):
            parse_circuit(self.build(query))

    @pytest.mark.parametrize("query, field", [
        # A frame meant to condition the answer, misspelt: the answer would
        # be unconditional.
        ("{kind: expectation, qubit: 2, component: z, "
         "frames: {qubit: 1, component: z, step: 2, label: 1}}", "frames"),
        ("{kind: entanglement, qubits: [1, 2], "
         "frame: {qubit: 1, component: z, step: 2, label: 1}}", "frame"),
        ("{kind: sharpness, qubit: 2, component: z, "
         "frame: {qubit: 1, component: z, step: 2, label: 1}}", "frame"),
        ("{kind: autonomy, gate: {kind: CNOT, operands: [1, 2], step: 9}, "
         "records: [{qubit: 1, component: z, step: 2}]}", "step"),
        ("{kind: autonomy, gate: {kind: CNOT, operands: [1, 2]}, "
         "records: [{qubit: 1, component: z, step: 2, label: 1}]}", "label"),
    ])
    def test_unknown_query_fields_rejected(self, query, field):
        with pytest.raises(ValidationError,
                           match=f"unknown field '{field}'"):
            parse_circuit(self.build(query))

    def test_classical_query_fields(self):
        good = parse_circuit(self.build(
            "{kind: classical, register: [1], reference: [2]}"))
        assert good.queries[0]["kind"] == "classical"
        with pytest.raises(ValidationError):
            parse_circuit(self.build("{kind: classical, register: [1]}"))


class TestUnknownFields:
    def test_top_level_typo_drops_no_gate(self):
        # "gate:" for "gates:" would otherwise run the circuit with no gates.
        text = MINIMAL.replace("gates:", "gate:").replace(
            "step: 2, qubit: 1", "step: 0, qubit: 1")
        with pytest.raises(ValidationError,
                           match="document: unknown field 'gate'"):
            parse_circuit(text)

    def test_gate_and_record_entries(self):
        with pytest.raises(ValidationError,
                           match=r"gates\[0\]: unknown field 'operand'"):
            parse_circuit(MINIMAL.replace("operands: [1]}", "operand: [1]}"))
        with pytest.raises(ValidationError,
                           match=r"records\[0\]: unknown field 'label'"):
            parse_circuit(MINIMAL.replace("component: z}",
                                          "component: z, label: 1}"))


class TestLoadCircuit:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_circuit(tmp_path / "nope.yaml")

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"format_version: 1\nqubits: \xff\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            load_circuit(path)

    def test_round_trip_from_disk(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(MINIMAL, encoding="utf-8")
        circuit = load_circuit(path)
        assert circuit.qubits == 2
