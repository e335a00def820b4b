"""Circuit document parsing and validation.

The on-disk format is YAML: a versioned document with qubit count, one gate
per time step, record markers, and a list of queries. See README for the
schema and shipped examples under circuits/.
"""

from __future__ import annotations

from dataclasses import dataclass

import yaml

from .errors import ParseError, ValidationError
from .linalg import COMPONENTS, MAX_QUBITS
from .network import Gate

FORMAT_VERSION = 1

# libyaml's parser where PyYAML was built with it. The constructor and
# resolver are PyYAML's Python code under either loader, so both build the
# same objects; only the scanner and parser differ.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

QUERY_KINDS = ("expectation", "sharpness", "entanglement", "foliate",
               "autonomy", "classical")


@dataclass(frozen=True)
class RecordRef:
    """Reference to a snapshot: (qubit, component, step)."""

    qubit: int
    component: str
    step: int

    @property
    def key(self) -> tuple:
        return (self.qubit, self.component, self.step)


@dataclass(frozen=True)
class CircuitFile:
    qubits: int
    gates: tuple[Gate, ...]
    records: tuple[RecordRef, ...]
    queries: tuple[dict, ...]
    format_version: int = FORMAT_VERSION


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ValidationError(f"{context}: missing field {key!r}")
    return mapping[key]


def _is_int(value) -> bool:
    """An integer, and not a YAML boolean (which Python counts as one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(mapping: dict, key: str, context: str) -> int:
    value = _require(mapping, key, context)
    if not _is_int(value):
        raise ValidationError(f"{context}: field {key!r} must be an integer")
    return value


def _qubit_list(mapping: dict, key: str, context: str, n: int) -> list:
    """A list of qubit indices, each an integer in 1..n."""
    qubits = _require(mapping, key, context)
    if not isinstance(qubits, list) or not all(
            _is_int(q) and 1 <= q <= n for q in qubits):
        raise ValidationError(
            f"{context}: {key} must be a list of qubit indices in 1..{n}")
    return qubits


def _parse_gate(entry: dict, context: str, n: int) -> tuple[int, Gate]:
    if not isinstance(entry, dict):
        raise ValidationError(f"{context}: expected a mapping")
    step = _int_field(entry, "step", context)
    kind = str(_require(entry, "kind", context)).upper()
    operands = entry.get("operands", [])
    params = entry.get("params", [])
    if not isinstance(operands, list) or not all(_is_int(q) for q in operands):
        raise ValidationError(f"{context}: operands must be a list of integers")
    if not isinstance(params, list) or not all(
            isinstance(p, (int, float)) and not isinstance(p, bool)
            for p in params):
        raise ValidationError(f"{context}: params must be a list of numbers")
    try:
        params = tuple(float(p) for p in params)
    except OverflowError:  # an integer beyond the float range
        raise ValidationError(
            f"{context}: params must be finite floats") from None
    try:
        gate = Gate(kind, tuple(operands), params)
        gate.validate(n)
    except ValidationError as exc:
        raise ValidationError(f"{context}: {exc}") from None
    return step, gate


def _parse_record_ref(entry: dict, context: str, n: int,
                      max_step: int) -> RecordRef:
    if not isinstance(entry, dict):
        raise ValidationError(f"{context}: expected a mapping")
    qubit = _int_field(entry, "qubit", context)
    component = str(_require(entry, "component", context))
    step = _int_field(entry, "step", context)
    if not 1 <= qubit <= n:
        raise ValidationError(f"{context}: qubit {qubit} out of range 1..{n}")
    if component not in COMPONENTS:
        raise ValidationError(f"{context}: component must be one of x, y, z")
    if not 0 <= step <= max_step:
        raise ValidationError(f"{context}: step {step} out of range 0..{max_step}")
    return RecordRef(qubit, component, step)


def _validate_query(query: dict, index: int, n: int, max_step: int,
                    records: tuple[RecordRef, ...]) -> dict:
    """The query mapping, with an autonomy query's gate parsed to a Gate."""
    context = f"queries[{index}]"
    if not isinstance(query, dict):
        raise ValidationError(f"{context}: expected a mapping")
    kind = str(_require(query, "kind", context))
    if kind not in QUERY_KINDS:
        raise ValidationError(f"{context}: unknown query kind {kind!r}")
    recorded_keys = {r.key for r in records}

    def check_ref(entry, label):
        ref = _parse_record_ref(entry, f"{context}.{label}", n, max_step)
        if ref.key not in recorded_keys:
            raise ValidationError(
                f"{context}.{label}: no matching record marker for {ref.key}")
        return ref

    if kind in ("expectation", "sharpness"):
        qubit = _int_field(query, "qubit", context)
        component = str(_require(query, "component", context))
        if not 1 <= qubit <= n or component not in COMPONENTS:
            raise ValidationError(f"{context}: bad qubit/component")
        if "frame" in query:
            frame = query["frame"]
            check_ref(frame, "frame")
            label = _int_field(frame, "label", f"{context}.frame")
            if label not in (1, -1):
                raise ValidationError(f"{context}.frame: label must be +-1")
    elif kind == "entanglement":
        qubits = _qubit_list(query, "qubits", context, n)
        if len(qubits) != 2 or qubits[0] == qubits[1]:
            raise ValidationError(f"{context}: qubits must be two distinct indices")
    elif kind == "foliate":
        _qubit_list(query, "qubits", context, n)
        check_ref(_require(query, "record", context), "record")
    elif kind == "autonomy":
        gate = _require(query, "gate", context)
        if not isinstance(gate, dict):
            raise ValidationError(f"{context}: gate must be a mapping")
        _, gate = _parse_gate({"step": 0, **gate}, f"{context}.gate", n)
        query = {**query, "gate": gate}
        refs = _require(query, "records", context)
        if not isinstance(refs, list) or not refs:
            raise ValidationError(f"{context}: records must be a nonempty list")
        for ref in refs:
            check_ref(ref, "records")
    elif kind == "classical":
        for key in ("register", "reference"):
            qubits = _qubit_list(query, key, context, n)
            if not qubits:
                raise ValidationError(f"{context}: {key} must not be empty")
            if len(set(qubits)) != len(qubits):
                raise ValidationError(
                    f"{context}: {key} qubits must be distinct: {qubits}")
    return query


def parse_circuit(text: str) -> CircuitFile:
    """Parse and validate a YAML circuit document."""
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark else ""
        raise ParseError(f"invalid YAML{where}: {exc}") from None
    except UnicodeEncodeError as exc:
        # libyaml reads UTF-8, which has no code for a lone surrogate.
        raise ParseError(f"invalid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("circuit document must be a mapping")
    version = _int_field(doc, "format_version", "document")
    if version != FORMAT_VERSION:
        raise ValidationError(f"unsupported format_version {version}")
    n = _int_field(doc, "qubits", "document")
    if not 1 <= n <= MAX_QUBITS:
        raise ValidationError(f"qubits must be in 1..{MAX_QUBITS}, got {n}")

    raw_gates = doc.get("gates", [])
    if not isinstance(raw_gates, list):
        raise ValidationError("gates must be a list")
    stepped = [_parse_gate(entry, f"gates[{i}]", n)
               for i, entry in enumerate(raw_gates)]
    stepped.sort(key=lambda sg: sg[0])
    for i, (step, _) in enumerate(stepped):
        if step != i:
            raise ValidationError(
                f"gate steps must be consecutive integers starting at 0; "
                f"expected {i}, got {step}")
    gates = tuple(g for _, g in stepped)
    max_step = len(gates)

    raw_records = doc.get("records", [])
    if not isinstance(raw_records, list):
        raise ValidationError("records must be a list")
    records = tuple(_parse_record_ref(entry, f"records[{i}]", n, max_step)
                    for i, entry in enumerate(raw_records))

    raw_queries = doc.get("queries", [])
    if not isinstance(raw_queries, list):
        raise ValidationError("queries must be a list")
    queries = tuple(_validate_query(q, i, n, max_step, records)
                    for i, q in enumerate(raw_queries))
    return CircuitFile(n, gates, records, queries, version)


def load_circuit(path) -> CircuitFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc}") from None
    return parse_circuit(text)
