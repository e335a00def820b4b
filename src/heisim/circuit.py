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

# libyaml's parser where PyYAML was built with it. Under either loader the
# plain subset is built from the parser's events and every other document by
# PyYAML's Python constructor and resolver, so both build the same objects;
# only the scanner and parser differ.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# Nesting deeper than this is a parse error. The format itself nests five
# levels deep (document, queries, query, records, record), and PyYAML's
# recursive composer would crash the interpreter near 40 000 levels.
_MAX_DEPTH = 100

# The letter-initial plain words PyYAML 6 reads as booleans and nulls. Every
# other word [A-Za-z][A-Za-z0-9_]* is a string (y and n among them).
_BOOL_NULL_WORDS = frozenset(
    form for word in ("yes", "no", "true", "false", "on", "off", "null")
    for form in (word, word.capitalize(), word.upper()))

# The fields each mapping may hold. Any other field is an error, so that a
# misspelt or misplaced option is never ignored.
_DOCUMENT_FIELDS = {"format_version", "qubits", "gates", "records", "queries"}
_GATE_FIELDS = {"step", "kind", "operands", "params"}
_RECORD_FIELDS = {"qubit", "component", "step"}
_QUERY_FIELDS = {
    "expectation": {"kind", "qubit", "component", "frame"},
    "sharpness": {"kind", "qubit", "component"},
    "entanglement": {"kind", "qubits"},
    "foliate": {"kind", "qubits", "record"},
    "autonomy": {"kind", "gate", "records"},
    "classical": {"kind", "register", "reference"},
}
QUERY_KINDS = tuple(_QUERY_FIELDS)


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


def _check_fields(mapping: dict, allowed: set, context: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ValidationError(f"{context}: unknown field {key!r}")


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
    _check_fields(entry, _GATE_FIELDS, context)
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


def _parse_record_ref(entry: dict, context: str, n: int, max_step: int,
                      fields: set = _RECORD_FIELDS) -> RecordRef:
    if not isinstance(entry, dict):
        raise ValidationError(f"{context}: expected a mapping")
    _check_fields(entry, fields, context)
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
                    recorded_keys: set) -> dict:
    """The query mapping, with an autonomy query's gate parsed to a Gate.
    ``recorded_keys`` holds the key of every record marker."""
    context = f"queries[{index}]"
    if not isinstance(query, dict):
        raise ValidationError(f"{context}: expected a mapping")
    kind = str(_require(query, "kind", context))
    if kind not in QUERY_KINDS:
        raise ValidationError(f"{context}: unknown query kind {kind!r}")
    _check_fields(query, _QUERY_FIELDS[kind], context)

    def check_ref(entry, label, fields=_RECORD_FIELDS):
        ref = _parse_record_ref(entry, f"{context}.{label}", n, max_step,
                                fields)
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
            check_ref(frame, "frame", _RECORD_FIELDS | {"label"})
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
        _check_fields(gate, _GATE_FIELDS - {"step"}, f"{context}.gate")
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


def _plain_scalar(value: str):
    """What PyYAML builds from an untagged plain scalar: an int for
    -?(0|[1-9][0-9]*), a float for -?[0-9]+.[0-9]+, a str for a word that
    is no boolean or null. None for any other scalar."""
    if not value.isascii():
        return None
    if value.isidentifier():
        if value[0] == "_" or value in _BOOL_NULL_WORDS:
            return None
        return value
    digits = value[1:] if value[:1] == "-" else value
    if digits.isdigit():
        return int(value) if digits[0] != "0" or len(digits) == 1 else None
    whole, _, fraction = digits.partition(".")
    if whole.isdigit() and fraction.isdigit():
        return float(value)
    return None


def _too_deep(event) -> ParseError:
    return ParseError(f"document nested deeper than {_MAX_DEPTH} levels "
                      f"at line {event.start_mark.line + 1}")


def _drain(loader, depth: int) -> None:
    """Read the rest of the stream, checking only its nesting, as the
    fallback's composer recurses once per level. None, for ``_build``."""
    while True:
        event = loader.get_event()
        kind = event.__class__
        if kind is yaml.MappingStartEvent or kind is yaml.SequenceStartEvent:
            depth += 1
            if depth > _MAX_DEPTH:
                raise _too_deep(event)
        elif kind is yaml.MappingEndEvent or kind is yaml.SequenceEndEvent:
            depth -= 1
        elif kind is yaml.StreamEndEvent:
            return None


def _build(loader):
    """The one document of the loader's stream, built from its events; None
    if the stream holds anything PyYAML might build otherwise: a document
    count other than one, an anchor, alias or tag, a collection as a key, or
    a plain scalar outside ``_plain_scalar``'s forms."""
    stack = []  # (collection, is_mapping) of each enclosing collection
    top = root = key = None  # a mapping's key is None until read
    mapping = False
    documents = 0
    scalars = {}  # plain scalar text -> value, as most of them repeat
    while True:
        event = loader.get_event()
        kind = event.__class__
        if kind is yaml.ScalarEvent:
            if event.anchor is not None or event.tag is not None:
                return _drain(loader, len(stack))
            value = event.value
            if event.implicit[0]:
                plain = scalars.get(value)
                if plain is None:
                    plain = _plain_scalar(value)
                    if plain is None:
                        return _drain(loader, len(stack))
                    scalars[value] = plain
                value = plain
            if mapping and key is None:
                key = value
                continue
        elif kind is yaml.MappingStartEvent or kind is yaml.SequenceStartEvent:
            if len(stack) == _MAX_DEPTH:
                raise _too_deep(event)
            if (event.anchor is not None or event.tag is not None
                    or (mapping and key is None)):
                return _drain(loader, len(stack) + 1)
            value = {} if kind is yaml.MappingStartEvent else []
        elif kind is yaml.MappingEndEvent or kind is yaml.SequenceEndEvent:
            top, mapping = stack.pop()
            continue
        elif kind is yaml.DocumentStartEvent:
            documents += 1
            if documents > 1:
                return _drain(loader, 0)
            continue
        elif kind is yaml.AliasEvent:
            return _drain(loader, len(stack))
        elif kind is yaml.StreamEndEvent:
            return root if documents == 1 else None
        else:  # the stream's start or a document's end
            continue
        # A value: into its mapping under the key just read, onto its
        # sequence, or the document itself.
        if mapping:
            top[key] = value
            key = None
        elif top is not None:
            top.append(value)
        else:
            root = value
        if kind is not yaml.ScalarEvent:
            stack.append((top, mapping))
            top, mapping = value, kind is yaml.MappingStartEvent


def _load(text: str):
    """The document ``yaml.load(text, Loader=_LOADER)`` returns: built from
    the parser's events where it lies in the plain subset, else by
    ``yaml.load`` itself, which also raises every YAMLError."""
    loader = _LOADER(text)
    try:
        doc = _build(loader)
    except yaml.YAMLError:
        doc = None
    finally:
        loader.dispose()
    return yaml.load(text, Loader=_LOADER) if doc is None else doc


def parse_circuit(text: str) -> CircuitFile:
    """Parse and validate a YAML circuit document."""
    try:
        doc = _load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark else ""
        raise ParseError(f"invalid YAML{where}: {exc}") from None
    except ValueError as exc:
        # A lone surrogate (libyaml reads UTF-8, which has no code for one),
        # an integer past Python's digit limit, or a date no calendar holds.
        raise ParseError(f"invalid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("circuit document must be a mapping")
    _check_fields(doc, _DOCUMENT_FIELDS, "document")
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
    recorded_keys = {r.key for r in records}
    queries = tuple(_validate_query(q, i, n, max_step, recorded_keys)
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
