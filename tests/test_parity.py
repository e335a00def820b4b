"""Property test: `heisim validate` and `heisim run` accept the same documents.

Documents are generated valid, then possibly mutated: a field replaced by a
value of another type or range, a field deleted, a field added where it does
not belong, or the text cut short. For
each one, `validate` exits 0 exactly when `run` does not exit 1 (run may
still exit 2 or 3 on a valid document), neither exits 4, and the two YAML
loaders give the same circuit or the same kind of error. A document that
holds a field no mapping of the format knows exits 1 from both.
"""

import contextlib
import copy
import io
from unittest import mock

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heisim import circuit as circuit_module
from heisim import cli
from heisim.errors import HeisimError
from heisim.linalg import DEFAULT_TOL
from heisim.network import f_unitarity_defect

COMPONENTS = ("x", "y", "z")
ARITY = {"I": 0, "NOT": 1, "H": 1, "RZ": 1, "CNOT": 2, "F": 2, "CCNOT": 3}
# Unitary F coefficients: the diagonal gates with eigenvalues +-1.
F_PARAMS = ([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0],
            [0.5, 0.5, 0.5, -0.5], [0.0, 1.0, 0.0, 0.0])
# Replacement values of the wrong type or range: numbers in place of a
# number, anything in place of anything else. No qubit count between 5 and
# 10, so that a mutated document stays cheap to run.
ODD_NUMBERS = (-1, 0, 4, 11, 2 ** 70, 10 ** 400, 1.5, 1e300, float("nan"),
               float("inf"), True)
ODD_VALUES = ODD_NUMBERS + (None, "x", "cnot", "", [], [1, 1], [1], [0.5], {},
                            {"qubit": 1})
# Field names to add to a mapping: misplaced ones, which another mapping of
# the format knows, and UNKNOWN ones, which none knows.
UNKNOWN = ("frames", "note")
ODD_FIELDS = ("frame", "step", "label", "gate", "records") + UNKNOWN


@st.composite
def gates(draw, n):
    kinds = [k for k, arity in ARITY.items() if arity <= n]
    out = []
    for step in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(kinds))
        operands = draw(st.permutations(range(1, n + 1)))[:ARITY[kind]]
        gate = {"step": step, "kind": kind, "operands": list(operands)}
        if kind == "RZ":
            gate["params"] = [draw(st.floats(-7, 7))]
        elif kind == "F":
            gate["params"] = list(draw(st.sampled_from(F_PARAMS)))
        out.append(gate)
    return out


@st.composite
def valid_documents(draw):
    n = draw(st.integers(1, 3))
    gate_list = draw(gates(n))
    qubit = st.integers(1, n)
    records = draw(st.lists(st.fixed_dictionaries({
        "step": st.integers(0, len(gate_list)), "qubit": qubit,
        "component": st.sampled_from(COMPONENTS)}), min_size=1, max_size=3))
    # A copy per use, so that one mutation changes one place.
    record = st.sampled_from(records).map(dict)
    distinct = st.permutations(range(1, n + 1))
    query = st.one_of(
        st.fixed_dictionaries({"kind": st.just("expectation"), "qubit": qubit,
                               "component": st.sampled_from(COMPONENTS)}),
        st.fixed_dictionaries({"kind": st.just("expectation"), "qubit": qubit,
                               "component": st.sampled_from(COMPONENTS),
                               "frame": record.map(lambda r: {
                                   **r, "label": 1})}),
        st.fixed_dictionaries({"kind": st.just("sharpness"), "qubit": qubit,
                               "component": st.sampled_from(COMPONENTS)}),
        st.fixed_dictionaries({"kind": st.just("foliate"),
                               "qubits": st.lists(qubit, max_size=2),
                               "record": record}),
        st.fixed_dictionaries({"kind": st.just("autonomy"),
                               "gate": gates(n).filter(bool).map(
                                   lambda g: {k: v for k, v in g[0].items()
                                              if k != "step"}),
                               "records": st.lists(record, min_size=1,
                                                   max_size=2)}),
    )
    if n >= 2:
        query = query | st.fixed_dictionaries({
            "kind": st.just("entanglement"),
            "qubits": distinct.map(lambda p: list(p[:2]))})
        query = query | distinct.map(lambda p: {
            "kind": "classical", "register": [p[0]], "reference": list(p[1:])})
    return {"format_version": 1, "qubits": n, "gates": gate_list,
            "records": records,
            "queries": draw(st.lists(query, max_size=3))}


def _mappings(node):
    """``node`` and every mapping below it, depth first."""
    if isinstance(node, dict):
        yield node
    for value in (node.values() if isinstance(node, dict)
                  else node if isinstance(node, list) else ()):
        yield from _mappings(value)


def _positions(node):
    """(container, key) of every value below ``node``, depth first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield node, key
        yield from _positions(value)


@st.composite
def documents(draw):
    doc = draw(valid_documents())
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 2)) == 2:  # a field added to some mapping
            mapping = draw(st.sampled_from(list(_mappings(doc))))
            mapping[draw(st.sampled_from(ODD_FIELDS))] = copy.deepcopy(draw(
                st.sampled_from((1, {"qubit": 1}, []))))
            continue
        positions = list(_positions(doc))
        if draw(st.booleans()):  # a scalar, most of which sit deep down
            positions = [(parent, key) for parent, key in positions
                         if not isinstance(parent[key], (dict, list))]
        parent, key = draw(st.sampled_from(positions))
        if isinstance(parent, dict) and draw(st.integers(0, 3)) == 3:
            del parent[key]
        elif isinstance(parent[key], (int, float)):
            parent[key] = draw(st.sampled_from(ODD_NUMBERS))
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
    text = yaml.safe_dump(doc, default_flow_style=None)
    unknown = any(set(UNKNOWN) & set(m) for m in _mappings(doc))
    if draw(st.integers(0, 9)) == 9:
        text = text[:draw(st.integers(0, len(text)))]
        unknown = False
    return text, unknown


def _status(command: str, text: str) -> int:
    """Exit status of `heisim <command>` on a document with this text."""
    # The document is handed over in memory: the CLI reads every file the
    # same way, and opening one per example would cost more than running it.
    with mock.patch.object(cli, "load_circuit",
                           lambda path: circuit_module.parse_circuit(text)), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main([command, "document.yaml"])


def _parse_with(loader, text):
    """The CircuitFile, or the class of the error, under one loader."""
    saved = circuit_module._LOADER
    circuit_module._LOADER = loader
    try:
        return circuit_module.parse_circuit(text)
    except HeisimError as exc:
        return type(exc)
    finally:
        circuit_module._LOADER = saved


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=documents())
def test_validate_and_run_agree(case):
    text, unknown = case
    validated = _status("validate", text)
    ran = _status("run", text)
    assert validated in (0, 1) and ran in (0, 1, 2, 3), (validated, ran)
    assert (validated == 0) == (ran != 1), (validated, ran)
    if unknown:
        assert validated == ran == 1, text
    if hasattr(yaml, "CSafeLoader"):
        assert (_parse_with(yaml.SafeLoader, text)
                == _parse_with(yaml.CSafeLoader, text))


def test_framed_sharpness_is_rejected_by_both():
    # A frame conditions expectation queries only: on sharpness it would be
    # accepted and ignored, so both commands reject it.
    doc = {"format_version": 1, "qubits": 2,
           "gates": [{"step": 0, "kind": "H", "operands": [1]},
                     {"step": 1, "kind": "CNOT", "operands": [1, 2]}],
           "records": [{"step": 2, "qubit": 1, "component": "z"}],
           "queries": [{"kind": "sharpness", "qubit": 2, "component": "z"}]}
    text = yaml.safe_dump(doc)
    assert _status("validate", text) == _status("run", text) == 0
    doc["queries"][0]["frame"] = {**doc["records"][0], "label": 1}
    text = yaml.safe_dump(doc)
    assert _status("validate", text) == _status("run", text) == 1


def _f_document(n, operands, params):
    """H on qubit 1, then F with these params: a run reads F's defect in
    the oracle's unitarity check and in the algebra certificate."""
    return yaml.safe_dump({"format_version": 1, "qubits": n, "gates": [
        {"step": 0, "kind": "H", "operands": [1]},
        {"step": 1, "kind": "F", "operands": list(operands),
         "params": list(params)}]})


@pytest.mark.parametrize("eps", [5e-11, 4e-11, 2e-11])
def test_an_f_within_the_parse_bound_runs(eps):
    # Before F was stored as its eigenvalues' signs, each of these ran into
    # exit 2: on a unitarity defect of 1.000e-10, then on algebra residuals
    # of 4.800e-10 and 2.400e-10.
    text = _f_document(2, (1, 2), (1 + eps, 0.0, 0.0, 0.0))
    assert _status("validate", text) == _status("run", text) == 0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 3), operands=st.permutations([1, 2, 3]),
       params=st.sampled_from(F_PARAMS),
       shifts=st.lists(st.floats(-5e-11, 5e-11), min_size=4, max_size=4))
def test_validate_and_run_agree_on_f(n, operands, params, shifts):
    """An F near a unitary one: both commands accept it exactly when its
    defect is within the parse bound, and then the run exits 0."""
    operands = [q for q in operands if q <= n][:2]
    params = [p + shift for p, shift in zip(params, shifts)]
    text = _f_document(n, operands, params)
    status = 0 if f_unitarity_defect(params) <= DEFAULT_TOL.unitary else 1
    assert _status("validate", text) == _status("run", text) == status
