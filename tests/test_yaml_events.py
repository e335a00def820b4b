"""Circuit documents built from the YAML parser's events.

``circuit.parse_circuit`` builds a document in the plain subset (untagged,
unanchored mappings and sequences of ints, decimal floats, words and quoted
strings) straight from the parser's events, and hands anything else to
``yaml.load``. These tests check that both ways give PyYAML's document, that
the shipped and benchmark-shaped circuits take the event path, and that huge
integers and deep nesting are parse errors (exit 1).
"""

import contextlib
import io
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heisim import circuit as circuit_module
from heisim import cli
from heisim.circuit import parse_circuit
from heisim.errors import ParseError, ValidationError

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader]
                               if hasattr(yaml, "CSafeLoader") else [])
loaders = pytest.mark.parametrize("loader", LOADERS,
                                  ids=lambda loader: loader.__name__)


@pytest.fixture
def use_loader(monkeypatch):
    return lambda loader: monkeypatch.setattr(circuit_module, "_LOADER",
                                              loader)


def narrow_document(seed: int, n: int = 3, depth: int = 250) -> str:
    """A random circuit in the shape of the benchmark's deep-narrow
    documents: one flow mapping per gate, fixed-point angles, and one
    expectation query per qubit."""
    rng = random.Random(seed)
    lines = ["format_version: 1", f"qubits: {n}", "gates:"]
    for step in range(depth):
        kind = rng.choice(["NOT", "H", "CNOT", "RZ", "CCNOT"])
        arity = {"NOT": 1, "H": 1, "RZ": 1, "CNOT": 2, "CCNOT": 3}[kind]
        operands = ", ".join(map(str, rng.sample(range(1, n + 1), arity)))
        params = (f", params: [{rng.uniform(0, 6.3):.15f}]" if kind == "RZ"
                  else "")
        lines.append(f"  - {{step: {step}, kind: {kind}, "
                     f"operands: [{operands}]{params}}}")
    lines.append("queries:")
    lines += [f"  - {{kind: expectation, qubit: {q}, component: "
              f"{rng.choice('xyz')}}}" for q in range(1, n + 1)]
    return "\n".join(lines) + "\n"


# --- The event path is taken -------------------------------------------------

@loaders
def test_circuits_never_reach_yaml_load(monkeypatch, use_loader, loader):
    # A silent fallback would keep every answer and lose the speed-up.
    use_loader(loader)

    def no_load(*args, **kwargs):
        raise AssertionError("yaml.load called")

    monkeypatch.setattr(yaml, "load", no_load)
    texts = [path.read_text(encoding="utf-8")
             for path in sorted(CIRCUITS.glob("*.yaml"))]
    for text in texts + [narrow_document(seed) for seed in range(3)]:
        assert parse_circuit(text).qubits >= 1


# --- Same document as yaml.load ----------------------------------------------

# Plain scalars PyYAML reads as something other than an int, a decimal float
# or a string, or as a string although they look like a number or a word.
EDGE_SCALARS = ("y", "n", "yes", "No", "0x1F", "007", "010", "1_000", "+5",
                "1:20", "-0", "-0.0", "1.", "1e5", "1.0e+5", ".inf", ".nan",
                "~", "null", "", "2001-12-14")
EDGE_VALUES = (EDGE_SCALARS + tuple(f"'{s}'" for s in EDGE_SCALARS)
               + tuple(f'"{s}"' for s in EDGE_SCALARS)
               + ("!!str 1", "!!int '3'", "!!float 1"))
NUMBERS = ("0", "1", "2", "3", "-1", "12", "0.5", "-0.25", "3.141592653589793")
WORDS = ("H", "CNOT", "RZ", "x", "z", "expectation", "Qubit_9")


class Map(list):
    """A mapping as (key, value) pairs in document order; keys may repeat."""


@st.composite
def skeletons(draw):
    """A circuit-shaped document tree whose leaves are YAML scalar text."""
    number, word = st.sampled_from(NUMBERS), st.sampled_from(WORDS)
    gates = [Map([("step", str(step)), ("kind", draw(word)),
                  ("operands", draw(st.lists(number, max_size=3))),
                  ("params", draw(st.lists(number, max_size=1)))])
             for step in range(draw(st.integers(0, 3)))]
    record = st.builds(lambda q, c, s: Map([("qubit", q), ("component", c),
                                            ("step", s)]),
                       number, word, number)
    records = draw(st.lists(record, max_size=2))
    queries = [Map([("kind", draw(word)), ("qubit", draw(number)),
                    ("frame", Map([*draw(record), ("label", draw(number))]))])
               for _ in range(draw(st.integers(0, 2)))]
    return Map([("format_version", "1"), ("qubits", draw(number)),
                ("gates", gates), ("records", records), ("queries", queries)])


def _leaves(node):
    """(container, index) of every leaf below ``node``, in document order;
    a mapping's leaf values only."""
    for i, item in enumerate(node):
        value = item[1] if isinstance(node, Map) else item
        if isinstance(value, list):
            yield from _leaves(value)
        else:
            yield node, i


def _set_leaf(node, i, text):
    node[i] = (node[i][0], text) if isinstance(node, Map) else text


def _leaf(node, i):
    return node[i][1] if isinstance(node, Map) else node[i]


def _mappings(node):
    if isinstance(node, Map):
        yield node
    for item in node:
        value = item[1] if isinstance(node, Map) else item
        if isinstance(value, list):
            yield from _mappings(value)


def _flow(node) -> str:
    if isinstance(node, Map):
        return "{" + ", ".join(f"{k}: {_flow(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(_flow(v) for v in node) + "]"
    return node


def _block(doc: Map, block_items: bool) -> str:
    """Top-level keys in block style; each list item a flow mapping or, with
    ``block_items``, a block mapping."""
    lines = []
    for key, value in doc:
        if isinstance(value, list) and not isinstance(value, Map) and value:
            lines.append(f"{key}:")
            for item in value:
                if block_items and isinstance(item, Map) and item:
                    lines += [f"    {k}: {_flow(v)}" for k, v in item]
                    lines[-len(item)] = "  - " + lines[-len(item)][4:]
                else:
                    lines.append(f"  - {_flow(item)}")
        else:
            lines.append(f"{key}: {_flow(value)}")
    return "\n".join(lines) + "\n"


FEATURES = ("edge", "edge", "edge", "anchor", "merge", "quoted-merge",
            "sequence-key", "mapping-key", "duplicate", "markers",
            "two-documents", "empty")


@st.composite
def documents(draw):
    doc = draw(skeletons())
    features = draw(st.lists(st.sampled_from(FEATURES), max_size=2))
    leaves = list(_leaves(doc))
    for feature in features:
        mapping = draw(st.sampled_from(list(_mappings(doc))))
        if feature == "edge":
            _set_leaf(*draw(st.sampled_from(leaves)),
                      draw(st.sampled_from(EDGE_VALUES)))
        elif feature == "anchor":
            i, j = sorted(draw(st.lists(st.integers(0, len(leaves) - 1),
                                        min_size=2, max_size=2,
                                        unique=True)))
            _set_leaf(*leaves[i], "&a " + _leaf(*leaves[i]))
            _set_leaf(*leaves[j], "*a")
        elif feature in ("merge", "quoted-merge"):
            key = "<<" if feature == "merge" else '"<<"'
            mapping.append((key, Map([("step", "1"), ("kind", "H")])))
        elif feature == "sequence-key":
            mapping.append(("[1, 2]", "3"))
        elif feature == "mapping-key":
            mapping.append(("{a: 1}", "b"))
        elif feature == "duplicate":
            mapping.append((draw(st.sampled_from(mapping))[0],
                            draw(st.sampled_from(NUMBERS + WORDS))))
    text = _block(doc, draw(st.booleans()))
    if "markers" in features:
        text = "%YAML 1.1\n---\n" + text + "...\n"
    if "two-documents" in features:
        text += "---\nqubits: 1\n"
    if "empty" in features:
        text = draw(st.sampled_from(("", "# no document\n", "---\n")))
    return text


def _outcome(build, text):
    """The repr of what ``build(text)`` returns, or the class it raises."""
    try:
        return repr(build(text))
    except Exception as exc:  # compared by class
        return type(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=documents())
def test_same_document_as_yaml_load(text):
    for loader in LOADERS:
        with mock.patch.object(circuit_module, "_LOADER", loader):
            built = _outcome(circuit_module._load, text)
        loaded = _outcome(lambda t: yaml.load(t, Loader=loader), text)
        assert built == loaded, (loader.__name__, text)


@loaders
def test_each_edge_value_equals_yaml_load(use_loader, loader):
    # Every edge value in every place a scalar takes in a circuit, each in
    # an otherwise plain document, so that none hides behind a fallback.
    use_loader(loader)
    places = ("qubits: {}\n", "gates: [{}, 1]\n", "{}: 1\n",
              "records:\n  - {{step: {}, qubit: 1}}\n",
              "queries:\n  - kind: {}\n    qubits: [1, 2]\n")
    for value in EDGE_VALUES:
        for place in places:
            text = "format_version: 1\n" + place.format(value)
            assert (_outcome(circuit_module._load, text)
                    == _outcome(lambda t: yaml.load(t, Loader=loader), text)
                    ), text


# --- Errors ------------------------------------------------------------------

def _status(command: str, path) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        status = cli.main([command, str(path)])
    return status, err.getvalue()


HUGE = "1" * 5000  # past Python's 4300-digit limit on int(str)


@loaders
@pytest.mark.parametrize("text", [
    f"format_version: 1\nqubits: {HUGE}\n",
    # A tag sends the whole document to yaml.load.
    f"format_version: !!int 1\nqubits: {HUGE}\n",
], ids=["events", "yaml-load"])
def test_huge_integer_is_a_parse_error(tmp_path, use_loader, loader, text):
    use_loader(loader)
    path = tmp_path / "huge.yaml"
    path.write_text(text, encoding="utf-8")
    for command in ("validate", "run"):
        status, err = _status(command, path)
        assert status == 1, (command, err)
        assert err.startswith("error: invalid YAML: Exceeds the limit")


def _nested(depth: int, before: str = "") -> str:
    return (f"format_version: 1\nqubits: 2\n{before}queries: "
            + "[" * depth + "]" * depth + "\n")


@loaders
@pytest.mark.parametrize("before", ["", "note: ~\n", "gates: !!seq []\n"],
                         ids=["events", "null-first", "tag-first"])
def test_nesting_past_the_limit_names_its_line(use_loader, loader, before):
    use_loader(loader)
    limit = circuit_module._MAX_DEPTH
    # The document mapping is one level, so queries may nest limit - 1: the
    # schema, not the parser, rejects that.
    with pytest.raises(ValidationError):
        parse_circuit(_nested(limit - 1, before))
    line = 3 + before.count("\n")
    with pytest.raises(ParseError, match=f"document nested deeper than "
                                         f"{limit} levels at line {line}$"):
        parse_circuit(_nested(limit, before))


def test_deep_nesting_exits_1_in_a_subprocess(tmp_path):
    # libyaml's recursive composer crashes the interpreter (exit 139) near
    # 40 000 levels; the null first sends the document towards yaml.load.
    path = tmp_path / "deep.yaml"
    path.write_text(_nested(100_000, "note: ~\n"), encoding="utf-8")
    for command in ("validate", "run"):
        done = subprocess.run(
            [sys.executable, "-m", "heisim.cli", command, str(path)],
            capture_output=True, text=True, cwd=CIRCUITS.parent)
        assert done.returncode == 1, (command, done.stderr)
        assert "nested deeper than" in done.stderr
