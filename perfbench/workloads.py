"""Seeded circuit documents for the benchmark workloads.

Each workload is an endless stream of YAML circuit documents: document ``i``
of seed ``s`` is drawn from its own ``random.Random`` keyed on the workload,
the seed and ``i``, so a seed always yields the same byte-identical text.
The program under test only ever sees that text. Alongside the text every
``Case`` keeps the gate list and, where the answer is known in closed form,
the expected answer of each query, for the output check in ``check.py``.

This module imports nothing from the program under test.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

# Fixed circuit sizes. Every circuit of a workload has the same qubit count
# and depth, so per-report times of one run share one distribution and the
# median does not jump between modes from seed to seed.
DEEP_NARROW_QUBITS = 3
DEEP_NARROW_DEPTH = 250
WIDE_QUBITS = 8
WIDE_DEPTH = 16
BRANCH_PAIRS = 4

COMPONENTS = ("x", "y", "z")
# Angles keep this far from 0 and pi, so no branch of the measurement
# circuits has a weight near zero and no register is sharp.
_ANGLE_MARGIN = 0.25


@dataclass(frozen=True)
class Case:
    """One generated circuit document and what the output check needs."""

    qubits: int
    gates: tuple  # (kind, operands, params) triples, in step order
    queries: tuple  # query mappings, in document order
    expected: tuple  # closed-form answer per query, or None where unknown
    text: str

    @property
    def steps(self) -> int:
        return len(self.gates)


def _num(x: float) -> str:
    # Fixed-point digits: PyYAML reads "1e-05" as a string, not a float.
    return f"{x:.15f}"


def _flow(mapping: dict) -> str:
    parts = []
    for key, value in mapping.items():
        if isinstance(value, dict):
            text = _flow(value)
        elif isinstance(value, (list, tuple)):
            text = "[" + ", ".join(
                _flow(v) if isinstance(v, dict) else
                _num(v) if isinstance(v, float) else str(v)
                for v in value) + "]"
        elif isinstance(value, float):
            text = _num(value)
        else:
            text = str(value)
        parts.append(f"{key}: {text}")
    return "{" + ", ".join(parts) + "}"


def _document(n: int, gates, records, queries) -> str:
    lines = ["format_version: 1", f"qubits: {n}", "gates:"]
    for step, (kind, operands, params) in enumerate(gates):
        entry = {"step": step, "kind": kind, "operands": list(operands)}
        if params:
            entry["params"] = list(params)
        lines.append("  - " + _flow(entry))
    if records:
        lines.append("records:")
        lines.extend("  - " + _flow(r) for r in records)
    lines.append("queries:")
    lines.extend("  - " + _flow(q) for q in queries)
    return "\n".join(lines) + "\n"


def _angle(rng: random.Random, low: float, high: float) -> float:
    # Round through the printed form, so the check sees the parsed value.
    return float(_num(rng.uniform(low, high)))


def _random_gate(rng: random.Random, n: int) -> tuple:
    """The NOT/H/CNOT/RZ/CCNOT mix of the acceptance suite's random circuits."""
    kinds = ["NOT", "H", "CNOT", "RZ"] + (["CCNOT"] if n >= 3 else [])
    kind = rng.choice(kinds)
    qubits = rng.sample(range(1, n + 1), n)
    if kind in ("NOT", "H"):
        return kind, (qubits[0],), ()
    if kind == "CNOT":
        return kind, (qubits[0], qubits[1]), ()
    if kind == "RZ":
        return kind, (qubits[0],), (_angle(rng, 0.0, 2 * math.pi),)
    return kind, (qubits[0], qubits[1], qubits[2]), ()


def _random_circuit(rng: random.Random, n: int, depth: int) -> Case:
    gates = tuple(_random_gate(rng, n) for _ in range(depth))
    queries = tuple({"kind": "expectation", "qubit": q,
                     "component": rng.choice(COMPONENTS)}
                    for q in range(1, n + 1))
    return Case(n, gates, queries, (None,) * len(queries),
                _document(n, gates, (), queries))


def deep_narrow(rng: random.Random) -> Case:
    return _random_circuit(rng, DEEP_NARROW_QUBITS, DEEP_NARROW_DEPTH)


def wide(rng: random.Random) -> Case:
    return _random_circuit(rng, WIDE_QUBITS, WIDE_DEPTH)


def _f_params(rng: random.Random) -> tuple:
    """A valid diagonal F gate: four +-1 eigenvalues, exact in binary."""
    s = [rng.choice((-1.0, 1.0)) for _ in range(4)]
    return ((s[0] + s[1] + s[2] + s[3]) / 4, (s[0] + s[1] - s[2] - s[3]) / 4,
            (s[0] - s[1] + s[2] - s[3]) / 4, (s[0] - s[1] - s[2] + s[3]) / 4)


def branch_queries(rng: random.Random, pairs: int = BRANCH_PAIRS) -> Case:
    """Measurement circuits of system/apparatus pairs with closed-form answers.

    Pair k has system qubit 2k-1 and apparatus qubit 2k. The system gets
    H, RZ(theta_k), H and is then copied onto its apparatus by a CNOT, which
    leaves the pair in cos(theta/2)|00> - i sin(theta/2)|11>. Every z is
    recorded at the final step. From that state: the z = +1 branch has weight
    cos^2(theta/2); the apparatus z conditioned on the system record equals
    the frame label; qubits are entangled only within a pair; RZ and F gates
    preserve the z records while a CNOT destroys its target's; and a register
    of apparatus qubits reads its reference label in every branch.
    """
    n = 2 * pairs
    thetas = {}
    gates = []
    for k in range(1, pairs + 1):
        theta = _angle(rng, _ANGLE_MARGIN, math.pi - _ANGLE_MARGIN)
        if rng.random() < 0.5:
            theta += math.pi
            theta = float(_num(theta))
        thetas[k] = theta
        s, a = 2 * k - 1, 2 * k
        gates += [("H", (s,), ()), ("RZ", (s,), (theta,)), ("H", (s,), ()),
                  ("CNOT", (s, a), ())]
    final = len(gates)
    records = [{"step": final, "qubit": q, "component": "z"}
               for q in range(1, n + 1)]

    def pair_of(q):
        return (q + 1) // 2

    def weight(k, label):
        half = thetas[k] / 2
        return math.cos(half) ** 2 if label == 1 else math.sin(half) ** 2

    def mean_z(q):
        return math.cos(thetas[pair_of(q)])

    def rec(q):
        return {"qubit": q, "component": "z", "step": final}

    queries, expected = [], []

    def add(query, answer):
        queries.append(query)
        expected.append(answer)

    for q in range(1, n + 1):
        for c in COMPONENTS:
            add({"kind": "expectation", "qubit": q, "component": c},
                {"value": mean_z(q) if c == "z" else 0.0})
    for k in range(1, pairs + 1):
        s, a = 2 * k - 1, 2 * k
        other = 2 * (k % pairs) + 2  # apparatus of the next pair
        for label in (1, -1):
            w = weight(k, label)
            for c in COMPONENTS:
                add({"kind": "expectation", "qubit": a, "component": c,
                     "frame": {**rec(s), "label": label}},
                    {"value": float(label) if c == "z" else 0.0,
                     "frame_label": label, "frame_weight": w})
            add({"kind": "expectation", "qubit": s, "component": "z",
                 "frame": {**rec(a), "label": label}},
                {"value": float(label), "frame_label": label,
                 "frame_weight": w})
            if other != a:
                add({"kind": "expectation", "qubit": other, "component": "z",
                     "frame": {**rec(s), "label": label}},
                    {"value": mean_z(other), "frame_label": label,
                     "frame_weight": w})
    for q in range(1, n + 1):
        for c in COMPONENTS:
            add({"kind": "sharpness", "qubit": q, "component": c},
                {"sharp": False, "value": None})
    for qa, qb in itertools.combinations(range(1, n + 1), 2):
        add({"kind": "entanglement", "qubits": [qa, qb]},
            {"entangled": pair_of(qa) == pair_of(qb)})

    def foliation(k, record_qubit, qubits):
        frames = [{"label": float(label), "weight": weight(k, label)}
                  for label in (1, -1)]
        rel = {}
        for q in qubits:
            rel[str(q)] = {
                f"{label:g}": [0.0, 0.0,
                               float(label) if pair_of(q) == k else mean_z(q)]
                for label in (1, -1)}
        add({"kind": "foliate", "qubits": list(qubits),
             "record": rec(record_qubit)},
            {"frames": frames, "valid": True, "relative_expectations": rel})

    for k in range(1, pairs + 1):
        s, a = 2 * k - 1, 2 * k
        foliation(k, s, [a])
        foliation(k, a, [s])
        if pairs > 1:  # both qubits of the next pair, which the record leaves alone
            nxt = k % pairs + 1
            foliation(k, s, [2 * nxt - 1, 2 * nxt])

    def autonomy(gate, target=None):
        order = rng.sample(range(1, n + 1), n)
        answer = ({"classification": "PRESERVING", "violated_index": None}
                  if target is None else
                  {"classification": "DESTROYING",
                   "violated_index": order.index(target)})
        add({"kind": "autonomy", "gate": gate,
             "records": [rec(q) for q in order]}, answer)

    for q in range(1, n + 1):
        autonomy({"kind": "RZ", "operands": [q],
                  "params": [_angle(rng, 0.0, 2 * math.pi)]})
    for k in range(1, pairs + 1):
        autonomy({"kind": "F", "operands": [2 * k - 1, 2 * k],
                  "params": list(_f_params(rng))})
        qa, qb = rng.sample(range(1, n + 1), 2)
        autonomy({"kind": "F", "operands": [qa, qb],
                  "params": list(_f_params(rng))})
    for _ in range(n):
        control, target = rng.sample(range(1, n + 1), 2)
        autonomy({"kind": "CNOT", "operands": [control, target]}, target)

    for size in range(1, pairs + 1):
        for subset in itertools.combinations(range(1, pairs + 1), size):
            branches = []
            for bits in itertools.product((0, 1), repeat=size):
                label = sum(b << i for i, b in enumerate(bits))
                w = math.prod(weight(k, -1 if b else 1)
                              for k, b in zip(subset, bits))
                branches.append((label, w))
            branches.sort()
            add({"kind": "classical",
                 "register": [2 * k for k in subset],
                 "reference": [2 * k - 1 for k in subset]},
                {"branches": [{"label": float(label), "weight": w,
                               "value": label} for label, w in branches]})

    return Case(n, tuple(gates), tuple(queries),
                tuple(expected), _document(n, gates, records, queries))


GENERATORS = {
    "deep-narrow": deep_narrow,
    "wide": wide,
    "branch-queries": branch_queries,
}

WORKLOADS = tuple(GENERATORS)


def case(workload: str, seed: int, index: int) -> Case:
    """Document ``index`` of the workload's stream for ``seed``."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return GENERATORS[workload](rng)
