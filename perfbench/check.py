"""Output check: compare a rendered report with answers found another way.

Absolute ``expectation`` answers are compared with <psi_T|sigma|psi_T>, where
psi_T comes from the Schrodinger oracle run on the generator's own gate list
(not on the parsed document) and sigma is built here with ``numpy.kron``.
Answers the generator knows in closed form are compared field by field:
floats within ``TOL``; booleans, strings, integers and nulls exactly. Report
fields the expected answer does not name are not compared.
"""

from __future__ import annotations

import math

import numpy as np

from heisim import oracle
from heisim.network import Gate

# The program's default oracle tolerance; fixed here so that a report cannot
# loosen its own check.
TOL = 1e-9

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _pauli_on(qubit: int, component: str, n: int) -> np.ndarray:
    # Qubit 1 is the leftmost tensor factor.
    left = np.eye(2 ** (qubit - 1), dtype=complex)
    right = np.eye(2 ** (n - qubit), dtype=complex)
    return np.kron(np.kron(left, _PAULI[component]), right)


def final_state(case) -> np.ndarray:
    psi0 = np.zeros(2 ** case.qubits, dtype=complex)
    psi0[0] = 1.0
    gates = [Gate(kind, tuple(ops), tuple(params))
             for kind, ops, params in case.gates]
    return oracle.evolve(psi0, gates, case.qubits).states[-1]


def _mismatches(expected, got, where: str) -> list[str]:
    if isinstance(expected, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected a mapping, got {got!r}"]
        out = []
        for key, value in expected.items():
            if key not in got:
                out.append(f"{where}.{key}: missing")
            else:
                out += _mismatches(value, got[key], f"{where}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(got, list) or len(got) != len(expected):
            return [f"{where}: expected {len(expected)} items, got {got!r}"]
        out = []
        for i, (e, g) in enumerate(zip(expected, got)):
            out += _mismatches(e, g, f"{where}[{i}]")
        return out
    if isinstance(expected, float):
        ok = (isinstance(got, (int, float)) and not isinstance(got, bool)
              and math.isfinite(got) and abs(got - expected) <= TOL)
    else:  # bool, int, str, None: exact, and of the same type
        ok = type(got) is type(expected) and got == expected
    return [] if ok else [f"{where}: expected {expected!r}, got {got!r}"]


def check_report(case, report: dict) -> list[str]:
    """Every way ``report`` disagrees with the independent answers ([] if none)."""
    problems = []
    if report.get("qubits") != case.qubits or report.get("steps") != case.steps:
        problems.append(f"report is for {report.get('qubits')} qubits and "
                        f"{report.get('steps')} steps, expected {case.qubits} "
                        f"and {case.steps}")
    answers = report.get("queries")
    if not isinstance(answers, list) or len(answers) != len(case.queries):
        return problems + [f"expected {len(case.queries)} answers"]
    psi = None
    for i, (query, answer, expected) in enumerate(
            zip(case.queries, answers, case.expected)):
        where = f"queries[{i}]"
        problems += _mismatches(query["kind"], answer.get("kind"),
                                f"{where}.kind")
        if query["kind"] == "expectation" and "frame" not in query:
            if psi is None:
                psi = final_state(case)
            sigma = _pauli_on(query["qubit"], query["component"], case.qubits)
            value = float(np.real(np.vdot(psi, sigma @ psi)))
            problems += _mismatches(value, answer.get("value"),
                                    f"{where}.value (oracle)")
        if expected is not None:
            problems += _mismatches(expected, answer, where)
    return problems
