"""Executable acceptance checks, shared by `heisim selftest` and the test suite.

Each criterion function returns a dict with ``name``, ``passed`` and
``detail``. Randomized checks draw from a generator seeded per criterion, so
a fixed seed gives byte-identical selftest output.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import linalg, network, oracle, registers, relative
from .errors import NonCommuting, ZeroWeightBranch
from .linalg import COMPONENTS, max_abs
from .network import Gate, Record, apply_gate, init_network


def _random_gate(rng, n: int) -> Gate:
    kinds = ["NOT", "H", "CNOT", "RZ"]
    if n >= 3:
        kinds.append("CCNOT")
    kind = kinds[rng.integers(len(kinds))]
    qubits = [int(q) + 1 for q in rng.permutation(n)]
    if kind == "NOT":
        return Gate.not_(qubits[0])
    if kind == "H":
        return Gate.h(qubits[0])
    if kind == "CNOT":
        return Gate.cnot(qubits[0], qubits[1])
    if kind == "RZ":
        return Gate.rz(qubits[0], float(rng.uniform(0, 2 * np.pi)))
    return Gate.ccnot(qubits[0], qubits[1], qubits[2])


def _random_f_params(rng) -> tuple[float, float, float, float]:
    """Draw a valid diagonal two-qubit gate: pick its four +-1 eigenvalues."""
    s = rng.choice([-1.0, 1.0], size=4)
    alpha = (s[0] + s[1] + s[2] + s[3]) / 4
    beta = (s[0] + s[1] - s[2] - s[3]) / 4
    gamma = (s[0] - s[1] + s[2] - s[3]) / 4
    delta = (s[0] - s[1] - s[2] + s[3]) / 4
    return (float(alpha), float(beta), float(gamma), float(delta))


def _triples(state) -> list:
    """Every qubit's (x, y, z) descriptor matrices."""
    return [[state.component(a, c) for c in COMPONENTS]
            for a in range(1, state.n + 1)]


def _branch_copies(state, qubit: int, record: Record) -> tuple:
    """Both branch copies of one qubit under a record's frames (P+, 1 - P+),
    P+ = 1/2(1 + q_r): the (x P, y P, z P, P) of each, dense.

    ``relative.foliate`` first certifies the record's state and raises
    NonCommuting unless P+ commutes with the qubit's descriptors, without
    which the products are not Hermitian.
    """
    relative.foliate(state, record, [qubit])
    one = linalg.identity(state.dim)
    plus = 0.5 * (one + record.state.component(record.qubit, record.name))
    mats = [state.component(qubit, c) for c in COMPONENTS]
    return tuple((*(m @ p for m in mats), p) for p in (plus, one - plus))


def section3_timeline():
    """The two-qubit measurement fixture: H on qubit 1, then CNOT 1 -> 2.

    The z-records of both qubits are taken at the final step, so they are
    the final state's z descriptors.
    """
    return network.run_gates(init_network(2), [Gate.h(1), Gate.cnot(1, 2)])


def criterion_1(seed: int) -> dict:
    """Pauli algebra is conserved over random deep circuits."""
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for _ in range(100):
        n = int(rng.choice([2, 3, 4]))
        depth = int(rng.integers(1, 51))
        state = network.run_gates(
            init_network(n), [_random_gate(rng, n) for _ in range(depth)])[-1]
        residual = network.algebra_residual(_triples(state))
        worst = linalg.worst((worst, residual))
    return {"name": "algebra-conservation", "passed": worst <= 1e-8,
            "detail": f"max residual {worst:.3e} (bound 1e-08)"}


def criterion_2(seed: int) -> dict:
    """Measurement fixture reproduces the closed-form t=2 descriptors and state."""
    final = section3_timeline()[-1]
    sx, sy, sz = (linalg.embed(linalg.PAULIS[c], 1, 2) for c in COMPONENTS)
    mx, my, mz = (linalg.embed(linalg.PAULIS[c], 2, 2) for c in COMPONENTS)
    expected_s = (sz @ mx, -sy @ mx, sx)
    expected_m = (mx, my @ sx, mz @ sx)
    worst = linalg.worst(
        max_abs(got - want) for triple, expected in
        zip(_triples(final), (expected_s, expected_m))
        for got, want in zip(triple, expected))

    run = oracle.evolve(init_network(2).phi, [Gate.h(1), Gate.cnot(1, 2)], 2)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    overlap = np.vdot(bell, run.states[-1])
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    state_err = max_abs(run.states[-1] / phase - bell)
    worst_all = linalg.worst((worst, state_err))
    return {"name": "measurement-fixture-exactness", "passed": worst_all <= 1e-10,
            "detail": f"descriptor err {worst:.3e}, state err {state_err:.3e} "
                      f"(bound 1e-10)"}


def criterion_3(seed: int) -> dict:
    """Branch values: absolute 0, conditional +-1, weights 1/2."""
    final = section3_timeline()[-1]
    mz = final.ket(2, "z")
    absolute = network.expectation(final, mz)
    plus, minus = relative.record_pvm(final, Record(final, 1, "z"))
    errs = [abs(absolute),
            abs(relative.relative_expectation(final, mz, plus) - 1.0),
            abs(relative.relative_expectation(final, mz, minus) + 1.0),
            abs(plus.weight - 0.5), abs(minus.weight - 0.5)]
    worst = linalg.worst(errs)
    return {"name": "relative-state-values", "passed": worst <= 1e-10,
            "detail": f"max deviation {worst:.3e} (bound 1e-10)"}


def criterion_4(seed: int) -> dict:
    """Relative Pauli algebra and frame-sum reconstruction."""
    final = section3_timeline()[-1]
    worst_alg = 0.0
    worst_sum = 0.0
    for holder, record_qubit in ((2, 1), (1, 2)):
        copies = _branch_copies(final, holder,
                                Record(final, record_qubit, "z"))
        for *triple, unit in copies:
            residual = network.algebra_residual([triple], unit=unit)
            worst_alg = linalg.worst((worst_alg, residual))
        for i, c in enumerate(COMPONENTS):
            total = sum(copy[i] for copy in copies)
            absolute = final.component(holder, c)
            worst_sum = linalg.worst((worst_sum, max_abs(total - absolute)))
    passed = worst_alg <= 1e-9 and worst_sum <= 1e-10
    return {"name": "relative-pauli-algebra", "passed": passed,
            "detail": f"algebra residual {worst_alg:.3e} (bound 1e-09), "
                      f"sum residual {worst_sum:.3e} (bound 1e-10)"}


def criterion_5(seed: int) -> dict:
    """Hidden rotation angle: invisible locally and branchwise, recoverable jointly."""
    thetas = [2 * np.pi * k / 16 for k in range(16)]
    worst_abs = 0.0
    worst_rel = 0.0
    matrices = {}
    recovered = []
    for theta in thetas:
        measured = [Gate.h(1), Gate.cnot(1, 2), Gate.rz(2, theta)]
        timeline = network.run_gates(init_network(2), measured)
        final = timeline[-1]
        for q in (1, 2):
            for c in COMPONENTS:
                value = network.expectation(final, final.ket(q, c))
                worst_abs = linalg.worst((worst_abs, abs(value)))
        # The q_1z record is taken at step 2, before the rotation.
        plus, minus = relative.record_pvm(final, Record(timeline[2], 1, "z"))
        for frame, target_z in ((plus, 1.0), (minus, -1.0)):
            values = [relative.relative_expectation(
                final, final.ket(2, c), frame) for c in COMPONENTS]
            worst_rel = linalg.worst((worst_rel, abs(values[0]),
                                      abs(values[1]), abs(values[2] - target_z)))
        if theta in (thetas[0], thetas[4]):  # 0 and pi/2
            matrices[theta] = _triples(final)[1]
        fin2 = network.run_gates(init_network(2),
                                 [*measured, Gate.cnot(1, 2)])[-1]
        recovered.append(network.expectation(fin2, fin2.ket(1, "x")))
    distance = max(max_abs(a - b) for a, b in
                   zip(matrices[thetas[0]], matrices[thetas[4]]))
    spread = max(recovered) - min(recovered)
    passed = (worst_abs <= 1e-10 and worst_rel <= 1e-10
              and distance > 0.1 and spread > 0.5)
    return {"name": "locally-inaccessible-information", "passed": passed,
            "detail": f"abs err {worst_abs:.3e}, rel err {worst_rel:.3e} "
                      f"(bounds 1e-10), matrix distance {distance:.3f} (> 0.1), "
                      f"recovered range {spread:.3f} (> 0.5)"}


def criterion_6(seed: int) -> dict:
    """Autonomy classification and branch-factor evolution equality."""
    rng = np.random.default_rng(seed + 6)
    final = section3_timeline()[-1]
    records = [Record(final, 1, "z"), Record(final, 2, "z")]
    worst_path = 0.0
    ok = True
    copies = _branch_copies(final, 1, records[1])
    for _ in range(20):
        alpha, beta, gamma, delta = _random_f_params(rng)
        gate = Gate.f(2, 1, alpha, beta, gamma, delta)
        result = relative.autonomy_check(final, gate, records)
        ok = ok and result.preserving
        # Two evaluation routes per branch: evolve absolutely then project,
        # or conjugate the relative copy with the branch factor.
        evolved = apply_gate(final, gate)
        for sign, (*triple, unit) in zip((1.0, -1.0), copies):
            # On the branch P = 1/2(1 + s q_2z) of F's first operand, F is
            # (alpha + s beta) P + (gamma + s delta) q_1z P; q_1z P is the
            # copy's z.
            factor = ((alpha + sign * beta) * unit
                      + (gamma + sign * delta) * triple[2])
            for c, mat in zip(COMPONENTS, triple):
                path_a = evolved.component(1, c) @ unit
                path_b = factor.conj().T @ mat @ factor
                worst_path = linalg.worst((worst_path,
                                           max_abs(path_a - path_b)))
    second_cnot = relative.autonomy_check(final, Gate.cnot(1, 2), records)
    ok = ok and not second_cnot.preserving
    for _ in range(10):
        qubit = int(rng.choice([1, 2]))
        rot = Gate.rz(qubit, float(rng.uniform(0, 2 * np.pi)))
        ok = ok and relative.autonomy_check(final, rot, records).preserving
    passed = ok and worst_path <= 1e-9
    return {"name": "autonomy-classification", "passed": passed,
            "detail": f"classifications {'ok' if ok else 'WRONG'}, "
                      f"branch-path residual {worst_path:.3e} (bound 1e-09)"}


def criterion_7(seed: int) -> dict:
    """Picture equivalence and branch-weight agreement on random circuits."""
    rng = np.random.default_rng(seed + 7)
    worst = 0.0
    worst_weight = 0.0
    for _ in range(200):
        n = int(rng.choice([2, 3]))
        depth = int(rng.integers(1, 21))
        gates = [_random_gate(rng, n) for _ in range(depth)]
        timeline = network.run_gates(init_network(n), gates)
        run = oracle.evolve(timeline[0].phi, gates, n)
        cross = oracle.cross_validate(run, timeline)
        worst = linalg.worst((worst, cross.max_residual))
        final = timeline[-1]
        psi_t = run.states[-1]
        for a in range(1, n + 1):
            frames = relative.record_pvm(final, Record(final, a, "z"))
            fixed_z = linalg.embed(linalg.SIGMA_Z, a, n)
            for frame in frames:
                fixed_proj = 0.5 * (linalg.identity(2 ** n)
                                    + frame.label * fixed_z)
                schr_weight = float(np.linalg.norm(fixed_proj @ psi_t) ** 2)
                worst_weight = linalg.worst((worst_weight,
                                             abs(schr_weight - frame.weight)))
    passed = worst <= 1e-9 and worst_weight <= 1e-9
    return {"name": "picture-equivalence", "passed": passed,
            "detail": f"state residual {worst:.3e}, "
                      f"weight residual {worst_weight:.3e} (bounds 1e-09)"}


def _classical_scenario(n, prep, m_qubits, s_qubits, functions):
    """Run a branchwise classical computation and its pure-classical twin.

    Each step's gates must act on M alone, so that they leave S's branches
    as they were: the branches read after every step must have the first
    read's labels and weights, and values that follow the twin's.
    """
    state = network.run_gates(init_network(n), prep)[-1]
    first, _ = registers.classical_branches(state, m_qubits, s_qubits)
    twin = [b.value for b in first]
    mismatches = 0
    for func in functions:
        gates = registers.compile_classical(func, m_qubits)
        mismatches += registers.couples(gates, m_qubits)
        state = network.run_gates(state, gates)[-1]
        branches, _ = registers.classical_branches(state, m_qubits, s_qubits)
        # Independent pure-classical twin of the same step.
        twin = [func(value) for value in twin]
        if [b.label for b in branches] != [b.label for b in first]:
            mismatches += 1
            continue
        for was, now, value in zip(first, branches, twin):
            mismatches += (abs(now.weight - was.weight) > 1e-12
                           or now.value != value)
    return mismatches


def criterion_8(seed: int) -> dict:
    """Branchwise classical computation matches a brute-force classical run."""
    one_bit = _classical_scenario(
        2, [Gate.h(2), Gate.cnot(2, 1)], (1,), (2,),
        [registers.ClassicalFunction.bitwise_not(1),
         registers.ClassicalFunction.identity(1),
         registers.ClassicalFunction.bitwise_not(1),
         registers.ClassicalFunction.identity(1)])
    two_bit = _classical_scenario(
        4, [Gate.h(3), Gate.h(4), Gate.cnot(3, 1), Gate.cnot(4, 2)],
        (1, 2), (3, 4),
        [registers.ClassicalFunction.increment(2),
         registers.ClassicalFunction.identity(2),
         registers.ClassicalFunction.bitwise_not(2),
         registers.ClassicalFunction.increment(2)])
    mismatches = one_bit + two_bit
    # Cross-boundary interaction must be detected.
    detected = registers.couples([Gate.cnot(2, 1)], (1,))
    passed = mismatches == 0 and detected
    return {"name": "quasi-classical-ensemble", "passed": passed,
            "detail": f"branch mismatches {mismatches}, "
                      f"interaction detected {detected}"}


def criterion_9(seed: int) -> dict:
    """Guards: sharp records cannot be foliated; zero weights raise, never NaN."""
    fresh = init_network(2)
    record = Record(fresh, 1, "z")
    _, minus = relative.record_pvm(fresh, record)
    try:
        relative.foliate(fresh, record, [1])
        sharp_guard = False
    except NonCommuting:
        sharp_guard = True
    try:
        relative.relative_expectation(fresh, fresh.ket(2, "z"), minus)
        zero_guard = False
    except ZeroWeightBranch:
        zero_guard = True
    passed = sharp_guard and zero_guard
    return {"name": "degenerate-guards", "passed": passed,
            "detail": f"sharp-record guard {sharp_guard}, "
                      f"zero-weight guard {zero_guard}"}


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9)


def run_all(seed: int = 0) -> Iterator[dict]:
    """Each criterion's result, as that criterion finishes."""
    return (fn(seed) for fn in CRITERIA)
