"""Tests for the independent state-vector oracle and picture cross-validation."""

import itertools

import numpy as np
import pytest

from heisim import linalg, relative
from heisim.errors import CircuitMismatch, NonUnitary
from heisim.linalg import (COMPONENTS, SIGMA_X, SIGMA_Z, Tolerances,
                           max_abs)
from heisim.network import GATE_KINDS, Gate, Record, init_network, run_gates
from heisim.oracle import cross_validate, evolve, gate_matrix


def per_step_reference(run, timeline):
    """The per-step loop cross_validate replaces: 3n vdot comparisons per
    step against dense embedded Paulis."""
    n = run.n
    fixed = {(a, c): linalg.embed(linalg.PAULIS[c], a, n)
             for a in range(1, n + 1) for c in COMPONENTS}
    per_step = []
    for psi, state in zip(run.states, timeline):
        residuals = []
        phi = state.u @ state.psi
        for a in range(1, n + 1):
            rows = phi.reshape(2 ** (a - 1), 2, -1)
            up, down = rows[:, 0], rows[:, 1]
            xy = 2 * np.vdot(up, down)
            heis = {"x": xy.real, "y": xy.imag,
                    "z": np.vdot(up, up).real - np.vdot(down, down).real}
            for c in COMPONENTS:
                schr = np.vdot(psi, fixed[(a, c)] @ psi)
                residuals.append(abs(heis[c] - schr))
        per_step.append(linalg.worst(residuals))
    return per_step


def f_gate(a, b, signs):
    """The diagonal F gate with eigenvalues s0..s3."""
    s0, s1, s2, s3 = signs
    return Gate.f(a, b, (s0 + s1 + s2 + s3) / 4, (s0 + s1 - s2 - s3) / 4,
                  (s0 - s1 + s2 - s3) / 4, (s0 - s1 - s2 + s3) / 4)


def random_circuit(rng, n, depth):
    gates = []
    for _ in range(depth):
        q = [int(v) + 1 for v in rng.permutation(n)]
        kinds = ["NOT", "H", "RZ"] + (["CNOT", "F"] if n >= 2 else []) \
            + (["CCNOT"] if n >= 3 else [])
        kind = kinds[rng.integers(len(kinds))]
        if kind == "NOT":
            gates.append(Gate.not_(q[0]))
        elif kind == "H":
            gates.append(Gate.h(q[0]))
        elif kind == "RZ":
            gates.append(Gate.rz(q[0], float(rng.uniform(0, 7))))
        elif kind == "CNOT":
            gates.append(Gate.cnot(q[0], q[1]))
        elif kind == "F":
            gates.append(f_gate(q[0], q[1], rng.choice([-1.0, 1.0], size=4)))
        else:
            gates.append(Gate.ccnot(q[0], q[1], q[2]))
    return gates


def bell_vector():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return v


def dense_gate_matrix(gate, n):
    """The builder gate_matrix replaces: its sigma_z control factors enter
    as dense matrix products."""
    one = linalg.identity(2 ** n)
    x = {q: linalg.embed(SIGMA_X, q, n) for q in range(1, n + 1)}
    z = {q: linalg.embed(SIGMA_Z, q, n) for q in range(1, n + 1)}
    if gate.kind == "I":
        return one
    if gate.kind == "NOT":
        return x[gate.operands[0]]
    if gate.kind == "H":
        return (x[gate.operands[0]] + z[gate.operands[0]]) / np.sqrt(2)
    if gate.kind == "RZ":
        (theta,) = gate.params
        return (np.cos(theta / 2) * one
                - 1j * np.sin(theta / 2) * z[gate.operands[0]])
    if gate.kind == "CNOT":
        control, target = gate.operands
        return (0.5 * (one + z[control])
                + x[target] @ (0.5 * (one - z[control])))
    if gate.kind == "F":
        a, b = gate.operands
        alpha, beta, gamma, delta = gate.params
        return (alpha * one + beta * z[a] + gamma * z[b]
                + delta * (z[a] @ z[b]))
    c1, c2, target = gate.operands
    both = (0.5 * (one - z[c1])) @ (0.5 * (one - z[c2]))
    return one - both + x[target] @ both


def every_gate(n):
    """Every gate kind on every operand order of n qubits; F with each of
    its 16 sign patterns, RZ at two angles."""
    yield Gate("I")
    for q in range(1, n + 1):
        yield from (Gate.not_(q), Gate.h(q), Gate.rz(q, 0.7),
                    Gate.rz(q, -2.3))
    for a, b in itertools.permutations(range(1, n + 1), 2):
        yield Gate.cnot(a, b)
        for signs in itertools.product([1.0, -1.0], repeat=4):
            yield f_gate(a, b, signs)
    for operands in itertools.permutations(range(1, n + 1), 3):
        yield Gate.ccnot(*operands)


class TestGateMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_the_dense_product_builder(self, n):
        kinds = set()
        for gate in every_gate(n):
            kinds.add(gate.kind)
            assert np.array_equal(gate_matrix(gate, n),
                                  dense_gate_matrix(gate, n)), gate
        if n >= 3:
            assert kinds == set(GATE_KINDS)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_sparse_unitarity_defect_matches_dense(self, n):
        bound = 8 * 2 ** n * np.finfo(float).eps
        for gate in every_gate(n):
            u = gate_matrix(gate, n)
            dense = max_abs(u.conj().T @ u - linalg.identity(2 ** n))
            assert linalg.unitarity_defect(u) == pytest.approx(
                dense, abs=bound), gate

    def test_not_matrix(self):
        assert np.allclose(gate_matrix(Gate.not_(2), 2),
                           np.kron(linalg.identity(2), SIGMA_X))

    def test_hadamard_matrix(self):
        h = gate_matrix(Gate.h(1), 1)
        assert np.allclose(h, np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_cnot_matrix(self):
        expected = np.array([[1, 0, 0, 0],
                             [0, 1, 0, 0],
                             [0, 0, 0, 1],
                             [0, 0, 1, 0]], dtype=complex)
        assert np.allclose(gate_matrix(Gate.cnot(1, 2), 2), expected)


class TestEvolve:
    def test_empty_gate_list(self):
        psi = init_network(2).psi
        run = evolve(psi, [], 2)
        assert len(run.states) == 1
        assert max_abs(run.states[0] - psi) == 0

    def test_not_flips_basis_vector(self):
        run = evolve(init_network(2).psi, [Gate.not_(1)], 2)
        expected = np.zeros(4, dtype=complex)
        expected[2] = 1.0
        assert max_abs(run.states[-1] - expected) <= 1e-12

    def test_measurement_circuit_gives_bell(self):
        run = evolve(init_network(2).psi, [Gate.h(1), Gate.cnot(1, 2)], 2)
        final = run.states[-1]
        overlap = np.vdot(bell_vector(), final)
        assert abs(overlap) == pytest.approx(1.0, abs=1e-10)

    def test_norm_preserved(self):
        run = evolve(init_network(2).psi,
                     [Gate.h(1), Gate.rz(2, 1.1), Gate.cnot(1, 2)], 2)
        for psi in run.states:
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)

    def test_unnormalized_initial_rejected(self):
        with pytest.raises(NonUnitary):
            evolve(2 * init_network(1).psi, [], 1)

    def test_each_distinct_gate_is_checked_once_per_call(self, monkeypatch):
        checked = []
        check = linalg.check_unitary
        monkeypatch.setattr(linalg, "check_unitary", lambda u, tol: (
            checked.append(u.copy()), check(u, tol))[1])
        gates = [Gate.h(1), Gate.cnot(1, 2), Gate.h(1), Gate.rz(2, 0.3),
                 Gate.cnot(1, 2), Gate.rz(2, 0.9), Gate.h(1), Gate.rz(2, 0.3)]
        psi = init_network(2).psi
        run = evolve(psi, gates, 2)
        distinct = [Gate.h(1), Gate.cnot(1, 2), Gate.rz(2, 0.3),
                    Gate.rz(2, 0.9)]
        assert len(checked) == len(distinct)
        for u, gate in zip(checked, distinct):
            assert np.array_equal(u, gate_matrix(gate, 2))
        # The states are those of an unmemoised run.
        want = psi
        for gate, state in zip(gates, run.states[1:]):
            want = gate_matrix(gate, 2) @ want
            assert np.array_equal(state, want)
        # The verdicts belong to one call: a second run checks again.
        evolve(psi, gates, 2)
        assert len(checked) == 2 * len(distinct)

    def test_first_failing_step_is_named(self):
        # Within the fixed 1e-10 that Gate takes for F, beyond 1e-13.
        nearly = Gate.f(1, 2, 1.000000000001, 0.0, 0.0, 0.0)
        gates = [Gate.h(1), Gate.cnot(1, 2), Gate.h(2), nearly,
                 Gate.h(1), Gate.h(2), Gate.cnot(2, 1), nearly]
        psi = init_network(2).psi
        assert len(evolve(psi, gates, 2).states) == 9
        with pytest.raises(NonUnitary, match=r"^step 3: F on \(1, 2\): "
                           r"unitarity defect"):
            evolve(psi, gates, 2, Tolerances(unitary=1e-13))


class TestCrossValidate:
    def test_identity_circuit(self):
        gates = [Gate("I"), Gate("I")]
        timeline = run_gates(init_network(2), gates)
        run = evolve(timeline[0].psi, gates, 2)
        report = cross_validate(run, timeline)
        assert report.max_residual <= 1e-12

    def test_measurement_circuit(self):
        gates = [Gate.h(1), Gate.cnot(1, 2)]
        timeline = run_gates(init_network(2), gates)
        run = evolve(timeline[0].psi, gates, 2)
        report = cross_validate(run, timeline)
        assert len(report.per_step) == 3
        assert report.max_residual <= 1e-9

    def test_random_circuits(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            n = 3
            gates = []
            for _ in range(20):
                qubits = [int(q) + 1 for q in rng.permutation(n)]
                kind = rng.integers(5)
                gates.append((Gate.not_(qubits[0]), Gate.h(qubits[0]),
                              Gate.cnot(qubits[0], qubits[1]),
                              Gate.rz(qubits[0], float(rng.uniform(0, 7))),
                              Gate.ccnot(qubits[0], qubits[1], qubits[2])
                              )[kind])
            timeline = run_gates(init_network(n), gates)
            run = evolve(timeline[0].psi, gates, n)
            assert cross_validate(run, timeline).max_residual <= 1e-9

    def test_length_mismatch(self):
        gates = [Gate.h(1)]
        timeline = run_gates(init_network(2), gates)
        run = evolve(timeline[0].psi, [], 2)
        with pytest.raises(CircuitMismatch):
            cross_validate(run, timeline)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_per_step_reference(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(4):
            gates = random_circuit(rng, n, 30)
            timeline = run_gates(init_network(n), gates)
            run = evolve(timeline[0].psi, gates, n)
            report = cross_validate(run, timeline)
            want = per_step_reference(run, timeline)
            assert report.per_step == pytest.approx(want, abs=1e-14)
            assert report.max_residual == pytest.approx(max(want), abs=1e-14)
            assert report.max_residual <= 1e-9
            # The oracle of another circuit: residuals of order 1, which
            # both must compute alike.
            other = evolve(timeline[0].psi, random_circuit(rng, n, 30), n)
            report = cross_validate(other, timeline)
            want = per_step_reference(other, timeline)
            assert max(want) > 0.1
            assert report.per_step == pytest.approx(want, abs=1e-12)
            assert report.max_residual == max(report.per_step)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_skipped_gate_is_caught(self, n):
        # The oracle leaves out the Hadamard at step 3: from then on q_1x
        # reads 1 in the network and 0 in the oracle.
        gates = [Gate("I"), Gate("I"), Gate("I"), Gate.h(1)]
        timeline = run_gates(init_network(n), gates)
        skipped = gates[:3] + [Gate("I")]
        run = evolve(timeline[0].psi, skipped, n)
        report = cross_validate(run, timeline)
        assert report.per_step == pytest.approx(
            per_step_reference(run, timeline), abs=1e-14)
        assert report.per_step[:4] == pytest.approx([0.0] * 4, abs=1e-14)
        assert report.per_step[4] == pytest.approx(1.0, abs=1e-12)
        assert report.max_residual == pytest.approx(1.0, abs=1e-12)

    def test_one_nan_comparison_fails_its_step(self, monkeypatch):
        # Only the y comparisons read NaN; the x and z ones agree.
        embed = linalg.embed
        monkeypatch.setattr(linalg, "embed", lambda op, a, n: (
            np.full((2 ** n, 2 ** n), np.nan) if op is linalg.SIGMA_Y
            else embed(op, a, n)))
        gates = [Gate.h(1)]
        timeline = run_gates(init_network(2), gates)
        run = evolve(timeline[0].psi, gates, 2)
        report = cross_validate(run, timeline)
        assert all(np.isnan(r) for r in report.per_step)
        assert np.isnan(report.max_residual)

    def test_branch_weight_agreement(self):
        gates = [Gate.h(1), Gate.cnot(1, 2)]
        timeline = run_gates(init_network(2), gates)
        final = timeline[-1]
        run = evolve(timeline[0].psi, gates, 2)
        frames = relative.record_pvm(final, Record(final, 1, "z"))
        fixed_z = linalg.embed(SIGMA_Z, 1, 2)
        for frame in frames:
            fixed_proj = linalg.pauli_projector(fixed_z, int(frame.label))
            schr_weight = float(np.linalg.norm(fixed_proj @ run.states[-1]) ** 2)
            assert schr_weight == pytest.approx(frame.weight, abs=1e-9)
