"""Tests for the independent state-vector oracle and picture cross-validation."""

import numpy as np
import pytest

from heisim import linalg, relative
from heisim.errors import CircuitMismatch, NonUnitary
from heisim.linalg import COMPONENTS, SIGMA_X, SIGMA_Z, max_abs
from heisim.network import Gate, Record, init_network, run_gates
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
            # The diagonal gate with eigenvalues s0..s3 = +-1.
            s0, s1, s2, s3 = rng.choice([-1.0, 1.0], size=4)
            gates.append(Gate.f(q[0], q[1], (s0 + s1 + s2 + s3) / 4,
                                (s0 + s1 - s2 - s3) / 4,
                                (s0 - s1 + s2 - s3) / 4,
                                (s0 - s1 - s2 + s3) / 4))
        else:
            gates.append(Gate.ccnot(q[0], q[1], q[2]))
    return gates


def bell_vector():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return v


class TestGateMatrix:
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
