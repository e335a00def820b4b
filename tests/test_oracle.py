"""Tests for the independent state-vector oracle and picture cross-validation."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from heisim import linalg, network, oracle, registers, relative
from heisim.errors import CircuitMismatch, NonUnitary
from heisim.linalg import SIGMA_X, SIGMA_Z, Tolerances, max_abs
from heisim.network import GATE_KINDS, Gate, Record, init_network, run_gates
from heisim.oracle import cross_validate, evolve, gate_matrix


def per_step_reference(run, timeline):
    """The per-step loop cross_validate replaces: each step's largest entry
    of |U_t psi_0 - psi_t|, U_t read from a state of every step."""
    return [max_abs(state.u @ run.states[0] - psi)
            for psi, state in zip(run.states, timeline)]


def f_gate(a, b, signs):
    """The diagonal F gate with eigenvalues s0..s3."""
    s0, s1, s2, s3 = signs
    return Gate.f(a, b, (s0 + s1 + s2 + s3) / 4, (s0 + s1 - s2 - s3) / 4,
                  (s0 - s1 + s2 - s3) / 4, (s0 - s1 - s2 + s3) / 4)


def planted_f(a, b, alpha):
    """F on (a, b) with params (alpha, 0, 0, 0), planted past the sign
    rounding of ``Gate``: its unitarity defect is ||alpha| - 1|."""
    gate = Gate.f(a, b, 1.0, 0.0, 0.0, 0.0)
    object.__setattr__(gate, "params", (alpha, 0.0, 0.0, 0.0))
    return gate


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
    """The definitional builder: each gate summed from embedded generators,
    its sigma_z control factors entering as dense matrix products."""
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


def parts_of(gates, n):
    """d0, d1 and targets of the gates, one row each, from one call."""
    return oracle._parts(list(gates), oracle._sigma_z(n))


def unitarity_defect(gate, n):
    return oracle._unitarity_defects(*parts_of([gate], n))[0]


def scatter(d0, d1, target):
    """The dense D0 + X_t D1 of one row of parts."""
    dim = len(d0)
    u = np.zeros((dim, dim), dtype=complex)
    j = np.arange(dim)
    u[j, j] = d0
    if target:
        u[j ^ (dim >> target), j] = d1
    return u


def flip(m, target):
    """X_t m as a view: the last axis of m split as (2^(t-1), 2, rest) with
    the target's bit reversed."""
    return m.reshape(m.shape[:-1] + (2 ** (target - 1), 2, -1))[..., ::-1, :]


def reference_evolve(psi, gates, n):
    """The per-step loop evolve replaces: each step from its own gate's
    parts, built afresh, as d0 psi + X_t (d1 psi) through a view."""
    z = oracle._sigma_z(n)
    states = np.empty((len(gates) + 1, 2 ** n), dtype=complex)
    states[0] = psi
    for step, gate in enumerate(gates):
        (d0,), (d1,), (target,) = oracle._parts([gate], z)
        np.multiply(d0, states[step], out=states[step + 1])
        if target:
            flipped = flip(d1 * states[step], target)
            halves = states[step + 1].reshape(flipped.shape)
            halves += flipped
    return states


class TestGateMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_the_dense_product_builder(self, n):
        kinds = set()
        for gate in every_gate(n):
            kinds.add(gate.kind)
            assert (gate_matrix(gate, n).tobytes()
                    == dense_gate_matrix(gate, n).tobytes()), gate
        if n >= 3:
            assert kinds == set(GATE_KINDS)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_sparse_unitarity_defect_matches_dense(self, n, monkeypatch):
        bound = 8 * 2 ** n * np.finfo(float).eps
        for gate in every_gate(n):
            u = gate_matrix(gate, n)
            dense = max_abs(u.conj().T @ u - linalg.identity(2 ** n))
            assert unitarity_defect(gate, n) == pytest.approx(
                dense, abs=bound), gate
        # A NaN on the diagonal reads NaN and fails the check.
        parts = oracle._parts

        def nan_first(gates, z):
            d0, d1, targets = parts(gates, z)
            d0[:, 0] = np.nan
            return d0, d1, targets

        monkeypatch.setattr(oracle, "_parts", nan_first)
        for gate in (Gate("I"), Gate.h(n), Gate.rz(1, 0.7)):
            assert np.isnan(unitarity_defect(gate, n))
            with pytest.raises(NonUnitary, match=r"^step 0: .*"
                               r"unitarity defect nan > "):
                evolve(init_network(n).phi, [gate], n)

    @pytest.mark.parametrize("kind", GATE_KINDS)
    def test_one_allocation_per_build(self, kind):
        # The zeroed 16 * 4^n bytes of the matrix, and vectors of 2^n.
        n = 8
        gate = next(g for g in every_gate(n) if g.kind == kind)
        tracemalloc.start()
        try:
            gate_matrix(gate, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 16 * 4 ** n

    def test_shares_no_code_with_the_network(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle reached network code")

        gates = list(every_gate(4))
        assert {gate.kind for gate in gates} == set(GATE_KINDS)
        timeline = run_gates(init_network(4), gates)
        psi = timeline[0].phi
        for name in ("_apply_local", "_row_blocks", "local_matrix",
                     "_characteristic", "apply_gate", "build_gate_unitary",
                     "apply_pauli", "_multiply_rows", "_gather"):
            monkeypatch.setattr(network, name, forbidden)
        monkeypatch.setattr(registers, "register_descriptor", forbidden)
        run = evolve(psi, gates, 4)
        assert len(run.states) == len(gates) + 1
        assert cross_validate(run, timeline).max_residual <= 1e-9
        for gate in gates:
            gate_matrix(gate, 4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_vector_step_equals_the_matrix_product(self, n):
        rng = np.random.default_rng(n)
        psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        psi /= np.linalg.norm(psi)
        for gate in every_gate(n):
            step = evolve(psi, [gate], n).states[1]
            assert max_abs(step - gate_matrix(gate, n) @ psi) <= 1e-15, gate

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


class TestParts:
    """The one builder of every distinct gate's parts, and their defects."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_one_mixed_call_equals_the_dense_builder(self, n):
        gates = list(every_gate(n))
        d0, d1, targets = parts_of(gates, n)
        assert d0.shape == d1.shape == (len(gates), 2 ** n)
        for row, gate in enumerate(gates):
            assert (scatter(d0[row], d1[row], targets[row]).tobytes()
                    == dense_gate_matrix(gate, n).tobytes()), gate
            # A diagonal gate has no target and d1 = 0.
            assert bool(targets[row]) == bool(np.any(d1[row])), gate

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_each_row_defect_matches_the_dense_one(self, n, monkeypatch):
        bound = 8 * 2 ** n * np.finfo(float).eps
        gates = list(every_gate(n))
        defects = oracle._unitarity_defects(*parts_of(gates, n))
        for defect, gate in zip(defects, gates):
            u = dense_gate_matrix(gate, n)
            dense = max_abs(u.conj().T @ u - linalg.identity(2 ** n))
            assert defect == pytest.approx(dense, abs=bound), gate
        # Chunks of three rows, the last one short, give the same defects.
        monkeypatch.setattr(oracle, "_CHUNK_BYTES", 3 * 16 * 2 ** n)
        assert len(gates) % 3
        chunked = oracle._unitarity_defects(*parts_of(gates, n))
        assert chunked.tobytes() == defects.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", [0, 1])
    def test_a_non_finite_part_fails_only_its_gate(self, value, part):
        gates = list(every_gate(3))
        d0, d1, targets = parts_of(gates, 3)
        bad = [row for row, gate in enumerate(gates)
               if part == 0 or targets[row]][::7]
        for row in bad:
            (d0, d1)[part][row, row % 8] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            defects = oracle._unitarity_defects(d0, d1, targets)
        for row, defect in enumerate(defects):
            if row in bad:
                assert linalg.exceeds(defect, 1e300), gates[row]
            else:
                assert defect <= 1e-15, gates[row]

    def test_the_earliest_of_two_failing_steps_is_named(self):
        # Both F gates are beyond 1e-13; the second distinct one fails at
        # the earlier step.
        late = planted_f(1, 2, 1.000000000001)
        early = planted_f(2, 1, -1.000000000002)
        psi = init_network(2).phi
        tight = Tolerances(unitary=1e-13)
        for gates, step, operands in (
                ([Gate.h(1), late, Gate.h(2), early, late], 1, r"\(1, 2\)"),
                ([Gate.h(1), early, late, Gate.h(2), early], 1, r"\(2, 1\)"),
                ([Gate.h(1), Gate.h(2), Gate.cnot(1, 2), late, early], 3,
                 r"\(1, 2\)")):
            with pytest.raises(NonUnitary, match=rf"^step {step}: F on "
                               rf"{operands}: unitarity defect"):
                evolve(psi, gates, 2, tight)


class TestEvolve:
    def test_empty_gate_list(self):
        psi = init_network(2).phi
        run = evolve(psi, [], 2)
        assert len(run.states) == 1
        assert max_abs(run.states[0] - psi) == 0

    def test_not_flips_basis_vector(self):
        run = evolve(init_network(2).phi, [Gate.not_(1)], 2)
        expected = np.zeros(4, dtype=complex)
        expected[2] = 1.0
        assert max_abs(run.states[-1] - expected) <= 1e-12

    def test_measurement_circuit_gives_bell(self):
        run = evolve(init_network(2).phi, [Gate.h(1), Gate.cnot(1, 2)], 2)
        final = run.states[-1]
        overlap = np.vdot(bell_vector(), final)
        assert abs(overlap) == pytest.approx(1.0, abs=1e-10)

    def test_norm_preserved(self):
        run = evolve(init_network(2).phi,
                     [Gate.h(1), Gate.rz(2, 1.1), Gate.cnot(1, 2)], 2)
        for psi in run.states:
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)

    def test_unnormalized_initial_rejected(self):
        with pytest.raises(NonUnitary):
            evolve(2 * init_network(1).phi, [], 1)

    def test_each_distinct_gate_is_checked_once_per_call(self, monkeypatch):
        checked = []
        defects = oracle._unitarity_defects
        monkeypatch.setattr(oracle, "_unitarity_defects", lambda *parts: (
            checked.append([part.copy() for part in parts]),
            defects(*parts))[1])
        gates = [Gate.h(1), Gate.cnot(1, 2), Gate.h(1), Gate.rz(2, 0.3),
                 Gate.cnot(1, 2), Gate.rz(2, 0.9), Gate.h(1), Gate.rz(2, 0.3)]
        psi = init_network(2).phi
        run = evolve(psi, gates, 2)
        # One pass over the distinct gates, in the order of their first step.
        distinct = [Gate.h(1), Gate.cnot(1, 2), Gate.rz(2, 0.3),
                    Gate.rz(2, 0.9)]
        assert len(checked) == 1
        for got, want in zip(checked[0], parts_of(distinct, 2)):
            assert got.tobytes() == want.tobytes()
        # The states are those of an unmemoised run: each step from parts
        # built afresh.
        assert run.states.tobytes() == reference_evolve(psi, gates,
                                                        2).tobytes()
        # The verdicts belong to one call: a second run checks again.
        evolve(psi, gates, 2)
        assert len(checked) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_the_per_step_reference(self, n):
        rng = np.random.default_rng(300 + n)
        psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        psi /= np.linalg.norm(psi)
        for gates in (list(every_gate(n)), random_circuit(rng, n, 80),
                      random_circuit(rng, n, 80)[:5] * 9):
            run = evolve(psi, gates, n)
            assert (run.states.tobytes()
                    == reference_evolve(psi, gates, n).tobytes())

    def test_first_failing_step_is_named(self):
        # Within the fixed 1e-10 that Gate takes for F, beyond 1e-13.
        nearly = planted_f(1, 2, 1.000000000001)
        gates = [Gate.h(1), Gate.cnot(1, 2), Gate.h(2), nearly,
                 Gate.h(1), Gate.h(2), Gate.cnot(2, 1), nearly]
        psi = init_network(2).phi
        assert len(evolve(psi, gates, 2).states) == 9
        with pytest.raises(NonUnitary, match=r"^step 3: F on \(1, 2\): "
                           r"unitarity defect"):
            evolve(psi, gates, 2, Tolerances(unitary=1e-13))
        # Built by Gate, the same F is stored as its eigenvalues' signs.
        built = Gate.f(1, 2, 1.000000000001, 0.0, 0.0, 0.0)
        assert built.params == (1.0, 0.0, 0.0, 0.0)
        exact = [built if gate is nearly else gate for gate in gates]
        run = evolve(psi, exact, 2, Tolerances(unitary=1e-13))
        assert len(run.states) == 9


class TestCrossValidate:
    def test_identity_circuit(self):
        gates = [Gate("I"), Gate("I")]
        timeline = run_gates(init_network(2), gates)
        run = evolve(timeline[0].phi, gates, 2)
        report = cross_validate(run, timeline)
        assert report.max_residual <= 1e-12

    def test_measurement_circuit(self):
        gates = [Gate.h(1), Gate.cnot(1, 2)]
        timeline = run_gates(init_network(2), gates)
        run = evolve(timeline[0].phi, gates, 2)
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
            run = evolve(timeline[0].phi, gates, n)
            assert cross_validate(run, timeline).max_residual <= 1e-9

    def test_length_mismatch(self):
        gates = [Gate.h(1)]
        timeline = run_gates(init_network(2), gates)
        run = evolve(timeline[0].phi, [], 2)
        with pytest.raises(CircuitMismatch):
            cross_validate(run, timeline)

    def test_qubit_count_mismatch(self):
        gates = [Gate.h(1)]
        timeline = run_gates(init_network(2), gates)
        run = evolve(init_network(3).phi, gates, 3)
        with pytest.raises(CircuitMismatch,
                           match=r"oracle states \(2, 8\) vs network "
                           r"\(2, 4\)"):
            cross_validate(run, timeline)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_per_step_reference(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(4):
            gates = random_circuit(rng, n, 30)
            timeline = run_gates(init_network(n), gates)
            run = evolve(timeline[0].phi, gates, n)
            report = cross_validate(run, timeline)
            want = per_step_reference(run, timeline)
            assert report.per_step == pytest.approx(want, abs=1e-14)
            assert report.max_residual == pytest.approx(max(want), abs=1e-14)
            assert report.max_residual <= 1e-9
            # The oracle of another circuit: residuals of order 1, which
            # both must compute alike.
            other = evolve(timeline[0].phi, random_circuit(rng, n, 30), n)
            report = cross_validate(other, timeline)
            want = per_step_reference(other, timeline)
            assert max(want) > 0.1
            assert report.per_step == pytest.approx(want, abs=1e-12)
            assert report.max_residual == max(report.per_step)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_skipped_gate_is_caught(self, n):
        # The oracle leaves out the Hadamard at step 3: from then on the
        # network's phi has 1/sqrt(2) where the oracle's psi has 0.
        gates = [Gate("I"), Gate("I"), Gate("I"), Gate.h(1)]
        timeline = run_gates(init_network(n), gates)
        skipped = gates[:3] + [Gate("I")]
        run = evolve(timeline[0].phi, skipped, n)
        report = cross_validate(run, timeline)
        assert report.per_step == pytest.approx(
            per_step_reference(run, timeline), abs=1e-14)
        assert report.per_step[:4] == pytest.approx([0.0] * 4, abs=1e-14)
        assert report.per_step[4] == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert report.max_residual == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_one_nan_comparison_fails_its_step(self):
        # One entry of one oracle state reads NaN; every other agrees.
        gates = [Gate.h(1), Gate.cnot(1, 2), Gate.h(2)]
        timeline = run_gates(init_network(2), gates)
        run = evolve(timeline[0].phi, gates, 2)
        run.states[2, 3] = np.nan
        report = cross_validate(run, timeline)
        assert [np.isnan(r) for r in report.per_step] == [False, False,
                                                          True, False]
        assert np.isnan(report.max_residual)

    def test_compares_a_block_of_rows_at_a_time(self):
        # At n=8 a block is 256 rows of 4 KiB: three full blocks and a
        # short one, never a 4 MiB difference of the whole stacks.
        rng = np.random.default_rng(7)
        shape = (1001, 2 ** 8)
        phis = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        states = phis + 1e-3 * rng.normal(size=shape)
        want = np.max(np.abs(phis - states), axis=1)
        timeline = network.Timeline({}, phis)
        run = oracle.SchrodingerRun(states)
        tracemalloc.start()
        try:
            report = cross_validate(run, timeline)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.per_step == tuple(want.tolist())
        assert report.max_residual == want.max()
        assert peak < 2 * oracle._CHUNK_BYTES, peak

    def test_a_locally_hidden_phase_is_caught(self):
        # RZ on one half of a Bell pair changes no <sigma_ac>: x and y of
        # each qubit stay 0 and z stays 0. The states differ by
        # |e^(-0.45i) - e^(-0.3i)| / sqrt(2) = sqrt(2) sin(0.075) at step 3.
        timeline = run_gates(init_network(2), [Gate.h(1), Gate.cnot(1, 2),
                                               Gate.rz(2, 0.9)])
        run = evolve(timeline[0].phi, [Gate.h(1), Gate.cnot(1, 2),
                                       Gate.rz(2, 0.6)], 2)
        report = cross_validate(run, timeline)
        assert report.per_step[:3] == pytest.approx([0.0] * 3, abs=1e-15)
        assert report.per_step[3] == pytest.approx(
            np.sqrt(2) * np.sin(0.075), abs=1e-12)
        assert report.per_step[3] > 0.1

    def test_branch_weight_agreement(self):
        gates = [Gate.h(1), Gate.cnot(1, 2)]
        timeline = run_gates(init_network(2), gates)
        final = timeline[-1]
        run = evolve(timeline[0].phi, gates, 2)
        frames = relative.record_pvm(final, Record(final, 1, "z"))
        fixed_z = linalg.embed(SIGMA_Z, 1, 2)
        for frame in frames:
            fixed_proj = 0.5 * (linalg.identity(4) + frame.label * fixed_z)
            schr_weight = float(np.linalg.norm(fixed_proj @ run.states[-1]) ** 2)
            assert schr_weight == pytest.approx(frame.weight, abs=1e-9)
