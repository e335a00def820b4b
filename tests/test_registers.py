"""Tests for register observables, reversible synthesis, branchwise computation."""

import numpy as np
import pytest

from heisim import linalg, oracle, registers
from heisim.errors import (BadSubset, BranchNotSharp, NotReversible,
                           PreconditionFailed, SynthesisError,
                           ZeroWeightBranch)
from heisim.linalg import max_abs
from heisim.network import Gate, NetworkState, apply_gate, init_network
from heisim.registers import (ClassicalFunction, classical_branches,
                              compile_classical, couples, register_descriptor)


def basis_register_value(index: int, n: int, qubits) -> int:
    """Classical oracle: register value of one computational basis state.

    Qubit q contributes bit (index >> (n - q)) & 1 (slot 1 is the leftmost,
    most significant tensor factor); qubits are least-significant first.
    """
    value = 0
    for k, q in enumerate(qubits):
        value |= ((index >> (n - q)) & 1) << k
    return value


def run_fixed_gates(psi, gates, n):
    for gate in gates:
        psi = oracle.gate_matrix(gate, n) @ psi
    return psi


def sharp_register_value(state, qubits) -> float:
    """The register's mean over |phi|^2, checked to have zero variance."""
    prob = np.abs(state.phi) ** 2
    values = register_descriptor(state, qubits)
    mean = prob @ values
    assert prob @ values ** 2 - mean * mean == pytest.approx(0.0, abs=1e-12)
    return mean


class TestRegisterDescriptor:
    def test_fresh_register_sharp_zero(self):
        state = init_network(3)
        assert sharp_register_value(state, (1, 2, 3)) == pytest.approx(0.0)

    def test_not_sets_bit(self):
        state = apply_gate(init_network(2), Gate.not_(1))
        assert sharp_register_value(state, (1,)) == pytest.approx(1.0)

    def test_not_both_gives_three(self):
        state = init_network(2)
        for gate in (Gate.not_(1), Gate.not_(2)):
            state = apply_gate(state, gate)
        assert sharp_register_value(state, (1, 2)) == pytest.approx(3.0)

    def test_spectrum_matches_basis_enumeration(self):
        # Brute-force oracle: the register is diagonal in the computational
        # basis with the bit-pattern values of each basis state.
        state = init_network(3)
        qubits = (2, 3)
        expected = [basis_register_value(i, 3, qubits) for i in range(8)]
        assert list(register_descriptor(state, qubits)) == expected

    def test_integer_spectrum_after_gates(self):
        # The dense register sum_k 2^k P_{-1}(q_kz) of the evolved state is
        # U† diag(values) U: integer spectrum, diagonal in U's frame.
        state = init_network(2)
        for gate in (Gate.h(1), Gate.cnot(1, 2)):
            state = apply_gate(state, gate)
        qubits = (1, 2)
        dense = sum(2 ** k * 0.5 * (linalg.identity(4)
                                     - state.component(q, "z"))
                    for k, q in enumerate(qubits))
        values = register_descriptor(state, qubits)
        u = state.u
        assert max_abs(dense - u.conj().T @ np.diag(values) @ u) <= 1e-10
        eigenvalues = np.linalg.eigvalsh(dense)
        assert max(abs(v - round(v)) for v in eigenvalues) <= 1e-8
        assert set(round(v) for v in eigenvalues) <= {0, 1, 2, 3}

    def test_bad_subset(self):
        state = init_network(2)
        with pytest.raises(BadSubset):
            register_descriptor(state, ())
        with pytest.raises(BadSubset):
            register_descriptor(state, (1, 1))
        with pytest.raises(BadSubset):
            register_descriptor(state, (3,))


class TestClassicalFunction:
    def test_identity_table(self):
        f = ClassicalFunction.identity(2)
        assert f.table == (0, 1, 2, 3)

    def test_bitwise_not_table(self):
        f = ClassicalFunction.bitwise_not(2)
        assert f.table == (3, 2, 1, 0)

    def test_increment_table(self):
        f = ClassicalFunction.increment(2)
        assert f.table == (1, 2, 3, 0)

    def test_rejects_non_permutation(self):
        with pytest.raises(NotReversible):
            ClassicalFunction(2, (0, 0, 1, 2))


class TestCompileClassical:
    def check_truth_table(self, func, register, n):
        """Exhaustive state-vector check of a compiled gate list."""
        gates = compile_classical(func, register)
        dim = 2 ** n
        for value in range(2 ** func.bits):
            psi = np.zeros(dim, dtype=complex)
            psi[0] = 1.0
            prep = [Gate.not_(q) for k, q in enumerate(register)
                    if value >> k & 1]
            psi = run_fixed_gates(psi, prep + gates, n)
            index = int(np.argmax(np.abs(psi)))
            assert abs(abs(psi[index]) - 1.0) <= 1e-10
            got = basis_register_value(index, n, register)
            assert got == func(value)
            # Everything outside the register ends clean.
            for q in range(1, n + 1):
                if q not in register:
                    assert (index >> (n - q)) & 1 == 0
        return gates

    def test_identity_empty(self):
        assert compile_classical(ClassicalFunction.identity(2), (1, 2)) == []

    def test_bitwise_not_two_nots(self):
        gates = compile_classical(ClassicalFunction.bitwise_not(2), (1, 2))
        assert sorted(g.kind for g in gates) == ["NOT", "NOT"]
        assert sorted(g.operands[0] for g in gates) == [1, 2]

    def test_increment_truth_table(self):
        gates = self.check_truth_table(ClassicalFunction.increment(2),
                                       (1, 2), 2)
        assert all(g.kind in ("NOT", "CNOT", "CCNOT") for g in gates)

    def test_random_permutations_exhaustive(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            table = tuple(int(v) for v in rng.permutation(8))
            func = ClassicalFunction(3, table)
            self.check_truth_table(func, (1, 2, 3), 3)

    def test_three_control_needs_ancilla(self):
        # Incrementing 4 bits needs a 3-control Toffoli, and synthesis
        # places each Toffoli as one gate of at most two controls.
        func = ClassicalFunction.increment(4)
        with pytest.raises(SynthesisError, match="^3-control Toffoli"):
            compile_classical(func, (1, 2, 3, 4))

    def test_register_size_mismatch(self):
        with pytest.raises(BadSubset):
            compile_classical(ClassicalFunction.identity(2), (1,))


def entangled_pair():
    """1-bit registers: reference qubit 2 copied into qubit 1 (two branches)."""
    state = init_network(2)
    for gate in (Gate.h(2), Gate.cnot(2, 1)):
        state = apply_gate(state, gate)
    return state


def entangled_two_bit():
    """2-bit registers: qubits 3, 4 copied into 1, 2 (four branches)."""
    state = init_network(4)
    for gate in (Gate.h(3), Gate.h(4), Gate.cnot(3, 1), Gate.cnot(4, 2)):
        state = apply_gate(state, gate)
    return state


class TestClassicalBranches:
    def test_one_bit_branches(self):
        state = entangled_pair()
        branches, _ = classical_branches(state, (1,), (2,))
        values = {round(b.label): b.value for b in branches}
        assert values == {0: 0, 1: 1}
        for b in branches:
            assert b.weight == pytest.approx(0.5, abs=1e-10)
            assert abs(b.variance) <= 1e-9

    def test_four_equal_branches(self):
        state = entangled_two_bit()
        branches, _ = classical_branches(state, (1, 2), (3, 4))
        assert len(branches) == 4
        for b in branches:
            assert b.weight == pytest.approx(0.25, abs=1e-10)
            assert b.value == round(b.label)

    def test_unentangled_precondition(self):
        state = init_network(2)
        with pytest.raises(PreconditionFailed):
            classical_branches(state, (1,), (2,))

    def test_nan_branch_value_not_sharp(self):
        # A NaN phi (U's first column) passes the non-sharp precondition
        # and gives NaN branch weights, which are stopped before any branch
        # value is read.
        state = entangled_pair()
        u = state.u.copy()
        u[:, 0] = np.nan
        nan_state = NetworkState(state.n, state.t, u, state.tol)
        with pytest.raises(ZeroWeightBranch, match="weight nan"):
            classical_branches(nan_state, (1,), (2,))

    def test_nan_register_value_not_sharp(self, monkeypatch):
        # A NaN register on a live branch gives a NaN value, which must not
        # pass the sharpness test; the reference register reads as before.
        state = entangled_pair()
        read = register_descriptor

        def nan_register(state, qubits):
            values = read(state, qubits)
            return np.full(len(values), np.nan) if qubits == (1,) else values
        monkeypatch.setattr(registers, "register_descriptor", nan_register)
        with pytest.raises(BranchNotSharp,
                           match=r"^branch 0: register value nan"):
            classical_branches(state, (1,), (2,))


class TestVerifyClassicalStep:
    """A classical step compiled onto register M acts on M alone, so it
    leaves the reference's branches as they were: read again after the
    step, each has the same label and weight, and M's value moved by the
    step's function."""

    def check_step(self, state, func, m_qubits, s_qubits):
        """The state after one step of ``func``, and the branches before and
        after it, checked to keep their labels and weights."""
        before, _ = classical_branches(state, m_qubits, s_qubits)
        gates = compile_classical(func, m_qubits)
        assert not couples(gates, m_qubits)
        after = state
        for gate in gates:
            after = apply_gate(after, gate)
        branches, _ = classical_branches(after, m_qubits, s_qubits)
        assert [b.label for b in branches] == [b.label for b in before]
        for was, now in zip(before, branches):
            assert abs(now.weight - was.weight) <= 1e-12
        return after, before, branches

    def test_identity_step(self):
        _, before, after = self.check_step(entangled_pair(),
                                           ClassicalFunction.identity(1),
                                           (1,), (2,))
        assert [b.value for b in after] == [b.value for b in before]

    def test_not_step_swaps_branch_values(self):
        _, before, after = self.check_step(entangled_pair(),
                                           ClassicalFunction.bitwise_not(1),
                                           (1,), (2,))
        observed = {was.value: now.value for was, now in zip(before, after)}
        assert observed == {0: 1, 1: 0}

    def test_increment_sequence_matches_classical_twin(self):
        state = entangled_two_bit()
        func = ClassicalFunction.increment(2)
        branches, _ = classical_branches(state, (1, 2), (3, 4))
        expected = {round(b.label): round(b.label) for b in branches}
        for _ in range(4):
            state, _, branches = self.check_step(state, func, (1, 2), (3, 4))
            for b in branches:
                expected[round(b.label)] = func(expected[round(b.label)])
                assert b.value == expected[round(b.label)]

    def test_cross_boundary_interaction_flagged(self):
        assert couples([Gate.cnot(2, 1)], (1,))
        assert couples([Gate.not_(1), Gate.ccnot(1, 3, 2)], (1, 2))
        assert not couples([Gate.cnot(2, 1), Gate.h(3)], (1, 2))
        for func in (ClassicalFunction.identity(2),
                     ClassicalFunction.bitwise_not(2),
                     ClassicalFunction.increment(2)):
            assert not couples(compile_classical(func, (3, 1)), (3, 1))

    def test_register_hides_full_state(self):
        # Two networks differing by a z-rotation of a register qubit give
        # identical branch tables but visibly different descriptors.
        base = entangled_pair()
        rotated = apply_gate(base, Gate.rz(1, np.pi / 2))
        tables = []
        for state in (base, rotated):
            branches, _ = classical_branches(state, (1,), (2,))
            tables.append({round(b.label): (b.value, round(b.weight, 9))
                           for b in branches})
        assert tables[0] == tables[1]
        distance = max_abs(base.component(1, "x") - rotated.component(1, "x"))
        assert distance > 0.1
