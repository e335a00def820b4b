"""Tests for descriptor networks: gates, conjugation, sharpness, entanglement."""

import dataclasses
import gc
import itertools
import tracemalloc
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from heisim import acceptance, linalg, network, runner
from heisim.circuit import load_circuit
from heisim.errors import (DimMismatch, SizeLimit, ToleranceViolation,
                           ValidationError)
from heisim.linalg import COMPONENTS, SIGMA_X, SIGMA_Y, SIGMA_Z, max_abs
from heisim.network import (Gate, apply_gate, are_entangled,
                            build_gate_unitary, correlation, expectation,
                            f_unitarity_defect, init_network, is_sharp,
                            run_gates)

triples = acceptance._triples

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"


def dense_expectation(state, observable):
    """<Psi| A |Psi> of a 2^n x 2^n matrix, computed here as the reference."""
    psi = linalg.identity(state.dim)[0]  # Psi = e_0
    return np.vdot(psi, observable @ psi)


def measurement_timeline():
    """H on qubit 1 then CNOT 1 -> 2."""
    return run_gates(init_network(2), [Gate.h(1), Gate.cnot(1, 2)])


class TestInitNetwork:
    def test_single_qubit_generators(self):
        x, y, z = triples(init_network(1))[0]
        assert np.allclose(x, SIGMA_X)
        assert np.allclose(y, SIGMA_Y)
        assert np.allclose(z, SIGMA_Z)

    def test_two_qubit_generators(self):
        state = init_network(2)
        one = linalg.identity(2)
        (x1, y1, z1), (x2, y2, z2) = triples(state)
        assert np.allclose(x1, np.kron(SIGMA_X, one))
        assert np.allclose(y1, np.kron(SIGMA_Y, one))
        assert np.allclose(z1, np.kron(SIGMA_Z, one))
        assert np.allclose(x2, np.kron(one, SIGMA_X))
        assert np.allclose(y2, np.kron(one, SIGMA_Y))
        assert np.allclose(z2, np.kron(one, SIGMA_Z))

    def test_all_z_sharp_at_one(self):
        state = init_network(3)
        for a in (1, 2, 3):
            assert expectation(state, state.ket(a, "z")) == pytest.approx(1.0)
            assert is_sharp(state, state.ket(a, "z")) == pytest.approx(1.0)

    def test_heisenberg_state_is_first_basis_vector(self):
        state = init_network(2)
        assert np.allclose(state.phi, [1, 0, 0, 0])

    def test_a_state_is_its_unitary(self):
        # No fixed-state field: phi is U's first column, bitwise, at every
        # kept step of random runs.
        assert [f.name for f in dataclasses.fields(network.NetworkState)] \
            == ["n", "t", "u", "tol", "_cache"]
        rng = np.random.default_rng(21)
        for n in range(1, 7):
            timeline = run_gates(init_network(n),
                                 list(random_circuit(rng, n, 20)))
            for state in timeline:
                assert state.phi.tobytes() == state.u[:, 0].tobytes(), \
                    (n, state.t)

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            init_network(11)
        with pytest.raises(SizeLimit):
            init_network(0)


class TestGateValidation:
    """A Gate is checked when it is built; only the operand range waits for
    validate(n)."""

    def test_wrong_arity(self):
        with pytest.raises(ValidationError):
            Gate("CNOT", (1,))

    def test_repeated_operands(self):
        with pytest.raises(ValidationError):
            Gate.cnot(1, 1)

    def test_operand_out_of_range(self):
        gate = Gate.not_(3)
        with pytest.raises(ValidationError, match="operand 3 out of range"):
            gate.validate(2)
        with pytest.raises(ValidationError, match="operand 3 out of range"):
            apply_gate(init_network(2), gate)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            Gate("SWAP", (1, 2))

    def test_rz_requires_theta(self):
        with pytest.raises(ValidationError):
            Gate("RZ", (1,))

    def test_f_all_half_rejected(self):
        # Three of the four sign combinations give modulus != 1.
        assert f_unitarity_defect((0.5, 0.5, 0.5, 0.5)) == pytest.approx(1.0)
        with pytest.raises(ValidationError):
            Gate.f(1, 2, 0.5, 0.5, 0.5, 0.5)

    def test_f_identity_accepted(self):
        assert f_unitarity_defect((1.0, 0.0, 0.0, 0.0)) == 0.0
        Gate.f(1, 2, 1.0, 0.0, 0.0, 0.0).validate(2)

    # Deferred: building one of these gates raises, so it must happen in the
    # test body, not while pytest collects the parameters.
    @pytest.mark.parametrize("gate", [
        partial(Gate, "RZ", (1,), (float("nan"),)),
        partial(Gate, "RZ", (1,), (float("inf"),)),
        partial(Gate, "F", (1, 2), (float("nan"), 0.0, 0.0, 0.0))])
    def test_non_finite_params_rejected(self, gate):
        with pytest.raises(ValidationError, match="finite"):
            gate()

    def test_custom_requires_builder(self):
        with pytest.raises(ValidationError):
            Gate("CUSTOM", (1,))


class TestBuildGateUnitary:
    def test_identity(self):
        state = init_network(2)
        assert np.allclose(build_gate_unitary(state, Gate("I")),
                           linalg.identity(4))

    def test_not_is_embedded_sigma_x(self):
        state = init_network(2)
        assert np.allclose(build_gate_unitary(state, Gate.not_(2)),
                           np.kron(linalg.identity(2), SIGMA_X))

    def test_cnot_fresh_matrix(self):
        # Control active when its z-value is -1, i.e. on the second basis
        # state of the control qubit: indices 2 and 3 swap.
        state = init_network(2)
        expected = np.array([[1, 0, 0, 0],
                             [0, 1, 0, 0],
                             [0, 0, 0, 1],
                             [0, 0, 1, 0]], dtype=complex)
        assert np.allclose(build_gate_unitary(state, Gate.cnot(1, 2)), expected)

    def test_ccnot_fresh_matrix(self):
        state = init_network(3)
        u = build_gate_unitary(state, Gate.ccnot(1, 2, 3))
        expected = linalg.identity(8)
        expected[[6, 7]] = expected[[7, 6]]
        assert np.allclose(u, expected)

    def test_gates_are_unitary(self):
        state = init_network(2)
        for gate in (Gate.h(1), Gate.cnot(1, 2), Gate.rz(2, 0.7),
                     Gate.f(1, 2, 0.5, 0.5, 0.5, -0.5)):
            u = build_gate_unitary(state, gate)
            assert max_abs(u.conj().T @ u - linalg.identity(4)) <= 1e-12


class TestApplyGate:
    def test_not_action(self):
        state = init_network(2)
        bx, by, bz = triples(state)[0]
        after = apply_gate(state, Gate.not_(1))
        x, y, z = triples(after)[0]
        assert max_abs(x - bx) <= 1e-12
        assert max_abs(y + by) <= 1e-12
        assert max_abs(z + bz) <= 1e-12
        assert after.t == 1

    def test_not_locality(self):
        state = init_network(3)
        after = apply_gate(state, Gate.not_(2))
        for q in (1, 3):
            for c in COMPONENTS:
                delta = max_abs(after.component(q, c) - state.component(q, c))
                assert delta <= 1e-12

    def test_hadamard_action(self):
        state = init_network(2)
        bx, by, bz = triples(state)[0]
        x, y, z = triples(apply_gate(state, Gate.h(1)))[0]
        assert max_abs(x - bz) <= 1e-12
        assert max_abs(y + by) <= 1e-12
        assert max_abs(z - bx) <= 1e-12

    def test_rz_action_random_angles(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            theta = float(rng.uniform(0, 2 * np.pi))
            state = init_network(2)
            bx, by, bz = triples(state)[1]
            x, y, z = triples(apply_gate(state, Gate.rz(2, theta)))[1]
            cos, sin = np.cos(theta), np.sin(theta)
            assert max_abs(x - (cos * bx - sin * by)) <= 1e-12
            assert max_abs(y - (cos * by + sin * bx)) <= 1e-12
            assert max_abs(z - bz) <= 1e-12

    def test_measurement_fixture_descriptors(self):
        # Closed forms of both qubits' descriptors after H then CNOT,
        # written directly in terms of the initial generators.
        final = measurement_timeline()[-1]
        paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
        sx, sy, sz = (linalg.embed(p, 1, 2) for p in paulis)
        mx, my, mz = (linalg.embed(p, 2, 2) for p in paulis)
        expected = {
            (1, "x"): sz @ mx, (1, "y"): -sy @ mx, (1, "z"): sx,
            (2, "x"): mx, (2, "y"): my @ sx, (2, "z"): mz @ sx,
        }
        for (q, c), want in expected.items():
            assert max_abs(final.component(q, c) - want) <= 1e-10

    def test_cnot_at_t1_reproduces_fixture(self):
        state = apply_gate(init_network(2), Gate.h(1))
        u = build_gate_unitary(state, Gate.cnot(1, 2))
        sx = linalg.embed(SIGMA_X, 1, 2)
        mx = linalg.embed(SIGMA_X, 2, 2)
        # Conjugating the measured qubit's z-descriptor (currently sigma_x on
        # slot 1) must leave it fixed, and must copy it onto the meter's z.
        assert max_abs(u.conj().T @ sx @ u - sx) <= 1e-10
        mz = linalg.embed(SIGMA_Z, 2, 2)
        assert max_abs(u.conj().T @ mz @ u - mz @ sx) <= 1e-10

    def test_algebra_conserved_random_circuits(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            n = int(rng.choice([2, 3]))
            state = init_network(n)
            for _ in range(int(rng.integers(1, 51))):
                kind = rng.integers(4)
                qubits = [int(q) + 1 for q in rng.permutation(n)]
                gate = (Gate.not_(qubits[0]), Gate.h(qubits[0]),
                        Gate.cnot(qubits[0], qubits[1]),
                        Gate.rz(qubits[0], float(rng.uniform(0, 2 * np.pi)))
                        )[kind]
                state = apply_gate(state, gate)
            assert network.algebra_residual(triples(state)) <= 1e-8


def tensordot_apply(g, operands, m):
    """g m on the operand axes of m's row index, as one dense contraction of
    g's 2^k x 2^k entries and an axis move: the reference for
    ``network._apply_local``."""
    k = len(operands)
    n = m.shape[0].bit_length() - 1
    axes = [q - 1 for q in operands]
    out = np.tensordot(g.reshape((2,) * 2 * k), m.reshape((2,) * n + (-1,)),
                       axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes).reshape(m.shape)


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(z)[0]


def commutator_blocks(g, k):
    """[g, sigma] for sigma each Pauli on each of g's k operand slots, the
    blocks ``record_commutator`` applies; the zero ones left out."""
    for slot, p in itertools.product(range(1, k + 1), linalg.PAULIS.values()):
        sigma = linalg.embed(p, slot, k)
        block = g @ sigma - sigma @ g
        if np.any(block):
            yield block


def random_circuit(rng, n, depth):
    """``depth`` random gates, each of a kind drawn from those that fit n
    qubits, on random operands."""
    kinds = [kind for kind in network.GATE_KINDS if network._ARITY[kind] <= n]
    for _ in range(depth):
        kind = kinds[rng.integers(len(kinds))]
        operands = tuple(int(q) + 1
                         for q in rng.permutation(n)[:network._ARITY[kind]])
        params = ((float(rng.uniform(0, 2 * np.pi)),) if kind == "RZ" else
                  acceptance._random_f_params(rng) if kind == "F" else ())
        yield Gate(kind, operands, params)


def permutation_gates(n):
    """Every permutation kind on every operand tuple of n qubits."""
    for kind in sorted(network._PERMUTATIONS):
        k = network._ARITY[kind]
        for operands in itertools.permutations(range(1, n + 1), k):
            yield Gate(kind, operands)


class TestApplyLocal:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_permutation_gates_equal_the_tensordot_product(self, n):
        rng = np.random.default_rng(n)
        u = random_unitary(rng, 2 ** n)
        for kind, k in (("NOT", 1), ("CNOT", 2), ("CCNOT", 3)):
            for operands in itertools.permutations(range(1, n + 1), k):
                g = network.local_matrix(Gate(kind, operands))
                for m in (u, u[:, 1].copy()):
                    got = network._apply_local(g, operands, m)
                    want = tensordot_apply(g, operands, m)
                    assert got.tobytes() == want.tobytes(), (kind, operands)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_f_and_commutator_blocks_match_the_tensordot_product(self, n):
        rng = np.random.default_rng(10 + n)
        u = random_unitary(rng, 2 ** n)
        for kind, k in (("F", 2), ("CNOT", 2), ("CCNOT", 3)):
            for operands in itertools.permutations(range(1, n + 1), k):
                params = (acceptance._random_f_params(rng) if kind == "F"
                          else ())
                g = network.local_matrix(Gate(kind, operands, params))
                blocks = list(commutator_blocks(g, k))
                for a in ([g] if kind == "F" else []) + blocks:
                    for m in (u, u[:, 1].copy()):
                        got = network._apply_local(a, operands, m)
                        want = tensordot_apply(a, operands, m)
                        assert max_abs(got - want) <= 1e-15, (kind, operands)

    def test_rows_without_an_entry_are_zero_on_a_used_buffer(self,
                                                             monkeypatch):
        # [CNOT, z_target] = P1 (x) -2i y: the control-0 half of g has no
        # entry, so that half of the product must be written as 0.
        cnot = network.local_matrix(Gate.cnot(1, 3))
        block = cnot @ linalg.embed(SIGMA_Z, 2, 2) \
            - linalg.embed(SIGMA_Z, 2, 2) @ cnot
        u = random_unitary(np.random.default_rng(4), 16)
        want = tensordot_apply(block, (1, 3), u)
        empty = np.empty

        def used(*args, **kwargs):
            out = empty(*args, **kwargs)
            out.fill(np.nan)
            return out
        monkeypatch.setattr(np, "empty", used)
        got = network._apply_local(block, (1, 3), u)
        assert not np.any(got[:8])
        assert max_abs(got - want) <= 1e-15

    @pytest.mark.parametrize("kind", ["CNOT", "CCNOT", "F"])
    def test_fortran_ordered_and_real_operands(self, kind):
        rng = np.random.default_rng(6)
        operands = (3, 1, 4)[:network._ARITY[kind]]
        params = (0.5, 0.5, 0.5, -0.5) if kind == "F" else ()
        g = network.local_matrix(Gate(kind, operands, params))
        real = rng.normal(size=(16, 16))
        for m in (np.asfortranarray(random_unitary(rng, 16)), real,
                  np.asfortranarray(real), real[:, 2]):
            got = network._apply_local(g, operands, m)
            assert got.dtype == complex and got.flags.c_contiguous
            assert max_abs(got - tensordot_apply(g, operands,
                                                 np.ascontiguousarray(m))
                           ) <= 1e-15

    @pytest.mark.parametrize("gate", [Gate.cnot(7, 2), Gate.ccnot(1, 8, 4),
                                      Gate.f(2, 6, 0.5, 0.5, 0.5, -0.5),
                                      Gate.not_(8)],
                             ids=lambda g: g.kind)
    def test_one_update_allocates_one_unitary(self, gate):
        # The new U, 16 * 4^n bytes: no contraction result, no axis move, and
        # for a permutation kind no index array once its gather is cached.
        # F's scaling of a strided block adds numpy's iteration buffers,
        # 8192 entries per operand, which is 0.25 of U at n=8.
        n = 8
        state = init_network(n)
        apply_gate(state, gate)
        tracemalloc.start()
        try:
            apply_gate(state, gate)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 16 * 4 ** n


class TestPermutationGather:
    def test_permutation_kinds_derive_as_not_cnot_and_ccnot(self):
        assert network._PERMUTATIONS == {"NOT", "CNOT", "CCNOT"}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_gather_equals_the_local_product(self, n):
        rng = np.random.default_rng(40 + n)
        u = random_unitary(rng, 2 ** n)
        state = network.NetworkState(n, 0, u)
        for gate in permutation_gates(n):
            product = network._apply_local(network.local_matrix(gate),
                                           gate.operands, u)
            assert (apply_gate(state, gate).u.tobytes()
                    == product.tobytes()), gate
            assert (build_gate_unitary(state, gate).tobytes()
                    == (u.conj().T @ product).tobytes()), gate
            source = network._gather(gate.kind, gate.operands, n)
            assert not source.flags.writeable
            assert sorted(source) == list(range(2 ** n))

    @pytest.mark.parametrize("kind", sorted(set(network.GATE_KINDS) - {"I"}))
    def test_fortran_ordered_and_real_unitaries(self, kind):
        # Every update returns a complex, C-ordered U, whatever U it reads;
        # I keeps the same U.
        n = 4
        rng = np.random.default_rng(7)
        operands = (3, 1, 4)[:network._ARITY[kind]]
        params = {"RZ": (0.9,), "F": (0.5, 0.5, 0.5, -0.5)}.get(kind, ())
        gate = Gate(kind, operands, params)
        g = network.local_matrix(gate)
        real = rng.normal(size=(16, 16))
        for u in (np.asfortranarray(random_unitary(rng, 16)), real,
                  np.asfortranarray(real)):
            got = apply_gate(network.NetworkState(n, 0, u), gate).u
            assert got.dtype == complex and got.flags.c_contiguous
            assert max_abs(got - tensordot_apply(g, operands,
                                                 np.ascontiguousarray(u))
                           ) <= 1e-15
        same = network.NetworkState(n, 0, real)
        assert apply_gate(same, Gate("I")).u is real


class TestExpectation:
    def test_meter_z_zero_after_measurement(self):
        final = measurement_timeline()[-1]
        assert expectation(final, final.ket(2, "z")) == pytest.approx(
            0.0, abs=1e-10)

    def test_bell_rz_all_expectations_vanish(self):
        for theta in (0.0, np.pi / 3, np.pi / 2, 1.5 * np.pi):
            state = init_network(2)
            for gate in (Gate.h(1), Gate.cnot(1, 2), Gate.rz(2, theta)):
                state = apply_gate(state, gate)
            for q in (1, 2):
                for c in COMPONENTS:
                    value = expectation(state, state.ket(q, c))
                    assert abs(value) <= 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            expectation(init_network(2), SIGMA_Z)


class TestIsSharp:
    def test_fresh_z_sharp(self):
        state = init_network(1)
        assert is_sharp(state, state.ket(1, "z")) == pytest.approx(1.0)

    def test_not_sharp_after_hadamard(self):
        state = apply_gate(init_network(1), Gate.h(1))
        assert is_sharp(state, state.ket(1, "z")) is None

    def test_descriptor_product_sharp_after_measurement(self):
        # The ket of q_1z q_2z is sigma_1z sigma_2z phi.
        final = measurement_timeline()[-1]
        product = network.apply_pauli(final.ket(2, "z"), 1, "z")
        assert is_sharp(final, product) == pytest.approx(1.0)

    def test_nan_is_a_tolerance_violation(self):
        # NaN is no evidence either way: it must not read as "not sharp".
        # It is injected at phi, U's first column.
        final = measurement_timeline()[-1]
        u = final.u.copy()
        u[:, 0] = np.nan
        broken = network.NetworkState(2, final.t, u)
        with pytest.raises(ToleranceViolation,
                           match="sharpness defect is nan") as caught:
            is_sharp(broken, broken.ket(1, "z"))
        assert caught.value.exit_status == 2


class TestEntanglement:
    def test_fresh_network_product_state(self):
        assert not are_entangled(init_network(2), 1, 2).entangled

    def test_entangled_after_measurement(self):
        final = measurement_timeline()[-1]
        witness = are_entangled(final, 1, 2)
        assert witness.entangled
        assert witness.discrepancy == pytest.approx(1.0)
        # The (z, z) pair witnesses the correlation directly.
        zz = correlation(final, final.ket(1, "z"), final.ket(2, "z"))
        z1 = expectation(final, final.ket(1, "z"))
        z2 = expectation(final, final.ket(2, "z"))
        assert abs(zz - z1 * z2) == pytest.approx(1.0)

    def test_tied_witness_is_first_in_xyz_order(self):
        # xx, yy and zz all have discrepancy 1 on the measurement fixture.
        witness = are_entangled(measurement_timeline()[-1], 1, 2)
        assert witness.components == ("x", "x")

    def test_second_cnot_disentangles(self):
        final = measurement_timeline()[-1]
        undone = apply_gate(final, Gate.cnot(1, 2))
        assert not are_entangled(undone, 1, 2).entangled

    def test_same_qubit_rejected(self):
        with pytest.raises(ValidationError):
            are_entangled(init_network(2), 1, 1)

    def test_nan_discrepancy_is_a_tolerance_violation(self):
        # NaN is no evidence of a product state: it must not read as
        # "not entangled", nor fail to find a witness (internal error).
        final = measurement_timeline()[-1]
        u = final.u.copy()
        u[0, 0] = np.nan
        broken = network.NetworkState(2, final.t, u)
        with pytest.raises(ToleranceViolation,
                           match="qubits 1 and 2 is nan") as caught:
            are_entangled(broken, 1, 2)
        assert caught.value.exit_status == 2


def random_complex(rng, dim):
    parts = rng.standard_normal((2, dim, dim))
    return parts[0] + 1j * parts[1]


class TestCorrelation:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_expectation_of_the_product(self, n):
        # A Hermitian A and a non-Hermitian B under a random unitary U,
        # passed as their kets U A Psi and U B Psi: the real part of <AB>.
        rng = np.random.default_rng(50 + n)
        dim = 2 ** n
        state = network.NetworkState(n, 0, random_unitary(rng, dim))
        psi = linalg.identity(dim)[0]  # Psi = e_0
        for _ in range(10):
            a, b = random_complex(rng, dim), random_complex(rng, dim)
            a = a + a.conj().T
            want = dense_expectation(state, a @ b)
            got = correlation(state, state.u @ a @ psi, state.u @ b @ psi)
            assert isinstance(got, float)
            assert abs(got - want.real) <= 1e-12 * max(1.0, abs(want))

    def test_real_when_the_product_is_hermitian(self):
        final = measurement_timeline()[-1]
        value = correlation(final, final.ket(1, "z"), final.ket(2, "z"))
        assert isinstance(value, float)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_real_part_when_the_product_is_not_hermitian(self):
        # <q_1x (q_1y + q_2z)> = i <q_1z> + <q_1x q_2z>: the answer is its
        # real part, a float, however large the imaginary part.
        state = random_circuit_state(np.random.default_rng(58), 3, 20)
        a = state.component(1, "x")
        b = state.component(1, "y") + state.component(2, "z")
        want = dense_expectation(state, a @ b)
        assert abs(want.real) > 0.1 and abs(want.imag) > 0.1
        got = correlation(state, state.ket(1, "x"),
                          state.ket(1, "y") + state.ket(2, "z"))
        assert isinstance(got, float)
        assert abs(got - want.real) <= 1e-12

    @pytest.mark.parametrize("shapes", [((2, 2), (4, 4)), ((4, 4), (2, 2))])
    def test_dim_mismatch(self, shapes):
        a, b = (np.eye(*shape, dtype=complex) for shape in shapes)
        with pytest.raises(DimMismatch):
            correlation(init_network(2), a, b)


def dense_sharp(state, observable):
    """is_sharp through the dense square of the observable."""
    mean = dense_expectation(state, observable)
    second = dense_expectation(state, observable @ observable)
    if abs(mean * mean - second) <= state.tol.sharp:
        return float(np.real(mean))
    return None


def dense_entanglement(state, a, b):
    """are_entangled through the nine dense products q_ai q_bj."""
    pairs = []
    for ci in COMPONENTS:
        mi = state.component(a, ci)
        for cj in COMPONENTS:
            mj = state.component(b, cj)
            disc = abs(dense_expectation(state, mi @ mj)
                       - dense_expectation(state, mi)
                       * dense_expectation(state, mj))
            pairs.append(((ci, cj), disc))
    best = max(disc for _, disc in pairs)
    if best > state.tol.entangle:
        witness = next(p for p, d in pairs
                       if d >= best - state.tol.entangle)
        return witness, best
    return None, best


class TestMatrixFreeAnswers:
    """The matrix-vector answers agree with the dense products they replace."""

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_entanglement_matches_dense(self, n):
        rng = np.random.default_rng(60 + n)
        entangled = 0
        for depth in (2, 5, 20):
            state = random_circuit_state(rng, n, depth)
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    if a == b:
                        continue
                    got = are_entangled(state, a, b)
                    witness, best = dense_entanglement(state, a, b)
                    assert got.components == witness
                    assert got.entangled == (witness is not None)
                    assert abs(got.discrepancy - best) <= 1e-12
                    entangled += got.entangled
        assert entangled > 0

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_sharpness_matches_dense(self, n):
        rng = np.random.default_rng(70 + n)
        sharp = unsharp = 0
        for depth in (2, 5, 20):
            state = random_circuit_state(rng, n, depth)
            # Each observable as its ket and as its dense matrix.
            observables = [(state.ket(a, c), state.component(a, c))
                           for a in range(1, n + 1) for c in COMPONENTS]
            # Products of components of distinct qubits are Hermitian too.
            observables += [
                (network.apply_pauli(state.ket(a % n + 1, "z"), a, "z"),
                 state.component(a, "z") @ state.component(a % n + 1, "z"))
                for a in range(1, n + 1)]
            for ket, obs in observables:
                got, want = is_sharp(state, ket), dense_sharp(state, obs)
                if want is None:
                    assert got is None
                    unsharp += 1
                else:
                    assert abs(got - want) <= 1e-12
                    sharp += 1
        assert sharp > 0 and unsharp > 0


class TestAlgebraResidual:
    def test_nan_descriptor_gives_nan(self):
        state = init_network(2)
        broken = network.NetworkState(2, 1, np.full((4, 4), np.nan, complex))
        assert np.isnan(network.algebra_residual(triples(broken)))

    def test_unit_replaces_identity(self):
        # q_2x q_2x = 1, which differs from a projector unit by 1.
        state = init_network(2)
        unit = 0.5 * (linalg.identity(4) + state.component(1, "z"))
        assert network.algebra_residual(triples(state)) == 0.0
        assert network.algebra_residual(triples(state)[1:],
                                        unit=unit) == pytest.approx(1.0)


def random_circuit_state(rng, n, depth):
    state = init_network(n)
    for _ in range(depth):
        state = apply_gate(state, acceptance._random_gate(rng, n))
    return state


def perturbed(state, eps, rng):
    """The state with complex Gaussian noise of size eps added to U."""
    noise = rng.standard_normal((2, state.dim, state.dim))
    u = state.u + eps * (noise[0] + 1j * noise[1]) / np.sqrt(2)
    return network.NetworkState(state.n, state.t, u)


class TestAlgebraCertificate:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_bounds_the_dense_residual_of_perturbed_u(self, n):
        rng = np.random.default_rng(40 + n)
        state = random_circuit_state(rng, n, 30)
        assert network.algebra_certificate(state) <= 1e-12
        for eps in (1e-12, 1e-9, 1e-6, 1e-3):
            noisy = perturbed(state, eps, rng)
            dense = network.algebra_residual(triples(noisy))
            assert network.algebra_certificate(noisy) >= dense > 0

    def test_bound_holds_up_to_the_dense_check_roundoff(self):
        # The certificate bounds the residual in exact arithmetic. When U is
        # unitary to the last bit, it can read 0 while the dense products
        # round to an ulp or two; dim * eps allows for that roundoff.
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            state = random_circuit_state(rng, n, int(rng.integers(1, 30)))
            cert = network.algebra_certificate(state)
            assert cert <= 1e-12
            assert (network.algebra_residual(triples(state))
                    <= cert + state.dim * np.finfo(float).eps)

    @pytest.mark.parametrize("dim", [1, 2, 5, 16])
    def test_gram_defects_of_a_square_matrix_are_equal(self, dim):
        # The certificate reads ||U†U - 1||_F for ||UU† - 1||_F too: for a
        # square U both are Hermitian with the eigenvalues s_i^2 - 1. Each
        # computed Frobenius norm is within about dim eps ||U||_F^2 <=
        # dim^2 eps ||U||_2^2 of the exact one.
        rng = np.random.default_rng(dim)
        one = np.eye(dim)
        for scale in (1e-9, 1e-3, 1.0, 10.0):
            noise = rng.standard_normal((2, dim, dim))
            u = one + scale * (noise[0] + 1j * noise[1])
            d1 = np.linalg.norm(u.conj().T @ u - one)
            d2 = np.linalg.norm(u @ u.conj().T - one)
            assert d1 > 0
            roundoff = 2 * dim ** 2 * np.finfo(float).eps
            assert abs(d1 - d2) <= roundoff * np.linalg.norm(u, 2) ** 2

    def test_nan_u_gives_nan(self):
        state = init_network(2)
        u = state.u.copy()
        u[1, 2] = np.nan
        broken = network.NetworkState(2, 1, u)
        assert np.isnan(network.algebra_certificate(broken))


class TestRecordsAndTimeline:
    def test_run_gates_timeline_length(self):
        timeline = measurement_timeline()
        assert len(timeline) == 3
        assert [s.t for s in timeline] == [0, 1, 2]
        assert sorted(timeline.states) == [0, 1, 2]
        assert timeline.phis.shape == (3, 4)
        # Row t is U_t's first column, on random circuits of every kind.
        rng = np.random.default_rng(31)
        for n in range(1, 6):
            gates = list(random_circuit(rng, n, 40))
            assert {g.kind for g in gates} >= (
                {"I", "NOT", "H", "RZ"} | ({"CNOT", "F"} if n >= 2 else set())
                | ({"CCNOT"} if n >= 3 else set()))
            timeline = run_gates(init_network(n), gates)
            assert timeline.phis.shape == (len(gates) + 1, 2 ** n)
            for step, state in enumerate(timeline):
                assert np.array_equal(timeline.phis[step], state.phi), \
                    (n, step)

    def test_run_gates_takes_below_one_and_a_half_stacks_and_one_u(self):
        # n=8, T=2000: a stack of phi_t is 16 (T+1) 2^n bytes, 7.8 MiB. The
        # run holds that stack and the current U; a step holds the next U
        # too. A second run reads the caches the first one filled.
        n, depth = 8, 2000
        gates = list(random_circuit(np.random.default_rng(8), n, depth))
        run_gates(init_network(n), gates, keep=())
        start = init_network(n)
        tracemalloc.start()
        try:
            run_gates(start, gates, keep=())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stack = 16 * (depth + 1) * 2 ** n
        assert peak < 1.5 * stack + 16 * 4 ** n, peak / stack

    def test_kept_steps_and_the_final_one_hold_a_state(self):
        gates = [Gate.h(1), Gate.cnot(1, 2), Gate.h(2)]
        every = run_gates(init_network(2), gates)
        timeline = run_gates(init_network(2), gates, keep={1})
        assert sorted(timeline.states) == [1, 3]
        assert len(timeline) == 4
        assert timeline[-1] is timeline[3]
        with pytest.raises(KeyError):
            timeline[2]
        assert np.array_equal(timeline.phis, every.phis)
        for step in (1, 3):
            assert np.array_equal(timeline[step].u, every[step].u)

    def test_a_run_keeps_u_only_at_its_record_steps(self, monkeypatch):
        # mid_records.yaml records at steps 6 and 12, its final step.
        doc = load_circuit(CIRCUITS / "mid_records.yaml")
        assert {r.step for r in doc.records} == {6, len(doc.gates)} == {6, 12}
        made, timelines = [], []
        apply, run = network.apply_gate, network.run_gates

        def tracked_apply(state, gate):
            after = apply(state, gate)
            made.append((after.t, weakref.ref(after.u)))
            return after

        def tracked_run(*args, **kwargs):
            timelines.append(run(*args, **kwargs))
            return timelines[-1]

        monkeypatch.setattr(network, "apply_gate", tracked_apply)
        monkeypatch.setattr(network, "run_gates", tracked_run)
        runner.execute(doc)
        (timeline,) = timelines
        assert sorted(timeline.states) == [6, 12]
        gc.collect()
        assert len(made) == 12
        assert sorted(t for t, u in made if u() is not None) == [6, 12]

    def test_record_snapshot_is_frozen(self):
        # A record of q_1z at step 1 is timeline[1]'s component: the later
        # gates, which change q_1z, leave it unchanged.
        timeline = run_gates(init_network(2),
                             [Gate.h(1), Gate.cnot(1, 2), Gate.h(1)])
        want = apply_gate(init_network(2), Gate.h(1)).component(1, "z")
        assert max_abs(timeline[1].component(1, "z") - want) == 0
        assert max_abs(timeline[-1].component(1, "z") - want) > 0.1
