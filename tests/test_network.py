"""Tests for descriptor networks: gates, conjugation, sharpness, entanglement."""

from functools import partial

import numpy as np
import pytest

from heisim import linalg, network
from heisim.errors import (DimMismatch, NotHermitian, SizeLimit,
                           ValidationError)
from heisim.linalg import COMPONENTS, SIGMA_X, SIGMA_Y, SIGMA_Z, max_abs
from heisim.network import (Gate, apply_gate, are_entangled,
                            build_gate_unitary, expectation,
                            f_unitarity_defect, init_network, is_sharp,
                            run_gates)


def measurement_timeline():
    """H on qubit 1 then CNOT 1 -> 2."""
    return run_gates(init_network(2), [Gate.h(1), Gate.cnot(1, 2)])


class TestInitNetwork:
    def test_single_qubit_generators(self):
        d = init_network(1).descriptor(1)
        assert np.allclose(d.x, SIGMA_X)
        assert np.allclose(d.y, SIGMA_Y)
        assert np.allclose(d.z, SIGMA_Z)

    def test_two_qubit_generators(self):
        state = init_network(2)
        one = linalg.identity(2)
        d1, d2 = state.descriptor(1), state.descriptor(2)
        assert np.allclose(d1.x, np.kron(SIGMA_X, one))
        assert np.allclose(d1.y, np.kron(SIGMA_Y, one))
        assert np.allclose(d1.z, np.kron(SIGMA_Z, one))
        assert np.allclose(d2.x, np.kron(one, SIGMA_X))
        assert np.allclose(d2.y, np.kron(one, SIGMA_Y))
        assert np.allclose(d2.z, np.kron(one, SIGMA_Z))

    def test_all_z_sharp_at_one(self):
        state = init_network(3)
        for a in (1, 2, 3):
            assert expectation(state, state.descriptor(a).z) == pytest.approx(1.0)
            assert is_sharp(state, state.descriptor(a).z) == pytest.approx(1.0)

    def test_heisenberg_state_is_first_basis_vector(self):
        state = init_network(2)
        assert np.allclose(state.psi, [1, 0, 0, 0])

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
            assert linalg.unitarity_defect(u) <= 1e-12


class TestApplyGate:
    def test_not_action(self):
        state = init_network(2)
        before = state.descriptor(1)
        after = apply_gate(state, Gate.not_(1))
        d = after.descriptor(1)
        assert max_abs(d.x - before.x) <= 1e-12
        assert max_abs(d.y + before.y) <= 1e-12
        assert max_abs(d.z + before.z) <= 1e-12
        assert after.t == 1

    def test_not_locality(self):
        state = init_network(3)
        after = apply_gate(state, Gate.not_(2))
        for q in (1, 3):
            for c in COMPONENTS:
                delta = max_abs(after.descriptor(q).component(c)
                                - state.descriptor(q).component(c))
                assert delta <= 1e-12

    def test_hadamard_action(self):
        state = init_network(2)
        before = state.descriptor(1)
        d = apply_gate(state, Gate.h(1)).descriptor(1)
        assert max_abs(d.x - before.z) <= 1e-12
        assert max_abs(d.y + before.y) <= 1e-12
        assert max_abs(d.z - before.x) <= 1e-12

    def test_rz_action_random_angles(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            theta = float(rng.uniform(0, 2 * np.pi))
            state = init_network(2)
            before = state.descriptor(2)
            d = apply_gate(state, Gate.rz(2, theta)).descriptor(2)
            cos, sin = np.cos(theta), np.sin(theta)
            assert max_abs(d.x - (cos * before.x - sin * before.y)) <= 1e-12
            assert max_abs(d.y - (cos * before.y + sin * before.x)) <= 1e-12
            assert max_abs(d.z - before.z) <= 1e-12

    def test_measurement_fixture_descriptors(self):
        # Closed forms of both qubits' descriptors after H then CNOT,
        # written directly in terms of the initial generators.
        final = measurement_timeline()[-1]
        sx, sy, sz = linalg.embed_pauli(1, 2)
        mx, my, mz = linalg.embed_pauli(2, 2)
        expected = {
            (1, "x"): sz @ mx, (1, "y"): -sy @ mx, (1, "z"): sx,
            (2, "x"): mx, (2, "y"): my @ sx, (2, "z"): mz @ sx,
        }
        for (q, c), want in expected.items():
            assert max_abs(final.descriptor(q).component(c) - want) <= 1e-10

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
            assert network.algebra_residual(state.descriptors) <= 1e-8


class TestExpectation:
    def test_meter_z_zero_after_measurement(self):
        final = measurement_timeline()[-1]
        assert expectation(final, final.descriptor(2).z) == pytest.approx(
            0.0, abs=1e-10)

    def test_bell_rz_all_expectations_vanish(self):
        for theta in (0.0, np.pi / 3, np.pi / 2, 1.5 * np.pi):
            state = init_network(2)
            for gate in (Gate.h(1), Gate.cnot(1, 2), Gate.rz(2, theta)):
                state = apply_gate(state, gate)
            for q in (1, 2):
                for c in COMPONENTS:
                    value = expectation(state, state.descriptor(q).component(c))
                    assert abs(value) <= 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            expectation(init_network(2), SIGMA_Z)


class TestIsSharp:
    def test_fresh_z_sharp(self):
        state = init_network(1)
        assert is_sharp(state, state.descriptor(1).z) == pytest.approx(1.0)

    def test_not_sharp_after_hadamard(self):
        state = apply_gate(init_network(1), Gate.h(1))
        assert is_sharp(state, state.descriptor(1).z) is None

    def test_descriptor_product_sharp_after_measurement(self):
        final = measurement_timeline()[-1]
        product = final.descriptor(1).z @ final.descriptor(2).z
        assert is_sharp(final, product) == pytest.approx(1.0)

    def test_rejects_non_hermitian(self):
        state = init_network(1)
        with pytest.raises(NotHermitian):
            is_sharp(state, np.array([[0, 1], [0, 0]], dtype=complex))


class TestEntanglement:
    def test_fresh_network_product_state(self):
        assert not are_entangled(init_network(2), 1, 2).entangled

    def test_entangled_after_measurement(self):
        final = measurement_timeline()[-1]
        witness = are_entangled(final, 1, 2)
        assert witness.entangled
        assert witness.discrepancy == pytest.approx(1.0)
        # The (z, z) pair witnesses the correlation directly.
        zz = expectation(final, final.descriptor(1).z @ final.descriptor(2).z)
        z1 = expectation(final, final.descriptor(1).z)
        z2 = expectation(final, final.descriptor(2).z)
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


class TestAlgebraResidual:
    def test_nan_descriptor_gives_nan(self):
        state = init_network(2)
        broken = network.NetworkState(2, 1, np.full((4, 4), np.nan, complex),
                                      state.psi)
        assert np.isnan(network.algebra_residual(broken.descriptors))

    def test_unit_replaces_identity(self):
        # q_2x q_2x = 1, which differs from a projector unit by 1.
        state = init_network(2)
        unit = linalg.pauli_projector(state.descriptor(1).z, +1)
        assert network.algebra_residual(state.descriptors) == 0.0
        assert network.algebra_residual(state.descriptors[1:],
                                        unit=unit) == pytest.approx(1.0)


class TestRecordsAndTimeline:
    def test_run_gates_timeline_length(self):
        timeline = measurement_timeline()
        assert len(timeline) == 3
        assert [s.t for s in timeline] == [0, 1, 2]

    def test_record_snapshot_is_frozen(self):
        # A record of q_1z at step 1 is timeline[1]'s component: the later
        # gates, which change q_1z, leave it unchanged.
        timeline = run_gates(init_network(2),
                             [Gate.h(1), Gate.cnot(1, 2), Gate.h(1)])
        want = apply_gate(init_network(2), Gate.h(1)).descriptor(1).z
        assert max_abs(timeline[1].component(1, "z") - want) == 0
        assert max_abs(timeline[-1].component(1, "z") - want) > 0.1
