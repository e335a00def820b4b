"""Tests for branch machinery: frames, relative descriptors, autonomy."""

import numpy as np
import pytest

from heisim import linalg, network
from heisim.errors import NonCommuting, WrongGateKind, ZeroWeightBranch
from heisim.linalg import COMPONENTS, SIGMA_Z, max_abs
from heisim.network import (Gate, NetworkState, apply_gate, init_network,
                            run_gates)
from heisim.relative import (RelativeFrame, autonomy_check,
                             branch_evolution_factor, foliate, make_pvm,
                             make_pvm_spectral, relative_descriptor,
                             relative_expectation, relative_heisenberg_state)


@pytest.fixture
def measured():
    """Network after H(1) and CNOT(1 -> 2); the z-records of both qubits,
    taken at step 2, are its z descriptors."""
    return run_gates(init_network(2), [Gate.h(1), Gate.cnot(1, 2)])[-1]


def nan_state(state):
    """The same descriptors over a NaN fixed state: every weight is NaN."""
    return NetworkState(state.n, state.t, state.u,
                        np.full_like(state.psi, np.nan), state.tol)


class TestMakePvm:
    def test_equal_weights_after_measurement(self, measured):
        plus, minus = make_pvm(measured, measured.descriptor(1).z)
        assert plus.weight == pytest.approx(0.5, abs=1e-10)
        assert minus.weight == pytest.approx(0.5, abs=1e-10)
        assert plus.label == 1.0 and minus.label == -1.0

    def test_sharp_record_degenerate_weights(self):
        fresh = init_network(2)
        plus, minus = make_pvm(fresh, fresh.descriptor(1).z)
        assert plus.weight == pytest.approx(1.0)
        assert minus.weight == pytest.approx(0.0, abs=1e-12)

    def test_completeness(self, measured):
        plus, minus = make_pvm(measured, measured.descriptor(1).z)
        total = plus.projector + minus.projector
        assert max_abs(total - linalg.identity(4)) <= 1e-10

    def test_spectral_pvm_one_frame_per_eigenvalue(self):
        # Integer-spectrum observable: a two-bit register over fresh qubits.
        state = init_network(2)
        obs = (1 * linalg.pauli_projector(state.descriptor(1).z, -1)
               + 2 * linalg.pauli_projector(state.descriptor(2).z, -1))
        frames = make_pvm_spectral(state, obs)
        assert sorted(f.label for f in frames) == pytest.approx([0, 1, 2, 3])
        assert sum(f.weight for f in frames) == pytest.approx(1.0)


class TestRelativeDescriptor:
    def test_invariants_in_both_branches(self, measured):
        for record_qubit, holder in ((1, 2), (2, 1)):
            snapshot = measured.descriptor(record_qubit).z
            for frame in make_pvm(measured, snapshot):
                rd = relative_descriptor(measured, holder, frame)
                for mat in map(rd.component, COMPONENTS):
                    assert linalg.hermiticity_defect(mat) <= 1e-10
                    assert max_abs(mat @ mat - rd.unit) <= 1e-9
                assert network.algebra_residual([rd], unit=rd.unit) <= 1e-9

    def test_identity_frame_gives_absolute(self, measured):
        multiverse = RelativeFrame(linalg.identity(4), 1.0, "multiverse", 1.0)
        rd = relative_descriptor(measured, 2, multiverse)
        for c in COMPONENTS:
            assert max_abs(rd.component(c)
                           - measured.descriptor(2).component(c)) <= 1e-12

    def test_sum_over_frames_reconstructs_absolute(self, measured):
        frames = make_pvm(measured, measured.descriptor(1).z)
        rds = [relative_descriptor(measured, 2, f) for f in frames]
        for c in COMPONENTS:
            total = sum(rd.component(c) for rd in rds)
            assert max_abs(total - measured.descriptor(2).component(c)) <= 1e-10

    def test_unentangled_rejected(self):
        fresh = init_network(2)
        plus, _ = make_pvm(fresh, fresh.descriptor(1).z)
        with pytest.raises(NonCommuting):
            relative_descriptor(fresh, 1, plus)

    def test_nan_projector_rejected(self, measured):
        # A NaN commutator norm must not pass the commute check.
        frame = RelativeFrame(np.full((4, 4), np.nan, dtype=complex), 1.0,
                              "nan", 0.5)
        with pytest.raises(NonCommuting, match="commutator norm nan"):
            relative_descriptor(measured, 2, frame)


class TestRelativeExpectation:
    def test_branch_values(self, measured):
        mz = measured.descriptor(2).z
        plus, minus = make_pvm(measured, measured.descriptor(1).z)
        assert relative_expectation(measured, mz, plus) == pytest.approx(
            1.0, abs=1e-10)
        assert relative_expectation(measured, mz, minus) == pytest.approx(
            -1.0, abs=1e-10)

    def test_minus_branch_against_projected_bell_vector(self, measured):
        # Independent oracle: project the Bell vector with the fixed
        # initial-basis projector and evaluate the fixed observable there.
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        p_minus = linalg.pauli_projector(linalg.embed(SIGMA_Z, 1, 2), -1)
        branch = p_minus @ bell
        branch = branch / np.linalg.norm(branch)
        fixed_mz = linalg.embed(SIGMA_Z, 2, 2)
        oracle_value = float(np.real(np.vdot(branch, fixed_mz @ branch)))
        assert oracle_value == pytest.approx(-1.0)
        _, minus = make_pvm(measured, measured.descriptor(1).z)
        heis = relative_expectation(measured, measured.descriptor(2).z, minus)
        assert heis == pytest.approx(oracle_value, abs=1e-10)

    def test_identity_frame_equals_absolute(self, measured):
        mz = measured.descriptor(2).z
        multiverse = RelativeFrame(linalg.identity(4), 1.0, "multiverse", 1.0)
        assert relative_expectation(measured, mz, multiverse) \
            == pytest.approx(network.expectation(measured, mz), abs=1e-12)

    def test_zero_weight_branch_raises(self):
        fresh = init_network(2)
        _, minus = make_pvm(fresh, fresh.descriptor(1).z)
        with pytest.raises(ZeroWeightBranch):
            relative_expectation(fresh, fresh.descriptor(2).z, minus)

    def test_nan_weight_raises(self, measured):
        plus, _ = make_pvm(measured, measured.descriptor(1).z)
        with pytest.raises(ZeroWeightBranch, match="weight nan"):
            relative_expectation(nan_state(measured), measured.descriptor(2).z,
                                 plus)


class TestRelativeHeisenbergState:
    def test_identity_frame_unchanged(self, measured):
        multiverse = RelativeFrame(linalg.identity(4), 1.0, "multiverse", 1.0)
        psi = relative_heisenberg_state(measured, multiverse)
        assert max_abs(psi - measured.psi) <= 1e-12

    def test_nan_norm_raises(self, measured):
        plus, _ = make_pvm(measured, measured.descriptor(1).z)
        with pytest.raises(ZeroWeightBranch, match="squared norm nan"):
            relative_heisenberg_state(nan_state(measured), plus)

    def test_branch_norms(self, measured):
        plus, minus = make_pvm(measured, measured.descriptor(1).z)
        for frame in (plus, minus):
            projected = frame.projector @ measured.psi
            assert np.linalg.norm(projected) ** 2 == pytest.approx(
                0.5, abs=1e-10)
            assert np.linalg.norm(
                relative_heisenberg_state(measured, frame)) == pytest.approx(1.0)

    def test_consistent_with_relative_expectation(self, measured):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = 0.5 * (a + a.conj().T)
        plus, _ = make_pvm(measured, measured.descriptor(1).z)
        psi_rel = relative_heisenberg_state(measured, plus)
        # Restrict to the block-diagonal (projector-commuting) part so both
        # conditioning routes are comparing the same observable.
        proj = plus.projector
        rest = np.eye(4) - proj
        commuting = proj @ a @ proj + rest @ a @ rest
        direct = float(np.real(np.vdot(psi_rel, commuting @ psi_rel)))
        cond = relative_expectation(measured, commuting, plus)
        assert cond == pytest.approx(direct, abs=1e-10)


class TestAutonomy:
    def snapshots(self, state):
        return [state.descriptor(1).z, state.descriptor(2).z]

    def test_f_gate_preserving(self, measured):
        gate = Gate.f(1, 2, 0.5, 0.5, 0.5, -0.5)
        result = autonomy_check(measured, gate, self.snapshots(measured))
        assert result.classification == "PRESERVING"

    def test_rz_preserving(self, measured):
        for q in (1, 2):
            result = autonomy_check(measured, Gate.rz(q, 0.9),
                                    self.snapshots(measured))
            assert result.preserving

    def test_second_cnot_destroying(self, measured):
        result = autonomy_check(measured, Gate.cnot(1, 2),
                                self.snapshots(measured))
        assert result.classification == "DESTROYING"
        assert result.violated_index is not None
        assert result.commutator_norm > 1e-9


class TestBranchEvolutionFactor:
    def test_identity_f_gives_unit(self, measured):
        plus, _ = make_pvm(measured, measured.descriptor(1).z)
        gate = Gate.f(1, 2, 1.0, 0.0, 0.0, 0.0)
        factor = branch_evolution_factor(measured, gate, plus)
        assert max_abs(factor - plus.projector) <= 1e-10

    def test_two_path_equality(self, measured):
        rng = np.random.default_rng(31)
        frames = make_pvm(measured, measured.descriptor(1).z)
        for _ in range(5):
            signs = rng.choice([-1.0, 1.0], size=4)
            alpha = (signs[0] + signs[1] + signs[2] + signs[3]) / 4
            beta = (signs[0] + signs[1] - signs[2] - signs[3]) / 4
            gamma = (signs[0] - signs[1] + signs[2] - signs[3]) / 4
            delta = (signs[0] - signs[1] - signs[2] + signs[3]) / 4
            gate = Gate.f(1, 2, alpha, beta, gamma, delta)
            evolved = apply_gate(measured, gate)
            for frame in frames:
                factor = branch_evolution_factor(measured, gate, frame)
                rd = relative_descriptor(measured, 2, frame)
                for c in COMPONENTS:
                    path_a = evolved.descriptor(2).component(c) @ frame.projector
                    path_b = factor.conj().T @ rd.component(c) @ factor
                    assert max_abs(path_a - path_b) <= 1e-9

    def test_wrong_gate_kind(self, measured):
        plus, _ = make_pvm(measured, measured.descriptor(1).z)
        with pytest.raises(WrongGateKind):
            branch_evolution_factor(measured, Gate.h(1), plus)

    def test_branch_hidden_rotation(self):
        # A z-rotation of the meter after the measurement leaves every
        # branch-relative expectation pinned at (0, 0, +-1) for all angles,
        # yet the descriptor matrices themselves depend on the angle.
        kept = {}
        for theta in (0.0, np.pi / 4, np.pi / 2, np.pi):
            timeline = run_gates(
                init_network(2),
                [Gate.h(1), Gate.cnot(1, 2), Gate.rz(2, theta)])
            final = timeline[-1]
            frames = make_pvm(final, timeline[2].descriptor(1).z)
            for frame, target in zip(frames, (1.0, -1.0)):
                values = [float(np.real(relative_expectation(
                    final, final.descriptor(2).component(c), frame)))
                    for c in COMPONENTS]
                assert values[0] == pytest.approx(0.0, abs=1e-10)
                assert values[1] == pytest.approx(0.0, abs=1e-10)
                assert values[2] == pytest.approx(target, abs=1e-10)
            if theta in (0.0, np.pi / 2):
                kept[theta] = final.descriptor(2).x
        assert max_abs(kept[0.0] - kept[np.pi / 2]) > 0.1


class TestFoliate:
    def test_valid_foliation(self, measured):
        report = foliate(measured, measured.descriptor(1).z, [2])
        assert report.valid
        assert report.completeness_residual <= 1e-10
        assert report.max_commutator <= 1e-9
        assert len(report.frames) == 2

    def test_max_commutator_is_largest_norm(self, measured):
        # A record tilted by 1e-11 towards q_1x q_2x is an involution that
        # commutes with qubit 2's descriptors within tol.commute, not exactly.
        d1, d2 = measured.descriptor(1), measured.descriptor(2)
        record = np.cos(1e-11) * d1.z + np.sin(1e-11) * d1.x @ d2.x
        report = foliate(measured, record, [2])
        direct = max(linalg.commutator_norm(f.projector, mat)
                     for f in report.frames for _, mat in d2.components())
        assert 0 < report.max_commutator == direct <= 1e-9
        assert report.valid

    def test_unentangled_cannot_be_foliated(self):
        fresh = init_network(2)
        with pytest.raises(NonCommuting, match=(
                r"^frame projector does not commute with q_1x: commutator "
                r"norm 1\.000e\+00 \(invalid foliation")):
            foliate(fresh, fresh.descriptor(1).z, [1])


class TestChecksOncePerRecord:
    """A record's two frames share one involution check and, since
    [1 - P, q] = -[P, q], one commutator norm per descriptor component."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"involution_defect": 0, "commutator_norm": 0}

        def counted(name):
            inner = getattr(linalg, name)

            def call(*args):
                counts[name] += 1
                return inner(*args)
            return call

        for name in counts:
            monkeypatch.setattr(linalg, name, counted(name))
        return counts

    def test_make_pvm_checks_involution_once(self, measured, calls):
        make_pvm(measured, measured.descriptor(1).z)
        assert calls == {"involution_defect": 1, "commutator_norm": 0}

    @pytest.mark.parametrize("qubits", [[2], [3, 2]])
    def test_foliate_takes_three_norms_per_qubit(self, calls, qubits):
        ghz = run_gates(init_network(3), [Gate.h(1), Gate.cnot(1, 2),
                                          Gate.cnot(1, 3)])[-1]
        report = foliate(ghz, ghz.descriptor(1).z, qubits)
        assert report.valid
        assert calls == {"involution_defect": 1,
                         "commutator_norm": 3 * len(qubits)}

    def test_unentangled_stops_at_first_norm(self, calls):
        fresh = init_network(2)
        with pytest.raises(NonCommuting, match="q_1x"):
            foliate(fresh, fresh.descriptor(1).z, [1, 2])
        assert calls == {"involution_defect": 1, "commutator_norm": 1}
