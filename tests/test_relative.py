"""Tests for branch machinery: frames, relative descriptors, autonomy."""

from dataclasses import replace

import numpy as np
import pytest

from heisim import acceptance, linalg, network
from heisim.acceptance import _branch_copies
from heisim.errors import NonCommuting, ToleranceViolation, ZeroWeightBranch
from heisim.linalg import COMPONENTS, SIGMA_Z, max_abs
from heisim.network import (Gate, NetworkState, Record, apply_gate,
                            init_network, run_gates)
from heisim.relative import (RelativeFrame, autonomy_check, foliate,
                             make_pvm_spectral, record_pvm,
                             relative_expectation)


@pytest.fixture
def measured():
    """Network after H(1) and CNOT(1 -> 2); the z-records of both qubits,
    taken at step 2, are its z descriptors."""
    return run_gates(init_network(2), [Gate.h(1), Gate.cnot(1, 2)])[-1]


def z_record_pvm(state, qubit):
    """The two frames of the z-record of ``qubit`` of ``state`` itself."""
    return record_pvm(state, Record(state, qubit, "z"))


def plus_projector(state, qubit):
    """The dense P+ = 1/2(1 + q_{qubit}z) of the z-record of ``state``."""
    return 0.5 * (linalg.identity(state.dim) + state.component(qubit, "z"))


def f_branch_factor(params, sign, copy):
    """An F gate's factor on the branch copy (x P, y P, z P, P) of its
    second operand b, in the frame of sign s of its first operand's
    z-record: (alpha + s beta) P + (gamma + s delta) q_bz P."""
    alpha, beta, gamma, delta = params
    *_, z, unit = copy
    return (alpha + sign * beta) * unit + (gamma + sign * delta) * z


class TestMakePvm:
    def test_equal_weights_after_measurement(self, measured):
        plus, minus = z_record_pvm(measured, 1)
        assert plus.weight == pytest.approx(0.5, abs=1e-10)
        assert minus.weight == pytest.approx(0.5, abs=1e-10)
        assert plus.label == 1.0 and minus.label == -1.0

    def test_sharp_record_degenerate_weights(self):
        fresh = init_network(2)
        plus, minus = z_record_pvm(fresh, 1)
        assert plus.weight == pytest.approx(1.0)
        assert minus.weight == pytest.approx(0.0, abs=1e-12)

    def test_record_of_an_uncertified_state_is_rejected(self):
        # The record's involution defect is bounded by its own state's
        # certificate: a U_s off unitarity by 1e-9 fails it.
        timeline = run_gates(init_network(2),
                             [Gate.h(1), Gate.cnot(1, 2), Gate.h(2)])
        s = timeline[2]
        scaled = NetworkState(s.n, s.t, (1 + 1e-9) * s.u, s.tol)
        with pytest.raises(ToleranceViolation, match=(
                r"^algebra residual \S+ > 1\.000e-10$")):
            record_pvm(timeline[-1], Record(scaled, 1, "z"))
        assert record_pvm(timeline[-1], Record(s, 1, "z"))

    def test_completeness(self, measured):
        # P+ + P- = 1: the two kets sum to phi.
        plus, minus = z_record_pvm(measured, 1)
        assert max_abs(plus.ket + minus.ket - measured.phi) <= 1e-10

    def test_spectral_pvm_one_frame_per_eigenvalue(self):
        # Integer-spectrum observable: a two-bit register over fresh qubits.
        state = init_network(2)
        one = linalg.identity(4)
        obs = (1 * 0.5 * (one - state.component(1, "z"))
               + 2 * 0.5 * (one - state.component(2, "z")))
        frames = make_pvm_spectral(state, obs)
        assert sorted(f.label for f in frames) == pytest.approx([0, 1, 2, 3])
        assert sum(f.weight for f in frames) == pytest.approx(1.0)


class TestRelativeDescriptor:
    """The dense branch copies (x P, y P, z P, P) that selftest builds."""

    def test_invariants_in_both_branches(self, measured):
        for record_qubit, holder in ((1, 2), (2, 1)):
            record = Record(measured, record_qubit, "z")
            for *triple, unit in _branch_copies(measured, holder, record):
                for mat in triple:
                    assert linalg.hermiticity_defect(mat) <= 1e-10
                    assert max_abs(mat @ mat - unit) <= 1e-9
                assert network.algebra_residual([triple],
                                                unit=unit) <= 1e-9

    def test_sum_over_frames_reconstructs_absolute(self, measured):
        copies = _branch_copies(measured, 2, Record(measured, 1, "z"))
        for i, c in enumerate(COMPONENTS):
            total = sum(copy[i] for copy in copies)
            assert max_abs(total - measured.component(2, c)) <= 1e-10

    def test_unentangled_rejected(self):
        fresh = init_network(2)
        with pytest.raises(NonCommuting):
            _branch_copies(fresh, 1, Record(fresh, 1, "z"))

    def test_nan_projector_rejected(self, measured):
        # A NaN commutator norm must not pass the commute check: here the
        # descriptors of the holder are NaN.
        broken = NetworkState(2, 2, np.full((4, 4), np.nan, dtype=complex))
        with pytest.raises(NonCommuting, match="commutator norm nan"):
            _branch_copies(broken, 2, Record(measured, 1, "z"))


class TestRelativeExpectation:
    def test_branch_values(self, measured):
        mz = measured.ket(2, "z")
        plus, minus = z_record_pvm(measured, 1)
        assert relative_expectation(measured, mz, plus) == pytest.approx(
            1.0, abs=1e-10)
        assert relative_expectation(measured, mz, minus) == pytest.approx(
            -1.0, abs=1e-10)

    def test_minus_branch_against_projected_bell_vector(self, measured):
        # Independent oracle: project the Bell vector with the fixed
        # initial-basis projector and evaluate the fixed observable there.
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        p_minus = 0.5 * (linalg.identity(4) - linalg.embed(SIGMA_Z, 1, 2))
        branch = p_minus @ bell
        branch = branch / np.linalg.norm(branch)
        fixed_mz = linalg.embed(SIGMA_Z, 2, 2)
        oracle_value = float(np.real(np.vdot(branch, fixed_mz @ branch)))
        assert oracle_value == pytest.approx(-1.0)
        _, minus = z_record_pvm(measured, 1)
        heis = relative_expectation(measured, measured.ket(2, "z"), minus)
        assert heis == pytest.approx(oracle_value, abs=1e-10)

    def test_identity_frame_equals_absolute(self, measured):
        # P = 1 has the ket phi.
        mz = measured.ket(2, "z")
        multiverse = RelativeFrame(measured.phi, 1.0, "multiverse", 1.0)
        assert relative_expectation(measured, mz, multiverse) \
            == pytest.approx(network.expectation(measured, mz), abs=1e-12)

    def test_zero_weight_branch_raises(self):
        fresh = init_network(2)
        _, minus = z_record_pvm(fresh, 1)
        with pytest.raises(ZeroWeightBranch):
            relative_expectation(fresh, fresh.ket(2, "z"), minus)

    def test_nan_weight_raises(self, measured):
        # The ket and the state are finite: the rule reads the frame's weight.
        plus, _ = z_record_pvm(measured, 1)
        with pytest.raises(ZeroWeightBranch, match="weight nan"):
            relative_expectation(measured, measured.ket(2, "z"),
                                 replace(plus, weight=np.nan))

    def test_divides_by_the_frames_own_weight(self, measured):
        # <A P> is read from the kets, <P> is the frame's weight as given.
        mz = measured.ket(2, "z")
        plus, _ = z_record_pvm(measured, 1)
        value = relative_expectation(measured, mz, plus)
        assert relative_expectation(measured, mz, replace(
            plus, weight=2 * plus.weight)) == value / 2
        with pytest.raises(ZeroWeightBranch, match="weight 0.000e"):
            relative_expectation(measured, mz, replace(plus, weight=0.0))


class TestAutonomy:
    def snapshots(self, state):
        return [Record(state, 1, "z"), Record(state, 2, "z")]

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

    def three(self, state):
        return [*self.snapshots(state), Record(state, 1, "x")]

    @pytest.fixture
    def norms(self, monkeypatch):
        """record_commutator reads the given norms in turn; the lists
        ``linalg.worst`` is called with are kept."""
        given, worst_calls = [], []
        monkeypatch.setattr(network, "record_commutator",
                            lambda *args: given.pop(0))
        inner = linalg.worst

        def recorded(values):
            worst_calls.append(list(values))
            return inner(worst_calls[-1])
        monkeypatch.setattr(linalg, "worst", recorded)
        return given, worst_calls

    def test_preserving_takes_the_worst_norm_once(self, measured, norms):
        given, worst_calls = norms
        given.extend([3e-15, 7e-15, 1e-15])
        result = autonomy_check(measured, Gate.cnot(1, 2),
                                self.three(measured))
        assert (result.preserving, result.commutator_norm) == (True, 7e-15)
        assert worst_calls == [[3e-15, 7e-15, 1e-15]]

    def test_nan_norm_is_violated_at_its_index(self, measured, norms):
        given, worst_calls = norms
        given.extend([1e-15, np.nan, 1e-15])
        result = autonomy_check(measured, Gate.cnot(1, 2),
                                self.three(measured))
        assert result.classification == "DESTROYING"
        assert result.violated_index == 1 and np.isnan(result.commutator_norm)
        assert given == [1e-15] and worst_calls == []


class TestBranchEvolutionFactor:
    def test_identity_f_gives_unit(self, measured):
        plus, _ = _branch_copies(measured, 2, Record(measured, 1, "z"))
        factor = f_branch_factor((1.0, 0.0, 0.0, 0.0), 1.0, plus)
        assert max_abs(factor - plus_projector(measured, 1)) <= 1e-10

    def test_two_path_equality(self, measured):
        rng = np.random.default_rng(31)
        copies = _branch_copies(measured, 2, Record(measured, 1, "z"))
        for _ in range(5):
            signs = rng.choice([-1.0, 1.0], size=4)
            alpha = (signs[0] + signs[1] + signs[2] + signs[3]) / 4
            beta = (signs[0] + signs[1] - signs[2] - signs[3]) / 4
            gamma = (signs[0] - signs[1] + signs[2] - signs[3]) / 4
            delta = (signs[0] - signs[1] - signs[2] + signs[3]) / 4
            params = (alpha, beta, gamma, delta)
            evolved = apply_gate(measured, Gate.f(1, 2, *params))
            for sign, copy in zip((1.0, -1.0), copies):
                factor = f_branch_factor(params, sign, copy)
                for c, mat in zip(COMPONENTS, copy):
                    path_a = evolved.component(2, c) @ copy[3]
                    path_b = factor.conj().T @ mat @ factor
                    assert max_abs(path_a - path_b) <= 1e-9

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
            frames = record_pvm(final, Record(timeline[2], 1, "z"))
            for frame, target in zip(frames, (1.0, -1.0)):
                values = [float(np.real(relative_expectation(
                    final, final.ket(2, c), frame))) for c in COMPONENTS]
                assert values[0] == pytest.approx(0.0, abs=1e-10)
                assert values[1] == pytest.approx(0.0, abs=1e-10)
                assert values[2] == pytest.approx(target, abs=1e-10)
            if theta in (0.0, np.pi / 2):
                kept[theta] = final.component(2, "x")
        assert max_abs(kept[0.0] - kept[np.pi / 2]) > 0.1


class TestFoliate:
    def test_valid_foliation(self, measured):
        report = foliate(measured, Record(measured, 1, "z"), [2])
        assert report.completeness_residual <= 1e-10
        assert report.max_commutator <= 1e-9
        assert len(report.frames) == 2

    def test_max_commutator_is_largest_norm(self, measured):
        # A record tilted by 1e-11 towards q_1x q_2x is an involution that
        # commutes with qubit 2's descriptors within tol.commute, not exactly.
        # It is q_1z of a state whose U is rotated by exp(-i t/2 s_1y s_2x).
        (x1, _, z1), d2 = acceptance._triples(measured)
        generator = linalg.embed(linalg.SIGMA_Y, 1, 2) @ linalg.embed(
            linalg.SIGMA_X, 2, 2)
        tilt = (np.cos(-0.5e-11) * linalg.identity(4)
                - 1j * np.sin(-0.5e-11) * generator)
        tilted = NetworkState(2, 2, tilt @ measured.u)
        record = tilted.component(1, "z")
        assert max_abs(record - (np.cos(1e-11) * z1
                                 + np.sin(1e-11) * x1 @ d2[0])) <= 1e-15
        report = foliate(measured, Record(tilted, 1, "z"), [2])
        # The record is not the final state's own: each norm is the dense
        # ||[1/2 q_2c, q_r]||.
        direct = max(linalg.commutator_norm(0.5 * mat, record) for mat in d2)
        assert 0 < report.max_commutator == direct <= 1e-9
        # [P+, q] = [1/2 q_r, q] = -[P-, q]: both projectors have the same
        # norms, up to roundoff.
        plus = plus_projector(tilted, 1)
        for proj in (plus, linalg.identity(4) - plus):
            assert max(linalg.commutator_norm(proj, mat)
                       for mat in d2) == pytest.approx(direct, rel=1e-4)

    def test_unentangled_cannot_be_foliated(self):
        fresh = init_network(2)
        with pytest.raises(NonCommuting, match=(
                r"^frame projector does not commute with q_1x: commutator "
                r"norm 1\.000e\+00 \(invalid foliation")):
            foliate(fresh, Record(fresh, 1, "z"), [1])


class TestChecksOncePerRecord:
    """A record's two frames share one certificate of the record's state
    and, since [1 - P, q] = -[P, q], one commutator norm per descriptor
    component."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Certificates taken (each state keeps its own) and dense
        commutator norms."""
        counts = {"certificate": 0, "commutator_norm": 0}
        certificate = network.algebra_certificate
        commutator_norm = linalg.commutator_norm

        def counted_certificate(state):
            counts["certificate"] += "certificate" not in state._cache
            return certificate(state)

        def counted_norm(*args):
            counts["commutator_norm"] += 1
            return commutator_norm(*args)

        monkeypatch.setattr(network, "algebra_certificate",
                            counted_certificate)
        monkeypatch.setattr(linalg, "commutator_norm", counted_norm)
        return counts

    @staticmethod
    def earlier(n, gates):
        """The final state of an n-qubit run of ``gates`` and one I gate,
        and the state of the step before it: the same U, as a record of an
        earlier step, which the final state reads through dense norms."""
        timeline = run_gates(init_network(n), [*gates, Gate("I")])
        return timeline[-1], timeline[-2]

    def test_make_pvm_checks_involution_once(self, measured, calls):
        z_record_pvm(measured, 1)
        z_record_pvm(measured, 2)
        assert calls == {"certificate": 1, "commutator_norm": 0}

    def test_state_checks_each_record_once(self, measured, calls):
        # The certificate is kept per state, and each descriptor matrix.
        for _ in range(3):
            for qubit in (1, 2):
                plus, _ = z_record_pvm(measured, qubit)
                dense = plus_projector(measured, qubit)
                assert max_abs(measured.u @ dense[:, 0] - plus.ket) <= 1e-15
        assert calls == {"certificate": 1, "commutator_norm": 0}
        assert len([key for key in measured._cache
                    if key[:1] == ("component",)]) == 2

    def test_both_copies_take_three_norms(self, calls):
        final, before = self.earlier(2, [Gate.h(1), Gate.cnot(1, 2)])
        plus, minus = _branch_copies(final, 2, Record(before, 1, "z"))
        assert calls == {"certificate": 1, "commutator_norm": 3}
        assert max_abs(plus[3] + minus[3] - linalg.identity(4)) == 0

    def test_own_record_takes_no_norm(self, measured, calls):
        plus, minus = _branch_copies(measured, 2, Record(measured, 1, "z"))
        assert calls == {"certificate": 1, "commutator_norm": 0}
        assert max_abs(plus[3] + minus[3] - linalg.identity(4)) == 0

    @pytest.mark.parametrize("qubits", [[2], [3, 2]])
    def test_foliate_takes_three_norms_per_qubit(self, calls, qubits):
        final, before = self.earlier(3, [Gate.h(1), Gate.cnot(1, 2),
                                         Gate.cnot(1, 3)])
        foliate(final, Record(before, 1, "z"), qubits)
        assert calls == {"certificate": 1,
                         "commutator_norm": 3 * len(qubits)}

    def test_unentangled_stops_at_first_norm(self, calls):
        final, before = self.earlier(2, [])
        with pytest.raises(NonCommuting, match="q_1x"):
            foliate(final, Record(before, 1, "z"), [1, 2])
        assert calls == {"certificate": 1, "commutator_norm": 1}


class TestMatrixFreeAnswers:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_relative_expectation_matches_dense(self, n):
        # Re <A P> / <P> through the dense product A P, computed here, over
        # every live frame of every z-record and every component of every
        # qubit.
        rng = np.random.default_rng(80 + n)
        checked = 0
        for depth in (3, 20):
            state = run_gates(init_network(n), [
                acceptance._random_gate(rng, n) for _ in range(depth)])[-1]
            for record in range(1, n + 1):
                plus = plus_projector(state, record)
                frames = z_record_pvm(state, record)
                for frame, proj in zip(frames,
                                       (plus, linalg.identity(state.dim) - plus)):
                    if frame.weight <= state.tol.weight:
                        continue
                    for qubit in range(1, n + 1):
                        for c in COMPONENTS:
                            got = relative_expectation(
                                state, state.ket(qubit, c), frame)
                            product = state.component(qubit, c) @ proj
                            psi = linalg.identity(state.dim)[0]  # e_0
                            want = np.vdot(psi, product @ psi) / frame.weight
                            assert isinstance(got, float)
                            assert abs(got - want.real) <= 1e-12
                            checked += 1
        assert checked > 0
