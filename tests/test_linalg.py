"""Tests for the dense linear algebra substrate."""

import numpy as np
import pytest

from heisim.errors import (NonUnitary, NotHermitian, NotInvolution,
                           ValidationError)
from heisim.linalg import (DEFAULT_TOL, SIGMA_X, SIGMA_Y, SIGMA_Z,
                           check_unitary, embed, embed_pauli, exceeds,
                           identity, max_abs, negligible, pauli_projector,
                           spectral, unitarity_defect, worst)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_involution(rng, dim):
    # Conjugate a random +-1 diagonal by a random unitary.
    u = random_unitary(rng, dim)
    signs = rng.choice([-1.0, 1.0], size=dim)
    return u @ np.diag(signs).astype(complex) @ u.conj().T


class TestTensor:
    def test_sigma_z_left(self):
        assert np.allclose(np.diag(np.kron(SIGMA_Z, identity(2))),
                           [1, 1, -1, -1])

    def test_sigma_z_right(self):
        assert np.allclose(np.diag(np.kron(identity(2), SIGMA_Z)),
                           [1, -1, 1, -1])

    def test_embed_pauli_first_slot(self):
        x, y, z = embed_pauli(1, 2)
        assert np.allclose(x, np.kron(SIGMA_X, identity(2)))
        assert np.allclose(y, np.kron(SIGMA_Y, identity(2)))
        assert np.allclose(z, np.kron(SIGMA_Z, identity(2)))

    def test_embed_pauli_second_slot(self):
        x, _, z = embed_pauli(2, 2)
        assert np.allclose(x, np.kron(identity(2), SIGMA_X))
        assert np.allclose(z, np.kron(identity(2), SIGMA_Z))

    def test_associativity(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert max_abs(np.kron(np.kron(a, b), c) - np.kron(a, np.kron(b, c))) <= 1e-12


class TestEmbed:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_equals_kron_reference(self, n):
        rng = np.random.default_rng(n)
        ops = (SIGMA_X, SIGMA_Y, SIGMA_Z,
               rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        for op in ops:
            for slot in range(1, n + 1):
                want = np.kron(np.kron(np.eye(2 ** (slot - 1)), op),
                               np.eye(2 ** (n - slot)))
                got = embed(op, slot, n)
                assert got.shape == (2 ** n, 2 ** n)
                assert got.dtype == complex
                assert np.array_equal(got, want), (n, slot)

    def test_slot_out_of_range(self):
        for slot in (0, 3):
            with pytest.raises(ValueError):
                embed(SIGMA_X, slot, 2)


class TestSpectral:
    def test_sigma_z(self):
        decomp = spectral(SIGMA_Z)
        assert sorted(decomp.eigenvalues) == pytest.approx([-1.0, 1.0])
        by_val = dict(zip(decomp.eigenvalues, decomp.projectors))
        assert np.allclose(by_val[max(by_val)], np.diag([1.0, 0.0]))
        assert np.allclose(by_val[min(by_val)], np.diag([0.0, 1.0]))

    def test_identity_single_cluster(self):
        decomp = spectral(identity(4))
        assert len(decomp.eigenvalues) == 1
        assert decomp.eigenvalues[0] == pytest.approx(1.0)
        assert np.allclose(decomp.projectors[0], identity(4))

    def test_two_qubit_register_spectrum(self):
        # Independent oracle: enumerate the computational basis and read the
        # register value off the z eigenvalues (z = -1 marks bit value 1;
        # qubit 1 is the low bit and occupies the leftmost tensor factor).
        z1 = np.kron(SIGMA_Z, identity(2))
        z2 = np.kron(identity(2), SIGMA_Z)
        register = 1 * 0.5 * (identity(4) - z1) + 2 * 0.5 * (identity(4) - z2)
        expected = {}
        for idx in range(4):
            bit1 = (idx >> 1) & 1
            bit2 = idx & 1
            expected[idx] = bit1 * 1 + bit2 * 2
        decomp = spectral(register)
        assert sorted(decomp.eigenvalues) == pytest.approx([0, 1, 2, 3])
        for lam, proj in zip(decomp.eigenvalues, decomp.projectors):
            assert np.trace(proj).real == pytest.approx(1.0)
            idx = int(np.argmax(np.abs(np.diag(proj))))
            assert expected[idx] == pytest.approx(lam)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(3)
        for dim in (2, 4, 8, 16):
            h = random_hermitian(rng, dim)
            decomp = spectral(h)
            total = sum(lam * proj for lam, proj in
                        zip(decomp.eigenvalues, decomp.projectors))
            assert max_abs(total - h) <= 1e-9

    def test_projector_invariants(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 8)
        decomp = spectral(h)
        total = sum(decomp.projectors)
        assert max_abs(total - identity(8)) <= 1e-10
        for i, p in enumerate(decomp.projectors):
            assert max_abs(p @ p - p) <= 1e-10
            for q in decomp.projectors[i + 1:]:
                assert max_abs(p @ q) <= 1e-10

    def test_clustering_merges_near_degenerate(self):
        h = np.diag([0.0, 1e-10, 1.0]).astype(complex)
        decomp = spectral(h)
        assert len(decomp.eigenvalues) == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            spectral(np.array([[0, 1], [0, 0]], dtype=complex))


class TestPauliProjector:
    def test_sigma_z_plus(self):
        assert np.allclose(pauli_projector(SIGMA_Z, +1), np.diag([1.0, 0.0]))

    def test_sigma_z_minus(self):
        assert np.allclose(pauli_projector(SIGMA_Z, -1), np.diag([0.0, 1.0]))

    def test_completeness(self):
        rng = np.random.default_rng(9)
        q = random_involution(rng, 8)
        total = pauli_projector(q, +1) + pauli_projector(q, -1)
        assert max_abs(total - identity(8)) <= 1e-10

    def test_idempotent_and_orthogonal(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            q = random_involution(rng, 4)
            plus = pauli_projector(q, +1)
            minus = pauli_projector(q, -1)
            assert max_abs(plus @ plus - plus) <= 1e-10
            assert max_abs(plus @ minus) <= 1e-10

    def test_rejects_non_involution(self):
        with pytest.raises(NotInvolution):
            pauli_projector(0.5 * SIGMA_Z, +1)


class TestNanSafety:
    def test_worst_propagates_nan(self):
        # max(0.0, nan) is 0.0; a NaN residual must not vanish that way.
        assert np.isnan(worst([0.0, float("nan"), 1.0]))
        assert np.isnan(worst([float("nan"), 1.0]))
        assert worst([0.5, 2.0]) == 2.0
        assert worst([]) == 0.0

    def test_nan_exceeds_every_bound(self):
        assert exceeds(float("nan"), 1e300)
        assert not exceeds(1.0, 1.0)
        assert exceeds(1.0 + 1e-12, 1.0)

    def test_nan_is_negligible(self):
        assert negligible(float("nan"), 0.0)
        assert negligible(0.0, 0.0)
        assert not negligible(1e-12, 0.0)

    def test_nan_matrix_is_not_unitary(self):
        with pytest.raises(NonUnitary):
            check_unitary(np.full((2, 2), np.nan, dtype=complex))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-12])
    def test_tolerances_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ValidationError):
            DEFAULT_TOL.override(sharp=value)

    def test_zero_tolerance_allowed(self):
        assert DEFAULT_TOL.override(oracle=0.0).oracle == 0.0


def dense_unitarity_defect(u):
    """The U†U GEMM that unitarity_defect's sparse sum replaces."""
    return max_abs(u.conj().T @ u - identity(u.shape[0]))


class TestUnitarityDefect:
    @pytest.mark.parametrize("dim", range(1, 33))
    def test_matches_the_dense_product(self, dim):
        rng = np.random.default_rng(700 + dim)
        bound = 8 * dim * np.finfo(float).eps
        gaussian = (rng.normal(size=(dim, dim))
                    + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2 * dim)
        sparse = gaussian * (rng.random((dim, dim)) < 0.3)
        for u in (random_unitary(rng, dim), gaussian, sparse):
            assert unitarity_defect(u) == pytest.approx(
                dense_unitarity_defect(u), abs=bound)

    def test_nan_gives_nan(self):
        u = identity(4)
        u[2, 1] = np.nan
        assert np.isnan(unitarity_defect(u))
        assert np.isnan(unitarity_defect(np.full((2, 2), np.nan,
                                                 dtype=complex)))

    @pytest.mark.parametrize("where", [(1, 1), (1, 2)])
    def test_inf_exceeds_every_bound(self, where):
        # On the diagonal the column norm is inf; off it, inf also meets the
        # row's other entry in an off-diagonal product.
        u = identity(4)
        u[where] = np.inf
        assert exceeds(unitarity_defect(u), 1e300)

    @pytest.mark.parametrize("column", [0, 2, 3])
    def test_zero_column_reads_one(self, column):
        u = identity(4)
        u[:, column] = 0
        assert unitarity_defect(u) == 1.0

    def test_identity_reads_zero(self):
        assert unitarity_defect(identity(16)) == 0.0

    def test_off_diagonal_products_of_one_row_count(self):
        # Orthonormal rows, but columns 0 and 1 overlap in row 0 only.
        u = np.array([[1, 1], [0, 0]], dtype=complex) / np.sqrt(2)
        assert unitarity_defect(u) == pytest.approx(
            dense_unitarity_defect(u), abs=1e-16)
        assert unitarity_defect(u) == pytest.approx(0.5)
