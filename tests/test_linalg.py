"""Tests for the dense linear algebra substrate."""

import numpy as np
import pytest

from heisim.errors import NotHermitian, ValidationError
from heisim.linalg import (DEFAULT_TOL, PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z,
                           embed, exceeds, identity, max_abs, negligible,
                           spectral, worst)
from heisim.oracle import _unitarity_defects


def unitarity_defect(d0, target, d1):
    """The oracle's defect of one gate's parts, a batch of one row; a
    diagonal gate (no target) has d1 = 0."""
    d1 = np.zeros_like(d0) if d1 is None else d1
    (defect,) = _unitarity_defects(np.array([d0], complex),
                                   np.array([d1], complex),
                                   np.array([target or 0]))
    return defect


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestTensor:
    def test_sigma_z_left(self):
        assert np.allclose(np.diag(np.kron(SIGMA_Z, identity(2))),
                           [1, 1, -1, -1])

    def test_sigma_z_right(self):
        assert np.allclose(np.diag(np.kron(identity(2), SIGMA_Z)),
                           [1, -1, 1, -1])

    def test_embed_pauli_first_slot(self):
        x, y, z = (embed(PAULIS[c], 1, 2) for c in "xyz")
        assert np.allclose(x, np.kron(SIGMA_X, identity(2)))
        assert np.allclose(y, np.kron(SIGMA_Y, identity(2)))
        assert np.allclose(z, np.kron(SIGMA_Z, identity(2)))

    def test_embed_pauli_second_slot(self):
        x, z = (embed(PAULIS[c], 2, 2) for c in "xz")
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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-12])
    def test_tolerances_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ValidationError):
            DEFAULT_TOL.override(sharp=value)

    def test_zero_tolerance_allowed(self):
        assert DEFAULT_TOL.override(oracle=0.0).oracle == 0.0


def dense_unitarity_defect(d0, target, d1):
    """max_abs(U†U - 1) of U = D0 + X_t D1, built with dense products."""
    n = len(d0).bit_length() - 1
    u = np.diag(d0).astype(complex)
    if target is not None:
        u = u + embed(SIGMA_X, target, n) @ np.diag(d1)
    return max_abs(u.conj().T @ u - identity(2 ** n))


class TestUnitarityDefect:
    """The oracle's O(2^n) unitarity defect of a gate D0 + X_t D1, read from
    its diagonals d0, d1 and target t, against the dense product U†U."""

    @pytest.mark.parametrize("case", range(1, 33))
    def test_matches_the_dense_product(self, case):
        rng = np.random.default_rng(700 + case)
        n = 1 + case % 5
        dim, target = 2 ** n, int(rng.integers(1, n + 1))
        bound = 8 * dim * np.finfo(float).eps
        # Unitary: each pair of basis states j, j ^ b, b the target's bit,
        # spans a random 2 x 2 unitary block.
        d0, d1 = np.zeros(dim, complex), np.zeros(dim, complex)
        flip = dim >> target
        for lo in range(dim):
            if not lo & flip:
                hi = lo | flip
                (d0[lo], d1[hi]), (d1[lo], d0[hi]) = random_unitary(rng, 2)
        gaussian = [(rng.normal(size=dim) + 1j * rng.normal(size=dim))
                    / np.sqrt(2) for _ in range(2)]
        sparse = [part * (rng.random(dim) < 0.3) for part in gaussian]
        for parts in ((d0, target, d1), (gaussian[0], target, gaussian[1]),
                      (sparse[0], target, sparse[1]),
                      (gaussian[0], None, None)):
            assert unitarity_defect(*parts) == pytest.approx(
                dense_unitarity_defect(*parts), abs=bound)
        assert unitarity_defect(d0, target, d1) <= bound

    def test_nan_gives_nan(self):
        for where in range(4):
            nan = np.ones(4, complex)
            nan[where] = np.nan
            assert np.isnan(unitarity_defect(nan, None, None))
            assert np.isnan(unitarity_defect(nan, 2, np.zeros(4)))
            assert np.isnan(unitarity_defect(np.zeros(4), 2, nan))

    @pytest.mark.parametrize("where", [(0, 1), (1, 1)])
    def test_inf_exceeds_every_bound(self, where):
        # In d0 the column norm is inf; in d1, inf also meets its pair's
        # other entries in an overlap. The Hadamard's parts on qubit 1.
        parts = [np.array([1, 1, -1, -1]) / np.sqrt(2), np.full(4, 0.5 ** 0.5)]
        part, entry = where
        parts[part][entry] = np.inf
        assert exceeds(unitarity_defect(parts[0], 1, parts[1]), 1e300)

    @pytest.mark.parametrize("column", [0, 2, 3])
    def test_zero_column_reads_one(self, column):
        d0 = np.ones(4)
        d0[column] = 0
        assert unitarity_defect(d0, None, None) == 1.0
        assert unitarity_defect(d0, 2, np.zeros(4)) == 1.0

    def test_identity_reads_zero(self):
        assert unitarity_defect(np.ones(16), None, None) == 0.0
        assert unitarity_defect(np.ones(16), 3, np.zeros(16)) == 0.0

    def test_off_diagonal_products_of_one_row_count(self):
        # Unit columns (1, 0) and (r, r) on one qubit overlap in row 0 only,
        # the conj(d0_j) d1_{j^b} term; (0, 1) and (r, r) overlap in row 1
        # only, the conj(d1_j) d0_{j^b} term.
        r = 0.5 ** 0.5
        for parts in (([1, r], 1, [0, r]), ([0, r], 1, [1, r])):
            d0, target, d1 = (np.array(parts[0], complex), parts[1],
                              np.array(parts[2], complex))
            assert unitarity_defect(d0, target, d1) == pytest.approx(
                dense_unitarity_defect(d0, target, d1), abs=1e-16)
            assert unitarity_defect(d0, target, d1) == pytest.approx(r)
