"""Dense complex linear algebra substrate for qubit-network observables.

All matrices are plain ``numpy.ndarray`` of complex128 with dimension a power
of two. Residuals are measured with the max-abs entrywise norm throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import NonUnitary, NotHermitian, NotInvolution, ValidationError

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
COMPONENTS = ("x", "y", "z")

MAX_QUBITS = 10


@dataclass(frozen=True)
class Tolerances:
    """Per-run tolerance configuration.

    Defaults: double-precision conjugation chains of depth <= 100 stay well
    under the 1e-10 bounds; the eigengap threshold is sized for integer
    register spectra with unit gaps.
    """

    hermitian: float = 1e-10
    unitary: float = 1e-10
    general: float = 1e-10
    norm: float = 1e-10
    eigengap: float = 1e-8
    sharp: float = 1e-9
    entangle: float = 1e-9
    commute: float = 1e-9
    weight: float = 1e-12
    oracle: float = 1e-9

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(
                    f"tolerance {f.name} must be finite and >= 0, got {value!r}")

    def override(self, **kwargs: float) -> "Tolerances":
        return replace(self, **kwargs)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


DEFAULT_TOL = Tolerances()


def max_abs(a: np.ndarray) -> float:
    """Max-abs entrywise norm (0.0 for empty input)."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def exceeds(value: float, bound: float) -> bool:
    """value > bound, where NaN exceeds every bound."""
    return not value <= bound


def negligible(value: float, bound: float) -> bool:
    """value <= bound, where NaN is negligible too.

    For quantities that must rise above a bound to count, such as a branch
    weight: NaN is no evidence that they do.
    """
    return not value > bound


def worst(values) -> float:
    """Largest of the values (0.0 for none); NaN as soon as one is NaN.

    The builtin ``max`` keeps its first argument when the second is NaN, which
    would let a NaN residual pass its bound.
    """
    values = np.asarray(list(values), dtype=float)
    return float(np.max(values)) if values.size else 0.0


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def embed(op: np.ndarray, slot: int, n: int) -> np.ndarray:
    """Embed a single-qubit operator at 1-based ``slot`` of an n-qubit space.

    Slot 1 occupies the leftmost Kronecker factor. The result is
    1 (x) op (x) 1, written as op on the diagonal blocks of a zero
    (left, 2, right) x (left, 2, right) array: the entries of the two
    Kronecker products without computing them.
    """
    if not 1 <= slot <= n:
        raise ValueError(f"slot {slot} out of range 1..{n}")
    left, right = 2 ** (slot - 1), 2 ** (n - slot)
    out = np.zeros((left, 2, right, left, 2, right),
                   dtype=np.result_type(op, complex))
    rows, cols = np.arange(left)[:, None], np.arange(right)
    out[rows, :, cols, rows, :, cols] = op
    return out.reshape(2 ** n, 2 ** n)


def embed_pauli(slot: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (x, y, z) generator triple for one qubit of an n-qubit space."""
    return tuple(embed(PAULIS[c], slot, n) for c in COMPONENTS)


def hermiticity_defect(a: np.ndarray) -> float:
    return max_abs(a - a.conj().T)


def check_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL.hermitian) -> None:
    defect = hermiticity_defect(a)
    if exceeds(defect, tol):
        raise NotHermitian(f"hermiticity defect {defect:.3e} > {tol:.3e}")


def unitarity_defect(u: np.ndarray) -> float:
    """max_abs(U†U - 1), summed over products of nonzero entries only.

    (U†U)_jk = sum_i conj(u_ij) u_ik. Its diagonal is the squared norm of
    column j, so a zero column reads 1. An off-diagonal entry sums the
    products of the nonzero entries u_ij, u_ik that share a row i; every
    other term is an exact zero. ``np.nonzero`` lists the entries row by
    row, so the pairs of a row are the entries k places apart, for
    k = 1, 2, ... until no row has k + 1 entries.

    Cost: an O(d^2) scan for the nonzeros, plus O(p) for the p pairs that
    share a row, summed by ``np.bincount`` into a lazily zeroed d^2 array of
    which only the pairs' pages are touched. A gate matrix has at most two
    entries per row, so p <= d and the check is O(4^n) instead of a d x d
    GEMM; a dense matrix has p = d^2(d - 1)/2. NaN counts as nonzero and
    gives NaN, and an inf entry gives inf or NaN: both exceed every bound.
    """
    dim = u.shape[0]
    rows, cols = np.nonzero(u)
    values = u[rows, cols]
    keys, products = [], []
    with np.errstate(invalid="ignore"):
        norms = np.bincount(cols, weights=values.real ** 2 + values.imag ** 2,
                            minlength=dim)
        for k in range(1, len(rows)):
            first = np.flatnonzero(rows[k:] == rows[:-k])
            if not first.size:
                break
            second = first + k
            keys.append(cols[first] * dim + cols[second])
            products.append(values[first].conj() * values[second])
        off = np.zeros(0)
        if keys:
            # Sum the products of each entry (j, k) of U†U, then read the
            # sums back at the pairs' own keys.
            keys, products = np.concatenate(keys), np.concatenate(products)
            off = np.hypot(np.bincount(keys, weights=products.real)[keys],
                           np.bincount(keys, weights=products.imag)[keys])
        return max_abs(np.concatenate([norms - 1.0, off]))


def check_unitary(u: np.ndarray, tol: float = DEFAULT_TOL.unitary) -> None:
    defect = unitarity_defect(u)
    if exceeds(defect, tol):
        raise NonUnitary(f"unitarity defect {defect:.3e} > {tol:.3e}")


def involution_defect(q: np.ndarray) -> float:
    return max_abs(q @ q - identity(q.shape[0]))


def check_involution(q: np.ndarray, tol: float = DEFAULT_TOL.general) -> None:
    defect = involution_defect(q)
    if exceeds(defect, tol):
        raise NotInvolution(f"involution defect {defect:.3e} > {tol:.3e}")


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    return max_abs(a @ b - b @ a)


def pauli_projector(q: np.ndarray, sign: int,
                    tol: float = DEFAULT_TOL.general) -> np.ndarray:
    """1/2(1 + sign*q) for an involution q; projects onto the sign eigenspace."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    check_involution(q, tol)
    return 0.5 * (identity(q.shape[0]) + sign * q)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Deduplicated eigenvalues with their eigenspace projectors."""

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]


def spectral(h: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix with eigenvalue clustering.

    Eigenvalues are merged by single-linkage with gap threshold tol.eigengap,
    so nearly-degenerate levels share one eigenspace projector.
    """
    check_hermitian(h, tol.hermitian)
    vals, vecs = np.linalg.eigh(h)
    clusters: list[list[int]] = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[i - 1] <= tol.eigengap:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    eigenvalues = []
    projectors = []
    for idx in clusters:
        block = vecs[:, idx]
        eigenvalues.append(float(np.mean(vals[idx])))
        projectors.append(block @ block.conj().T)
    return SpectralDecomposition(tuple(eigenvalues), tuple(projectors))
