"""Dense complex linear algebra substrate for qubit-network observables.

All matrices are plain ``numpy.ndarray`` of complex128 with dimension a power
of two. Residuals are measured with the max-abs entrywise norm throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import NotHermitian, ValidationError

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
COMPONENTS = ("x", "y", "z")

MAX_QUBITS = 10


@dataclass(frozen=True)
class Tolerances:
    """Per-run tolerance configuration; each field can change a run's
    answers or its exit status.

    Defaults: double-precision conjugation chains of depth <= 100 stay well
    under the 1e-10 bounds. ``unitary`` also bounds the oracle's initial
    state norm.
    """

    unitary: float = 1e-10
    general: float = 1e-10
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

# Bounds of ``spectral``, which no run reaches: a hermiticity defect, and the
# eigenvalue gap below which levels share one eigenspace.
HERMITIAN_TOL = 1e-10
EIGENGAP = 1e-8


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


def hermiticity_defect(a: np.ndarray) -> float:
    return max_abs(a - a.conj().T)


def check_hermitian(a: np.ndarray) -> None:
    defect = hermiticity_defect(a)
    if exceeds(defect, HERMITIAN_TOL):
        raise NotHermitian(
            f"hermiticity defect {defect:.3e} > {HERMITIAN_TOL:.3e}")


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    return max_abs(a @ b - b @ a)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Deduplicated eigenvalues with their eigenspace projectors."""

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]


def spectral(h: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix with eigenvalue clustering.

    Eigenvalues are merged by single-linkage with gap threshold EIGENGAP,
    so nearly-degenerate levels share one eigenspace projector.
    """
    check_hermitian(h)
    vals, vecs = np.linalg.eigh(h)
    clusters: list[list[int]] = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[i - 1] <= EIGENGAP:
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
