"""Schrodinger-picture state-vector simulator used as a ground-truth oracle.

Gates here are fixed operators built from the initial-time generators and
applied to an evolving state vector. This module deliberately shares no
evolution code with the descriptor network: agreement between the two is the
strongest correctness check the suite has.

Every built-in gate is U = D0 + X_t D1: two diagonals made from sigma_z's
+-1 pattern and a flip of the target qubit's index bit. A step applies U to
the vector from those parts, d0 psi + X_t (d1 psi), in O(2^n); the parts are
built, and checked for unitarity in O(2^n), once per distinct gate in a run.
The run's <sigma_ac>_t table applies the fixed Paulis from the same bit code.
``gate_matrix`` scatters the parts into the dense 2^n x 2^n matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg, network
from .errors import CircuitMismatch, NonUnitary
from .linalg import COMPONENTS, DEFAULT_TOL, Tolerances
from .network import Gate


def _z(qubit: int, n: int) -> np.ndarray:
    """sigma_z's diagonal on the qubit: z = 1 - 2 b, the +-1 pattern of the
    qubit's bit b of the basis index (qubit 1 is the most significant bit)."""
    return 1.0 - 2 * ((np.arange(2 ** n) >> (n - qubit)) & 1)


def _flip(m: np.ndarray, target: int) -> np.ndarray:
    """X_t m as a view: the last axis of m, a basis index, split as
    (2^(t-1), 2, rest) with the target's bit reversed."""
    return m.reshape(m.shape[:-1] + (2 ** (target - 1), 2, -1))[..., ::-1, :]


def _gate_parts(gate: Gate, n: int
                ) -> tuple[np.ndarray, int | None, np.ndarray | None]:
    """A gate as U = D0 + X_t D1: the diagonals d0 and d1, and the target t
    whose index bit X_t flips (None, with no d1, for a diagonal gate).

    Each line is the gate's characteristic function of sigma_z's diagonals
    z[q] (``_z``).
    """
    gate.validate(n)
    z = {q: _z(q, n) for q in gate.operands}
    one = np.ones(2 ** n)
    q, kind = gate.operands, gate.kind
    if kind == "I":
        return one, None, None
    if kind == "NOT":
        return 0 * one, q[0], one
    if kind == "H":
        return z[q[0]] / np.sqrt(2), q[0], one / np.sqrt(2)
    if kind == "RZ":
        (theta,) = gate.params
        return np.cos(theta / 2) - 1j * np.sin(theta / 2) * z[q[0]], None, None
    if kind == "CNOT":
        return 0.5 * (1 + z[q[0]]), q[1], 0.5 * (1 - z[q[0]])
    if kind == "F":
        alpha, beta, gamma, delta = gate.params
        za, zb = z[q[0]], z[q[1]]
        return alpha + beta * za + gamma * zb + delta * (za * zb), None, None
    # CCNOT: both controls set.
    both = 0.25 * (1 - z[q[0]]) * (1 - z[q[1]])
    return 1 - both, q[2], both


def gate_matrix(gate: Gate, n: int) -> np.ndarray:
    """Fixed 2^n x 2^n matrix of a gate, D0 + X_t D1 (see ``_gate_parts``):
    one zeroed allocation and two index scatters."""
    d0, target, d1 = _gate_parts(gate, n)
    dim = len(d0)
    u = np.zeros((dim, dim), dtype=complex)
    j = np.arange(dim)
    u[j, j] = d0
    if target is not None:
        u[j ^ (dim >> target), j] = d1
    return u


def _squared(v: np.ndarray) -> np.ndarray:
    """|v|^2 as re^2 + im^2, with no square root to round."""
    return v.real ** 2 + v.imag ** 2


def _unitarity_defect(d0: np.ndarray, target: int | None,
                      d1: np.ndarray | None) -> float:
    """max_abs(U†U - 1) of U = D0 + X_t D1 from its parts, in O(2^n).

    Column j of U holds d0_j at row j and d1_j at row j ^ b, b the target's
    bit. So (U†U)_jj = |d0_j|^2 + |d1_j|^2, and its only other nonzero
    entries are (j, j ^ b) = conj(d0_j) d1_{j^b} + conj(d1_j) d0_{j^b}.
    NaN gives NaN.
    """
    if target is None:
        return linalg.max_abs(_squared(d0) - 1.0)
    flip = len(d0) >> target
    lo = np.flatnonzero((np.arange(len(d0)) & flip) == 0)
    hi = lo | flip
    overlap = d0[lo].conj() * d1[hi] + d1[lo].conj() * d0[hi]
    return linalg.max_abs(np.concatenate([
        _squared(d0) + _squared(d1) - 1.0,
        np.hypot(overlap.real, overlap.imag)]))


def _apply_parts(parts: tuple[np.ndarray, int | None, np.ndarray | None],
                 psi: np.ndarray, out: np.ndarray) -> None:
    """U psi into ``out`` for U = D0 + X_t D1: d0 psi + X_t (d1 psi)."""
    d0, target, d1 = parts
    np.multiply(d0, psi, out=out)
    if target is not None:
        flipped = _flip(d1 * psi, target)
        halves = out.reshape(flipped.shape)
        halves += flipped


def _apply_sigma(m: np.ndarray, qubit: int, name: str) -> np.ndarray:
    """sigma_{qubit,name} m on the last axis of a vector or a stack of row
    vectors, from the bit code of the gates: sigma_x = X_a, sigma_z = D(z_a)
    and sigma_y = X_a D(i z_a) = D(-i z_a) X_a. One allocation."""
    n = m.shape[-1].bit_length() - 1
    if name == "z":
        return m * _z(qubit, n)
    flipped = _flip(m, qubit).copy().reshape(m.shape)
    if name == "y":
        flipped *= -1j * _z(qubit, n)
    return flipped


@dataclass(frozen=True)
class SchrodingerRun:
    """Forward state-vector evolution: row t of ``states``, a (T+1) x 2^n
    array, is the vector at step t; ``expectations`` holds its <sigma_ac>,
    kept complex, in the rows and columns of ``Timeline.expectations``."""

    states: np.ndarray
    expectations: np.ndarray


def evolve(initial: np.ndarray, gates: Sequence[Gate], n: int,
           tol: Tolerances = DEFAULT_TOL) -> SchrodingerRun:
    """Apply each gate to the state vector from its parts, keeping every
    state: O(2^n) per step. Then tabulate <sigma_ac> of every state.

    Each distinct gate's parts are built once per call and checked for
    unitarity at its first step, so a failure names the first step that
    fails. The initial state's norm is checked against the same tol.unitary.
    """
    psi = np.asarray(initial, dtype=complex)
    if linalg.exceeds(abs(np.linalg.norm(psi) - 1.0), tol.unitary):
        raise NonUnitary(f"initial state norm {np.linalg.norm(psi):.12f} != 1")
    states = np.empty((len(gates) + 1, len(psi)), dtype=complex)
    states[0] = psi
    parts: dict[Gate, tuple] = {}
    for step, gate in enumerate(gates):
        if gate not in parts:
            parts[gate] = _gate_parts(gate, n)
            defect = _unitarity_defect(*parts[gate])
            if linalg.exceeds(defect, tol.unitary):
                operands = ", ".join(map(str, gate.operands))
                raise NonUnitary(
                    f"step {step}: {gate.kind} on ({operands}): unitarity "
                    f"defect {defect:.3e} > {tol.unitary:.3e}")
        _apply_parts(parts[gate], states[step], states[step + 1])
    bras = states.conj()
    return SchrodingerRun(states, np.array([
        np.einsum("tj,tj->t", bras, _apply_sigma(states, a, c))
        for a in range(1, n + 1) for c in COMPONENTS]))


@dataclass(frozen=True)
class CrossValidationReport:
    max_residual: float
    per_step: tuple[float, ...]


def cross_validate(run: SchrodingerRun, timeline: network.Timeline
                   ) -> CrossValidationReport:
    """Compare both pictures step by step.

    For every step t and every descriptor component, the Heisenberg
    expectation <Psi|U_t† sigma U_t|Psi> of the evolved operator must equal
    the Schrodinger expectation of the fixed operator in the evolved state.
    Each picture tabulates its own (``Timeline.expectations``,
    ``SchrodingerRun.expectations``); this only compares the two tables.
    """
    heis, schr = timeline.expectations, run.expectations
    if heis.shape != schr.shape:
        raise CircuitMismatch(
            f"oracle table {schr.shape} vs network {heis.shape}")
    # The worst of the 3n comparisons per step; NaN propagates.
    per_step = tuple(np.max(np.abs(heis - schr), axis=0).tolist())
    return CrossValidationReport(linalg.worst(per_step), per_step)
