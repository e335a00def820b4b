"""Schrodinger-picture state-vector simulator used as a ground-truth oracle.

Gates here are fixed matrices built from the initial-time generators and
applied to an evolving state vector. This module deliberately shares no
evolution code with the descriptor network: agreement between the two is the
strongest correctness check the suite has.

Every built-in gate is U = D0 + X_t D1: two diagonals made from sigma_z's
+-1 pattern and a flip of the target qubit's index bit. Each step applies U
as a dense 2^n x 2^n matrix, scattered from those parts into one zeroed
allocation, so the only product per step is U psi. Unitarity is read from
the same parts in O(2^n), once per distinct gate in a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg, network
from .errors import CircuitMismatch, NonUnitary
from .linalg import COMPONENTS, DEFAULT_TOL, Tolerances
from .network import Gate, NetworkState


def _gate_parts(gate: Gate, n: int
                ) -> tuple[np.ndarray, int | None, np.ndarray | None]:
    """A gate as U = D0 + X_t D1: the diagonals d0 and d1, and the target t
    whose index bit X_t flips (None, with no d1, for a diagonal gate).

    Each line is the gate's characteristic function of sigma_z's diagonals
    z[q] = 1 - 2 b_q, the +-1 pattern of qubit q's bit of the basis index
    (qubit 1 is the most significant bit).
    """
    gate.validate(n)
    index = np.arange(2 ** n)
    z = {q: 1.0 - 2 * ((index >> (n - q)) & 1) for q in gate.operands}
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


@dataclass(frozen=True)
class SchrodingerRun:
    """Forward state-vector evolution: states[t] is the vector at step t."""

    n: int
    states: tuple[np.ndarray, ...]


def evolve(initial: np.ndarray, gates: Sequence[Gate], n: int,
           tol: Tolerances = DEFAULT_TOL) -> SchrodingerRun:
    """Apply each gate's fixed matrix once per step, keeping every state.

    Each distinct gate has its matrix checked for unitarity once per call,
    at its first step, so a failure names the first step that fails. The
    initial state's norm is checked against the same tol.unitary.
    """
    psi = np.asarray(initial, dtype=complex)
    if linalg.exceeds(abs(np.linalg.norm(psi) - 1.0), tol.unitary):
        raise NonUnitary(f"initial state norm {np.linalg.norm(psi):.12f} != 1")
    states = [psi]
    unitary: set[Gate] = set()
    for step, gate in enumerate(gates):
        if gate not in unitary:
            defect = _unitarity_defect(*_gate_parts(gate, n))
            if linalg.exceeds(defect, tol.unitary):
                operands = ", ".join(map(str, gate.operands))
                raise NonUnitary(
                    f"step {step}: {gate.kind} on ({operands}): unitarity "
                    f"defect {defect:.3e} > {tol.unitary:.3e}")
            unitary.add(gate)
        psi = gate_matrix(gate, n) @ psi
        states.append(psi)
    return SchrodingerRun(n, tuple(states))


@dataclass(frozen=True)
class CrossValidationReport:
    max_residual: float
    per_step: tuple[float, ...]


def cross_validate(run: SchrodingerRun, timeline: Sequence[NetworkState]
                   ) -> CrossValidationReport:
    """Compare both pictures step by step.

    For every step t and every descriptor component, the Heisenberg
    expectation <Psi|U_t† sigma U_t|Psi> of the evolved operator must equal
    the Schrodinger expectation of the fixed operator in the evolved state.
    """
    if len(run.states) != len(timeline):
        raise CircuitMismatch(
            f"{len(run.states)} oracle states vs {len(timeline)} network steps")
    if timeline and run.n != timeline[0].n:
        raise CircuitMismatch(f"oracle n={run.n} vs network n={timeline[0].n}")
    n = run.n
    # Column t of each stack is step t: the oracle state, and phi = U_t Psi,
    # with <Psi|U_t† sigma_a U_t|Psi> = <phi|sigma_a phi>, the number the
    # final-step answers read (network.apply_pauli).
    states = np.stack(run.states, axis=1)
    phis = np.stack([state.phi for state in timeline], axis=1)
    bras = phis.conj()
    residuals = []
    for a in range(1, n + 1):
        for c in COMPONENTS:
            heis = np.sum(bras * network.apply_pauli(phis, a, c), axis=0).real
            fixed = linalg.embed(linalg.PAULIS[c], a, n) @ states
            schr = np.sum(states.conj() * fixed, axis=0)
            residuals.append(np.abs(heis - schr))
    # The worst of the 3n comparisons per step; NaN propagates.
    per_step = tuple(np.max(residuals, axis=0).tolist())
    return CrossValidationReport(linalg.worst(per_step), per_step)
