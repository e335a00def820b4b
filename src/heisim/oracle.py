"""Schrodinger-picture state-vector simulator used as a ground-truth oracle.

Gates here are fixed matrices built from the initial-time generators and
applied to an evolving state vector. This module deliberately shares no
evolution code with the descriptor network: agreement between the two is the
strongest correctness check the suite has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg, network
from .errors import CircuitMismatch, NonUnitary
from .linalg import COMPONENTS, DEFAULT_TOL, Tolerances
from .network import Gate, NetworkState


def gate_matrix(gate: Gate, n: int) -> np.ndarray:
    """Fixed matrix of a gate on n qubits, built from initial generators."""
    gate.validate(n)
    dim = 2 ** n
    one = linalg.identity(dim)
    if gate.kind == "I":
        return one
    if gate.kind == "NOT":
        return linalg.embed(linalg.SIGMA_X, gate.operands[0], n)
    if gate.kind == "H":
        x = linalg.embed(linalg.SIGMA_X, gate.operands[0], n)
        z = linalg.embed(linalg.SIGMA_Z, gate.operands[0], n)
        return (x + z) / np.sqrt(2)
    if gate.kind == "RZ":
        (theta,) = gate.params
        z = linalg.embed(linalg.SIGMA_Z, gate.operands[0], n)
        return np.cos(theta / 2) * one - 1j * np.sin(theta / 2) * z
    if gate.kind == "CNOT":
        control, target = gate.operands
        cz = linalg.embed(linalg.SIGMA_Z, control, n)
        tx = linalg.embed(linalg.SIGMA_X, target, n)
        return 0.5 * (one + cz) + tx @ (0.5 * (one - cz))
    if gate.kind == "F":
        a, b = gate.operands
        alpha, beta, gamma, delta = gate.params
        za = linalg.embed(linalg.SIGMA_Z, a, n)
        zb = linalg.embed(linalg.SIGMA_Z, b, n)
        return alpha * one + beta * za + gamma * zb + delta * (za @ zb)
    # CCNOT
    c1, c2, target = gate.operands
    p1 = 0.5 * (one - linalg.embed(linalg.SIGMA_Z, c1, n))
    p2 = 0.5 * (one - linalg.embed(linalg.SIGMA_Z, c2, n))
    tx = linalg.embed(linalg.SIGMA_X, target, n)
    both = p1 @ p2
    return one - both + tx @ both


@dataclass(frozen=True)
class SchrodingerRun:
    """Forward state-vector evolution: states[t] is the vector at step t."""

    n: int
    states: tuple[np.ndarray, ...]


def evolve(initial: np.ndarray, gates: Sequence[Gate], n: int,
           tol: Tolerances = DEFAULT_TOL) -> SchrodingerRun:
    """Apply each gate's fixed matrix once per step, keeping every state."""
    psi = np.asarray(initial, dtype=complex)
    if linalg.exceeds(abs(np.linalg.norm(psi) - 1.0), tol.norm):
        raise NonUnitary(f"initial state norm {np.linalg.norm(psi):.12f} != 1")
    states = [psi]
    for step, gate in enumerate(gates):
        u = gate_matrix(gate, n)
        try:
            linalg.check_unitary(u, tol.unitary)
        except NonUnitary as exc:
            operands = ", ".join(map(str, gate.operands))
            raise NonUnitary(
                f"step {step}: {gate.kind} on ({operands}): {exc}") from None
        psi = u @ psi
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
