"""Everett-branch machinery: relative frames, descriptors, and autonomy.

A measurement record defines a PVM of projectors; multiplying a qubit's
descriptors by a commuting projector yields the branch ("relative") copy of
that qubit, a fully-fledged qubit whose unit element is the projector itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg, network
from .errors import NonCommuting, WrongGateKind, ZeroWeightBranch
from .linalg import Tolerances, max_abs
from .network import Gate, NetworkState


@dataclass(frozen=True)
class RelativeFrame:
    """A branch selector: projector, its eigenvalue label, and its weight."""

    projector: np.ndarray
    label: float
    source: str
    weight: float


@dataclass(frozen=True)
class RelativeDescriptor:
    """One branch instance of a qubit: components q_i * P with unit P."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    unit: np.ndarray

    def component(self, name: str) -> np.ndarray:
        return getattr(self, name)


@dataclass(frozen=True)
class FoliationReport:
    frames: tuple[RelativeFrame, ...]
    completeness_residual: float
    max_commutator: float
    valid: bool


@dataclass(frozen=True)
class AutonomyResult:
    preserving: bool
    violated_index: Optional[int]
    commutator_norm: float

    @property
    def classification(self) -> str:
        return "PRESERVING" if self.preserving else "DESTROYING"


def make_pvm(state: NetworkState, recorded: np.ndarray,
             source: str = "") -> tuple[RelativeFrame, RelativeFrame]:
    """Two-frame PVM of an involution record: projectors 1/2(1 +- recorded).

    P- is 1 - P+, so the record's involution is checked once.
    """
    plus = linalg.pauli_projector(recorded, +1, state.tol.general)
    frames = []
    for sign, proj in ((1.0, plus), (-1.0, linalg.identity(state.dim) - plus)):
        weight = float(np.real(network.expectation(state, proj)))
        frames.append(RelativeFrame(proj, sign, source, weight))
    return tuple(frames)


def make_pvm_spectral(state: NetworkState, observable: np.ndarray,
                      source: str = "") -> tuple[RelativeFrame, ...]:
    """One frame per (clustered) eigenvalue of a general Hermitian record."""
    decomp = linalg.spectral(observable, state.tol)
    frames = []
    for lam, proj in zip(decomp.eigenvalues, decomp.projectors):
        weight = float(np.real(network.expectation(state, proj)))
        frames.append(RelativeFrame(proj, lam, source, weight))
    return tuple(frames)


def live_frames(frames: Sequence[RelativeFrame], tol: Tolerances
                ) -> list[RelativeFrame]:
    """The frames whose weight exceeds tol.weight.

    A NaN weight raises ZeroWeightBranch: such a branch can be neither skipped
    nor conditioned on.
    """
    for f in frames:
        if np.isnan(f.weight):
            raise ZeroWeightBranch(
                f"branch {f.label:g} of {f.source!r} has weight nan")
    return [f for f in frames if f.weight > tol.weight]


def _max_commutator(state: NetworkState, qubit: int,
                    proj: np.ndarray) -> float:
    """The largest ||[P, q_ac]|| over the qubit's components.

    Raises NonCommuting at the first component whose norm exceeds
    tol.commute; a NaN norm counts as not commuting.
    """
    norms = []
    for name, mat in state.descriptor(qubit).components():
        cnorm = linalg.commutator_norm(proj, mat)
        if linalg.exceeds(cnorm, state.tol.commute):
            raise NonCommuting(
                f"frame projector does not commute with q_{qubit}{name}: "
                f"commutator norm {cnorm:.3e} (invalid foliation; "
                f"unentangled systems cannot be foliated)")
        norms.append(cnorm)
    return linalg.worst(norms)


def relative_descriptor(state: NetworkState, qubit: int,
                        frame: RelativeFrame) -> RelativeDescriptor:
    """Branch copy of one qubit: descriptor components times the frame projector.

    The projector must commute with every component, otherwise the products
    are not Hermitian and the foliation attempt is physically meaningless.
    """
    proj = frame.projector
    _max_commutator(state, qubit, proj)
    d = state.descriptor(qubit)
    return RelativeDescriptor(d.x @ proj, d.y @ proj, d.z @ proj, proj)


def relative_expectation(state: NetworkState, observable: np.ndarray,
                         frame: RelativeFrame):
    """Branch-conditional expectation <A P> / <P>."""
    weight = np.real(network.expectation(state, frame.projector))
    if linalg.negligible(weight, state.tol.weight):
        raise ZeroWeightBranch(
            f"branch {frame.label} of {frame.source!r} has weight {weight:.3e}")
    return network.expectation(state, observable @ frame.projector) / weight


def relative_heisenberg_state(state: NetworkState,
                              frame: RelativeFrame) -> np.ndarray:
    """Normalized projection P|Psi>/||P|Psi>|| of the fixed state."""
    projected = frame.projector @ state.psi
    norm = float(np.linalg.norm(projected))
    if linalg.negligible(norm * norm, state.tol.weight):
        raise ZeroWeightBranch(
            f"branch {frame.label} of {frame.source!r} has squared norm "
            f"{norm * norm:.3e}")
    return projected / norm


def autonomy_check(state: NetworkState, gate: Gate,
                   snapshots: Sequence[np.ndarray]) -> AutonomyResult:
    """Classify a gate against the current foliation's record snapshots.

    PRESERVING iff the gate unitary (evaluated on current descriptors)
    commutes with every recorded snapshot; otherwise DESTROYING with the
    first violated snapshot and the commutator norm.
    """
    u = network.build_gate_unitary(state, gate)
    worst = 0.0
    for idx, snap in enumerate(snapshots):
        cnorm = linalg.commutator_norm(u, snap)
        worst = linalg.worst((worst, cnorm))
        if linalg.exceeds(cnorm, state.tol.commute):
            return AutonomyResult(False, idx, cnorm)
    return AutonomyResult(True, None, worst)


def branch_evolution_factor(state: NetworkState, gate: Gate,
                            frame: RelativeFrame) -> np.ndarray:
    """Branch-restricted unitary of a diagonal two-qubit F gate.

    The frame must come from the z-record PVM of the gate's first operand;
    for label s the factor is (alpha + s*beta) * P + (gamma + s*delta) * q_bz P,
    acting on the relative copy of the second operand.
    """
    if gate.kind != "F":
        raise WrongGateKind(f"branch factor defined for F gates, got {gate.kind}")
    alpha, beta, gamma, delta = gate.params
    s = 1.0 if frame.label > 0 else -1.0
    _, b = gate.operands
    qbz = state.descriptor(b).z
    proj = frame.projector
    return (alpha + s * beta) * proj + (gamma + s * delta) * (qbz @ proj)


def foliate(state: NetworkState, recorded: np.ndarray, qubits: Sequence[int],
            source: str = "") -> FoliationReport:
    """Decompose the listed qubits into relative states of a two-frame PVM.

    Both projectors must commute with the listed qubits' descriptors;
    ``relative_descriptor`` builds the branch copies themselves.
    """
    frames = make_pvm(state, recorded, source)
    completeness = max_abs(sum(f.projector for f in frames)
                           - linalg.identity(state.dim))
    # [1 - P, q] = -[P, q]: both frames have the commutator norms of P+.
    max_comm = linalg.worst(_max_commutator(state, q, frames[0].projector)
                            for q in qubits)
    return FoliationReport(frames, completeness, max_comm,
                           completeness <= state.tol.general)
