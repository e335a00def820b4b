"""Everett-branch machinery: relative frames, descriptors, and autonomy.

A measurement record defines a PVM of projectors; multiplying a qubit's
descriptors by a commuting projector yields the branch ("relative") copy of
that qubit, a fully-fledged qubit whose unit element is the projector itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import linalg, network
from .errors import NonCommuting, WrongGateKind, ZeroWeightBranch
from .linalg import COMPONENTS, Tolerances
from .network import Gate, NetworkState, Record


@dataclass(frozen=True)
class RelativeFrame:
    """A branch selector: projector, its eigenvalue label, and its weight.

    A run holds the projector P as its ket U P Psi, the final state phi
    projected onto the branch (see ``network``); P itself is also accepted.
    """

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


def make_pvm(state: NetworkState, plus: np.ndarray,
             source: str = "") -> tuple[RelativeFrame, RelativeFrame]:
    """Two-frame PVM of an involution record, from its projector
    P+ = 1/2(1 + q) or that projector's ket.

    ``NetworkState.projector`` gives P+ and checks the record's involution;
    P- is 1 - P+, and its ket phi - P+'s ket.
    """
    minus = (state.phi if np.ndim(plus) == 1
             else linalg.identity(state.dim)) - plus
    frames = []
    for sign, proj in ((1.0, plus), (-1.0, minus)):
        weight = float(np.real(network.expectation(state, proj)))
        frames.append(RelativeFrame(proj, sign, source, weight))
    return tuple(frames)


def record_pvm(state: NetworkState, record: Record,
               source: str = "") -> tuple[RelativeFrame, RelativeFrame]:
    """``make_pvm`` of a record read by the final state ``state``, from
    P+'s ket ``Record.ket``, after the record's involution check."""
    record.state.check_involution(record.qubit, record.name)
    return make_pvm(state, record.ket(state), source)


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


def _max_commutator(state: NetworkState, qubit: int, norm) -> float:
    """The largest ||[P, q_ac]|| = ``norm(name)`` over the qubit's
    components.

    Raises NonCommuting at the first component whose norm exceeds
    tol.commute; a NaN norm counts as not commuting.
    """
    norms = []
    for name in COMPONENTS:
        cnorm = norm(name)
        if linalg.exceeds(cnorm, state.tol.commute):
            raise NonCommuting(
                f"frame projector does not commute with q_{qubit}{name}: "
                f"commutator norm {cnorm:.3e} (invalid foliation; "
                f"unentangled systems cannot be foliated)")
        norms.append(cnorm)
    return linalg.worst(norms)


def relative_descriptors(state: NetworkState, qubit: int,
                         frames: tuple[RelativeFrame, RelativeFrame]
                         ) -> tuple[RelativeDescriptor, RelativeDescriptor]:
    """Both branch copies of one qubit under a ``make_pvm`` pair (P+, 1 - P+):
    descriptor components times each frame projector.

    The projectors must commute with every component, otherwise the products
    are not Hermitian and the foliation attempt is physically meaningless.
    [1 - P, q] = -[P, q], so the norms against P+ serve both frames.
    """
    _max_commutator(state, qubit, lambda name: linalg.commutator_norm(
        frames[0].projector, state.component(qubit, name)))
    d = state.descriptor(qubit)
    return tuple(RelativeDescriptor(d.x @ f.projector, d.y @ f.projector,
                                    d.z @ f.projector, f.projector)
                 for f in frames)


def relative_expectation(state: NetworkState, observable: np.ndarray,
                         frame: RelativeFrame):
    """Branch-conditional expectation <A P> / <P>."""
    weight = np.real(network.expectation(state, frame.projector))
    if linalg.negligible(weight, state.tol.weight):
        raise ZeroWeightBranch(
            f"branch {frame.label} of {frame.source!r} has weight {weight:.3e}")
    return network.correlation(state, observable, frame.projector) / weight


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
                   snapshots: Sequence) -> AutonomyResult:
    """Classify a gate against the current foliation's record snapshots.

    PRESERVING iff the gate unitary (evaluated on current descriptors)
    commutes with every recorded snapshot; otherwise DESTROYING with the
    first violated snapshot and the commutator norm.

    A snapshot is a descriptor matrix or a ``Record``. A record of the
    certified state itself whose sigma commutes exactly with the gate's
    local matrix (``network.gate_commutes``) takes the algebra certificate
    as its norm; every other snapshot takes the dense norm.
    """
    u = None
    worst = 0.0
    for idx, snap in enumerate(snapshots):
        if (isinstance(snap, Record) and snap.local_to(state)
                and network.gate_commutes(gate, snap.qubit, snap.name)):
            cnorm = network.algebra_certificate(state)
        else:
            if isinstance(snap, Record):
                snap = snap.state.component(snap.qubit, snap.name)
            if u is None:
                u = network.build_gate_unitary(state, gate)
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


def foliate(state: NetworkState, record: Record, qubits: Sequence[int],
            source: str = "") -> FoliationReport:
    """Decompose the listed qubits into relative states of a record's
    two-frame PVM (``record_pvm``).

    Both projectors must commute with the listed qubits' descriptors;
    ``relative_descriptors`` builds the branch copies themselves. For a
    record of the certified state itself, sigma_rc and sigma_qc' commute
    exactly unless q = r and c != c', and the certificate bounds those
    norms; the others are dense. The completeness residual is ||P+ P-||,
    which is a quarter of the record's involution defect ||1 - q^2||.
    """
    frames = record_pvm(state, record, source)
    local = record.local_to(state)
    plus = None  # the dense P+, built for the first norm that needs it

    def norm(qubit: int, name: str) -> float:
        nonlocal plus
        if local and (qubit != record.qubit or name == record.name):
            return network.algebra_certificate(state)
        if plus is None:
            plus = record.state.projector(record.qubit, record.name)
        return linalg.commutator_norm(plus, state.component(qubit, name))

    # [1 - P, q] = -[P, q]: both frames have the commutator norms of P+.
    max_comm = linalg.worst(_max_commutator(state, q, partial(norm, q))
                            for q in qubits)
    completeness = 0.25 * record.state.involution_defect(record.qubit,
                                                          record.name)
    return FoliationReport(frames, completeness, max_comm,
                           completeness <= state.tol.general)
