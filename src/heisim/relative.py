"""Everett-branch machinery: relative frames, branch values and autonomy.

A measurement record defines a PVM of projectors; multiplying a qubit's
descriptors by a commuting projector yields the branch ("relative") copy of
that qubit, a fully-fledged qubit whose unit element is the projector itself.
A frame holds its projector P as the ket U P Psi, the final state phi
projected onto the branch (see ``network``), and every branch value is read
from kets; ``heisim selftest`` builds the dense copies itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Optional, Sequence

import numpy as np

from . import linalg, network
from .errors import NonCommuting, ZeroWeightBranch
from .linalg import COMPONENTS, Tolerances
from .network import Gate, NetworkState, Record


@dataclass(frozen=True)
class RelativeFrame:
    """A branch selector: the ket U P Psi of its projector P, its eigenvalue
    label, and its weight <P>."""

    ket: np.ndarray
    label: float
    source: str
    weight: float


@dataclass(frozen=True)
class FoliationReport:
    frames: tuple[RelativeFrame, ...]
    completeness_residual: float
    max_commutator: float


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
    """Two-frame PVM of an involution record, from the ket of its projector
    P+ = 1/2(1 + q); P- = 1 - P+ has the ket phi - P+'s ket. Each weight
    <P> is ``network.expectation`` of its ket."""
    minus = state.phi - plus
    return (RelativeFrame(plus, 1.0, source,
                          network.expectation(state, plus)),
            RelativeFrame(minus, -1.0, source,
                          network.expectation(state, minus)))


def record_pvm(state: NetworkState,
               record: Record) -> tuple[RelativeFrame, RelativeFrame]:
    """``make_pvm`` of a record read by the final state ``state``, from
    P+'s ket ``Record.ket``, after ``network.certify`` of the record's own
    state: its certificate bounds ||q_r^2 - 1||. The frames name the record
    by its ``label``."""
    network.certify(record.state)
    return make_pvm(state, record.ket(state), record.label)


def make_pvm_spectral(state: NetworkState, observable: np.ndarray,
                      source: str = "") -> tuple[RelativeFrame, ...]:
    """One frame per (clustered) eigenvalue of a general Hermitian record
    matrix, each holding its ket U P Psi."""
    decomp = linalg.spectral(observable)
    frames = []
    for lam, proj in zip(decomp.eigenvalues, decomp.projectors):
        ket = state.u @ proj[:, 0]
        frames.append(RelativeFrame(ket, lam, source,
                                    network.expectation(state, ket)))
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


def _max_commutator(state: NetworkState, record: Record, qubit: int,
                    gates: Optional[Sequence[Gate]]) -> float:
    """The largest ||[P+, q_ac]|| = ||[U_T† (1/2 sigma_ac) U_T, q_r]|| over
    the qubit's components (``network.record_commutator``; a record of an
    earlier step reads U_T† (1/2 sigma_ac) U_T = 1/2 q_ac; one of the final
    step reads the qubit's light cone through ``gates``).

    Raises NonCommuting at the first component whose norm exceeds
    tol.commute; a NaN norm counts as not commuting.
    """
    norms = []
    for name in COMPONENTS:
        cnorm = network.record_commutator(
            state, record, 0.5 * linalg.PAULIS[name], (qubit,),
            lambda: 0.5 * state.component(qubit, name), gates)
        if linalg.exceeds(cnorm, state.tol.commute):
            raise NonCommuting(
                f"frame projector does not commute with q_{qubit}{name}: "
                f"commutator norm {cnorm:.3e} (invalid foliation; "
                f"unentangled systems cannot be foliated)")
        norms.append(cnorm)
    return linalg.worst(norms)


def relative_expectation(state: NetworkState, observable: np.ndarray,
                         frame: RelativeFrame) -> float:
    """Branch-conditional expectation Re <A P> / <P>, from the kets of A and
    of the frame and the frame's ``weight`` <P>.

    A weight within tol.weight, NaN included, raises ZeroWeightBranch.
    """
    if linalg.negligible(frame.weight, state.tol.weight):
        raise ZeroWeightBranch(f"branch {frame.label} of {frame.source!r} "
                               f"has weight {frame.weight:.3e}")
    return network.correlation(state, observable, frame.ket) / frame.weight


def autonomy_check(state: NetworkState, gate: Gate,
                   records: Sequence[Record],
                   gates: Optional[Sequence[Gate]] = None) -> AutonomyResult:
    """Classify a gate against the current foliation's records.

    PRESERVING iff the gate unitary (evaluated on current descriptors)
    commutes with every record; otherwise DESTROYING with the first violated
    record and the commutator norm.

    Each norm is ``network.record_commutator`` of the gate's local matrix;
    a record of an earlier step reads U_T† g U_T, built once, and one of the
    final step the light cone of the gate's operands through ``gates``,
    the run's gate list when the caller has it. A NaN norm is violated.
    """
    gate.validate(state.n)
    # I has no operands, so no block to build.
    local = network.local_matrix(gate) if gate.operands else None
    unitary = cache(partial(network.build_gate_unitary, state, gate))
    norms = []
    for idx, record in enumerate(records):
        cnorm = network.record_commutator(state, record, local,
                                          gate.operands, unitary, gates)
        if linalg.exceeds(cnorm, state.tol.commute):
            return AutonomyResult(False, idx, cnorm)
        norms.append(cnorm)
    return AutonomyResult(True, None, linalg.worst(norms))


def foliate(state: NetworkState, record: Record, qubits: Sequence[int],
            gates: Optional[Sequence[Gate]] = None) -> FoliationReport:
    """Decompose the listed qubits into relative states of a record's
    two-frame PVM (``record_pvm``).

    Both projectors must commute with the listed qubits' descriptors, or
    the branch copies q P are not Hermitian: NonCommuting names the first
    component that does not. The completeness residual ||P+ P-|| is a
    quarter of the record's involution defect ||1 - q^2||, reported as a
    quarter of the certificate that bounds it; that certificate has passed
    ``certify``, so the residual is within tol.general. ``gates`` is the
    run's gate list, as for ``autonomy_check``.
    """
    frames = record_pvm(state, record)
    # [1 - P, q] = -[P, q]: both frames have the commutator norms of P+.
    max_comm = linalg.worst(_max_commutator(state, record, q, gates)
                            for q in qubits)
    return FoliationReport(frames, 0.25 * network.certify(record.state),
                           max_comm)
