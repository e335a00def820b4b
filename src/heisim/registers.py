"""Binary register observables and branchwise classical computation.

A register over a qubit subset is the Hermitian observable
sum_k 2^k * P_{-1}(q_{kz}), whose eigenvalues enumerate the classical memory
states of the subset (z-value -1 marks bit value 1, so a fresh network encodes
the all-zeros register). Entangling the register with a reference register
foliates it into an ensemble of classical computers, one per reference value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg, network, relative
from .errors import (BadSubset, BranchNotSharp, NotReversible,
                     PreconditionFailed, SynthesisError)
from .network import Gate, NetworkState
from .relative import RelativeFrame


@dataclass(frozen=True)
class RegisterDescriptor:
    """Binary-register observable over an ordered qubit subset.

    ``qubits`` is least-significant first: qubits[k] carries weight 2^k.
    """

    qubits: tuple[int, ...]
    matrix: np.ndarray


def register_descriptor(state: NetworkState,
                        qubits: Sequence[int]) -> RegisterDescriptor:
    qubits = tuple(qubits)
    if not qubits or len(set(qubits)) != len(qubits):
        raise BadSubset(f"register qubits must be nonempty and distinct: {qubits}")
    for q in qubits:
        if not 1 <= q <= state.n:
            raise BadSubset(f"register qubit {q} out of range 1..{state.n}")
    matrix = np.zeros((state.dim, state.dim), dtype=complex)
    for k, q in enumerate(qubits):
        proj = linalg.pauli_projector(state.descriptor(q).z, -1,
                                      state.tol.general)
        matrix = matrix + (2 ** k) * proj
    return RegisterDescriptor(qubits, matrix)


@dataclass(frozen=True)
class ClassicalFunction:
    """A reversible function on m-bit values, given as a permutation table."""

    bits: int
    table: tuple[int, ...]

    def __post_init__(self):
        size = 2 ** self.bits
        if sorted(self.table) != list(range(size)):
            raise NotReversible(
                f"table of length {len(self.table)} is not a permutation of "
                f"0..{size - 1}")

    def __call__(self, value: int) -> int:
        return self.table[value]

    @classmethod
    def identity(cls, bits: int) -> "ClassicalFunction":
        return cls(bits, tuple(range(2 ** bits)))

    @classmethod
    def bitwise_not(cls, bits: int) -> "ClassicalFunction":
        mask = 2 ** bits - 1
        return cls(bits, tuple(v ^ mask for v in range(2 ** bits)))

    @classmethod
    def increment(cls, bits: int) -> "ClassicalFunction":
        size = 2 ** bits
        return cls(bits, tuple((v + 1) % size for v in range(size)))


def _toffoli_gates(controls: tuple[int, ...], target: int,
                   ancillas: tuple[int, ...]) -> list[Gate]:
    """Expand a positive-control generalized Toffoli into NOT/CNOT/CCNOT.

    Controls beyond two are folded pairwise into clean ancillas (restored
    afterwards), one ancilla per extra control.
    """
    if len(controls) == 0:
        return [Gate.not_(target)]
    if len(controls) == 1:
        return [Gate.cnot(controls[0], target)]
    if len(controls) == 2:
        return [Gate.ccnot(controls[0], controls[1], target)]
    if not ancillas:
        raise SynthesisError(
            f"{len(controls)}-control Toffoli needs a clean ancilla")
    anc = ancillas[0]
    fold = Gate.ccnot(controls[0], controls[1], anc)
    inner = _toffoli_gates((anc,) + controls[2:], target, ancillas[1:])
    return [fold] + inner + [fold]


def compile_classical(func: ClassicalFunction, register: Sequence[int],
                      ancillas: Sequence[int] = ()) -> list[Gate]:
    """Synthesize a NOT/CNOT/CCNOT gate list realizing ``func`` on the register.

    Transformation-based synthesis: walk inputs in increasing order, mapping
    each output to its input with generalized Toffolis whose controls never
    disturb already-fixed smaller entries. Ancillas must be clean (bit 0) and
    are returned clean.
    """
    register = tuple(register)
    ancillas = tuple(ancillas)
    if len(register) != func.bits:
        raise BadSubset(
            f"register has {len(register)} qubits, function needs {func.bits}")
    size = 2 ** func.bits
    table = list(func.table)
    placed: list[tuple[tuple[int, ...], int]] = []  # (control bits, target bit)

    def apply_to_table(control_bits, target_bit):
        for i in range(size):
            v = table[i]
            if all(v >> c & 1 for c in control_bits):
                table[i] = v ^ (1 << target_bit)

    if table[0] != 0:
        for bit in range(func.bits):
            if table[0] >> bit & 1:
                placed.append(((), bit))
                apply_to_table((), bit)
    for i in range(1, size):
        w = table[i]
        if w == i:
            continue
        # Turn on bits of i missing from w, controlling on the current ones.
        for bit in range(func.bits):
            if i >> bit & 1 and not table[i] >> bit & 1:
                controls = tuple(c for c in range(func.bits)
                                 if table[i] >> c & 1)
                placed.append((controls, bit))
                apply_to_table(controls, bit)
        # Turn off surplus bits, controlling on the ones of i.
        for bit in range(func.bits):
            if table[i] >> bit & 1 and not i >> bit & 1:
                controls = tuple(c for c in range(func.bits)
                                 if i >> c & 1)
                placed.append((controls, bit))
                apply_to_table(controls, bit)
    assert table == list(range(size)), "synthesis failed to reach identity"

    gates: list[Gate] = []
    for control_bits, target_bit in reversed(placed):
        controls = tuple(register[c] for c in control_bits)
        gates.extend(_toffoli_gates(controls, register[target_bit], ancillas))
    return gates


@dataclass(frozen=True)
class BranchRegister:
    frame: RelativeFrame
    value: int
    variance: float


@dataclass(frozen=True)
class BranchStep:
    label: float
    weight: float
    value_before: int
    value_after: int
    expected: int
    ok: bool


@dataclass(frozen=True)
class ClassicalStepReport:
    branches: tuple[BranchStep, ...]
    interaction_flagged: bool
    ok: bool


def _branch_value(state: NetworkState, reg_matrix: np.ndarray,
                  frame: RelativeFrame) -> tuple[int, float]:
    """Sharp register value in a branch, judged against the relative state.

    Raises BranchNotSharp when the variance, or the distance of the mean from
    the nearest integer, exceeds tol.sharp (NaN exceeds it).
    """
    psi_rel = relative.relative_heisenberg_state(state, frame)
    mean = float(np.real(np.vdot(psi_rel, reg_matrix @ psi_rel)))
    second = float(np.real(np.vdot(psi_rel, reg_matrix @ reg_matrix @ psi_rel)))
    variance = second - mean * mean
    defect = linalg.worst((abs(variance), abs(mean - np.round(mean))))
    if linalg.exceeds(defect, state.tol.sharp):
        raise BranchNotSharp(
            f"branch {frame.label:g}: register value {mean:.6g} "
            f"(variance {variance:.3e}) is not sharp")
    return int(round(mean)), variance


def classical_branches(state: NetworkState, bm: RegisterDescriptor,
                       bs: RegisterDescriptor) -> list[BranchRegister]:
    """Foliate register M by the eigenvalue PVM of reference register S.

    Preconditions: both registers non-sharp (a sharp reference means the
    registers are not entangled the way a measurement record requires), and
    every nonzero-weight branch register sharp with respect to its relative
    state. The product-sharpness residual is not enforced (see notes: it is
    nonzero even for a perfectly correlated pair).
    """
    for name, reg in (("M", bm), ("S", bs)):
        if network.is_sharp(state, reg.matrix) is not None:
            raise PreconditionFailed(
                f"register {name} is sharp; foliation requires a non-sharp "
                f"entangled register")
    frames = relative.make_pvm_spectral(state, bs.matrix, source="reference register")
    branches = []
    for frame in relative.live_frames(frames, state.tol):
        value, variance = _branch_value(state, bm.matrix, frame)
        branches.append(BranchRegister(frame, value, variance))
    return branches


def verify_classical_step(before: NetworkState, after: NetworkState,
                          m_qubits: Sequence[int], func: ClassicalFunction,
                          frames: Sequence[RelativeFrame],
                          step_gates: Optional[Sequence[Gate]] = None
                          ) -> ClassicalStepReport:
    """Check that each branch register evolved as value -> func(value).

    ``frames`` are fixed snapshots (reference-register PVM at the record
    time). When ``step_gates`` is given, any gate coupling register qubits to
    the outside flags the step as an interaction with the reference side.
    """
    m_set = set(m_qubits)
    interaction = False
    if step_gates is not None:
        for g in step_gates:
            ops = set(g.operands)
            if ops & m_set and ops - m_set:
                interaction = True
    reg_before = register_descriptor(before, m_qubits)
    reg_after = register_descriptor(after, m_qubits)
    rows = []
    all_ok = True
    for frame in relative.live_frames(frames, before.tol):
        vb, _ = _branch_value(before, reg_before.matrix, frame)
        va, _ = _branch_value(after, reg_after.matrix, frame)
        expected = func(vb)
        ok = va == expected
        all_ok = all_ok and ok
        rows.append(BranchStep(frame.label, frame.weight, vb, va, expected, ok))
    return ClassicalStepReport(tuple(rows), interaction,
                               all_ok and not interaction)
