"""Binary register observables and branchwise classical computation.

A register over a qubit subset is the Hermitian observable
sum_k 2^k * P_{-1}(q_{kz}), whose eigenvalues enumerate the classical memory
states of the subset (z-value -1 marks bit value 1, so a fresh network encodes
the all-zeros register). Entangling the register with a reference register
foliates it into an ensemble of classical computers, one per reference value:
each branch is its weight and the register's moments on it
(``classical_branches``). A step whose gates act on the register alone
(``couples`` says whether they do) leaves the reference's descriptors, and so
its branches, as they were (Deutsch-Hayden, quant-ph/9906007).

In U's frame a register U R U† is diagonal, holding each basis state's
register value, so every register moment is a sum of |phi_x|^2 grouped by
the register bits: no register matrix and no eigh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (BadSubset, BranchNotSharp, NotReversible,
                     PreconditionFailed, SynthesisError, ZeroWeightBranch)
from .network import Gate, NetworkState


def _register_qubits(state: NetworkState,
                     qubits: Sequence[int]) -> tuple[int, ...]:
    qubits = tuple(qubits)
    if not qubits or len(set(qubits)) != len(qubits):
        raise BadSubset(f"register qubits must be nonempty and distinct: {qubits}")
    for q in qubits:
        if not 1 <= q <= state.n:
            raise BadSubset(f"register qubit {q} out of range 1..{state.n}")
    return qubits


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


def _toffoli_gate(controls: tuple[int, ...], target: int) -> Gate:
    """A positive-control generalized Toffoli as one NOT, CNOT or CCNOT;
    SynthesisError for more than two controls."""
    if len(controls) > 2:
        raise SynthesisError(f"{len(controls)}-control Toffoli: synthesis "
                             f"takes at most two controls per gate")
    return Gate(("NOT", "CNOT", "CCNOT")[len(controls)], (*controls, target))


def compile_classical(func: ClassicalFunction,
                      register: Sequence[int]) -> list[Gate]:
    """Synthesize a NOT/CNOT/CCNOT gate list realizing ``func`` on the register.

    Transformation-based synthesis: walk inputs in increasing order, mapping
    each output to its input with generalized Toffolis whose controls never
    disturb already-fixed smaller entries. Each Toffoli is one gate, so a
    function that needs one with more than two controls raises
    SynthesisError; no ancillas are used.
    """
    register = tuple(register)
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

    return [_toffoli_gate(tuple(register[c] for c in control_bits),
                          register[target_bit])
            for control_bits, target_bit in reversed(placed)]


@dataclass(frozen=True)
class BranchRegister:
    """One classical computer of the ensemble: the reference value
    ``label``, its weight, and the register's value and variance on it."""

    label: float
    weight: float
    value: int
    variance: float


def _moments(weights: np.ndarray, values: np.ndarray,
             total: float = 1.0) -> tuple[float, float]:
    """Mean and variance of ``values`` under ``weights`` summing to
    ``total``."""
    mean = weights @ values / total
    return mean, weights @ values ** 2 / total - mean * mean


def register_descriptor(state: NetworkState,
                        qubits: Sequence[int]) -> np.ndarray:
    """A register in U's frame: each basis state's register value
    sum_k 2^k b_k, with b_k the bit of qubits[k] (least significant first;
    qubit 1 is the most significant bit of the index)."""
    index = np.arange(state.dim)
    return sum(((index >> (state.n - q)) & 1) << k
               for k, q in enumerate(_register_qubits(state, qubits)))


def classical_branches(state: NetworkState, m_qubits: Sequence[int],
                       s_qubits: Sequence[int]
                       ) -> tuple[list[BranchRegister], float]:
    """Foliate register M by the values of reference register S, and the
    product sharpness residual |<(M S)^2> - <M S>^2|.

    Branch j holds |phi|^2 on the basis states where S reads j: its weight,
    and M's mean and variance over it. Preconditions: both registers
    non-sharp (a sharp reference means the registers are not entangled the
    way a measurement record requires), and M sharp on every branch whose
    weight exceeds tol.weight. A NaN weight raises ZeroWeightBranch before
    any branch is read; a branch whose variance, or whose mean's distance
    from the nearest integer, exceeds tol.sharp (NaN exceeds it) raises
    BranchNotSharp. The product-sharpness residual is reported, not
    enforced: it is nonzero even for a perfectly correlated pair.
    """
    prob = np.abs(state.phi) ** 2
    m = register_descriptor(state, m_qubits)
    s = register_descriptor(state, s_qubits)
    for name, values in (("M", m), ("S", s)):
        if abs(_moments(prob, values)[1]) <= state.tol.sharp:
            raise PreconditionFailed(
                f"register {name} is sharp; foliation requires a non-sharp "
                f"entangled register")
    weights = [(float(j), float(prob @ (s == j)))
               for j in range(2 ** len(s_qubits))]
    for label, weight in weights:
        if np.isnan(weight):
            raise ZeroWeightBranch(
                f"branch {label:g} of 'reference register' has weight nan")
    branches = []
    for label, weight in weights:
        if weight > state.tol.weight:
            mean, variance = _moments(np.where(s == label, prob, 0), m,
                                      weight)
            defect = linalg.worst((abs(variance), abs(mean - np.round(mean))))
            if linalg.exceeds(defect, state.tol.sharp):
                raise BranchNotSharp(
                    f"branch {label:g}: register value {mean:.6g} "
                    f"(variance {variance:.3e}) is not sharp")
            branches.append(BranchRegister(label, weight, int(round(mean)),
                                           variance))
    return branches, abs(_moments(prob, m * s)[1])


def couples(gates: Sequence[Gate], qubits: Sequence[int]) -> bool:
    """Whether some gate acts both on the register ``qubits`` and outside
    it: a step that couples the register to the reference side."""
    inside = set(qubits)
    return any(inside & set(g.operands) and set(g.operands) - inside
               for g in gates)
