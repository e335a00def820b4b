"""Descriptor networks: Heisenberg-picture qubit observables under gate conjugation.

A network is fully specified by one (x, y, z) observable triple per qubit and
a fixed state vector (the first standard basis vector, i.e. every z-observable
initially sharp at +1). Gates are characteristic functions of the *current*
descriptors; applying a gate conjugates every descriptor with the resulting
unitary and advances time by one step.

The state holds that evolution as one accumulated unitary U_t, with
q_ac(t) = U_t† sigma_ac U_t (the Deutsch-Hayden construction,
quant-ph/9906007). A built-in gate evaluated on the current descriptors is
U_{t-1}† g U_{t-1}, where g is the same function of fresh generators, so
U_t = g U_{t-1}. Descriptors are computed from U when something reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linalg
from .errors import DimMismatch, SizeLimit, ValidationError
from .linalg import COMPONENTS, DEFAULT_TOL, Tolerances, max_abs

GATE_KINDS = ("I", "NOT", "H", "CNOT", "RZ", "F", "CCNOT")

# Number of operands / parameters each gate kind requires.
_ARITY = {"I": 0, "NOT": 1, "H": 1, "CNOT": 2, "RZ": 1, "F": 2, "CCNOT": 3}
_NPARAMS = {"I": 0, "NOT": 0, "H": 0, "CNOT": 0, "RZ": 1, "F": 4, "CCNOT": 0}


def f_unitarity_defect(params: tuple[float, ...]) -> float:
    """Max deviation of |a +- b +- c +- d| from 1 over the four sign choices.

    These are the eigenvalues of the diagonal two-qubit gate
    a*1 + b*q_az + c*q_bz + d*q_az*q_bz, so the gate is unitary iff all four
    have unit modulus.
    """
    a, b, c, d = params
    combos = (a + b + c + d, a + b - c - d, a - b + c - d, a - b - c + d)
    return max(abs(abs(v) - 1.0) for v in combos)


@dataclass(frozen=True)
class Gate:
    """A named, parameterized network gate; operands are 1-based qubit indices.

    For multi-operand kinds, controls precede the target. Building a Gate
    checks all but the operand range, which ``validate(n)`` checks; F
    unitarity is bounded by the fixed DEFAULT_TOL.unitary, not a run's.
    """

    kind: str
    operands: tuple[int, ...] = ()
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValidationError(f"unknown gate kind {self.kind!r}")
        if len(self.operands) != _ARITY[self.kind]:
            raise ValidationError(
                f"{self.kind} takes {_ARITY[self.kind]} operand(s), "
                f"got {len(self.operands)}")
        if len(self.params) != _NPARAMS[self.kind]:
            raise ValidationError(
                f"{self.kind} takes {_NPARAMS[self.kind]} parameter(s), "
                f"got {len(self.params)}")
        if len(set(self.operands)) != len(self.operands):
            raise ValidationError(f"repeated operand in {self.operands}")
        if not all(math.isfinite(p) for p in self.params):
            raise ValidationError(
                f"{self.kind} parameters must be finite, got {self.params}")
        if self.kind == "F":
            defect = f_unitarity_defect(self.params)
            if linalg.exceeds(defect, DEFAULT_TOL.unitary):
                raise ValidationError(
                    f"F coefficients not unitary: defect {defect:.3e}")

    def validate(self, n: int) -> None:
        """Operands in 1..n: the one check that needs the qubit count."""
        for q in self.operands:
            if not 1 <= q <= n:
                raise ValidationError(f"operand {q} out of range 1..{n}")

    # Convenience constructors -------------------------------------------------

    @classmethod
    def not_(cls, qubit: int) -> "Gate":
        return cls("NOT", (qubit,))

    @classmethod
    def h(cls, qubit: int) -> "Gate":
        return cls("H", (qubit,))

    @classmethod
    def cnot(cls, control: int, target: int) -> "Gate":
        return cls("CNOT", (control, target))

    @classmethod
    def rz(cls, qubit: int, theta: float) -> "Gate":
        return cls("RZ", (qubit,), (float(theta),))

    @classmethod
    def f(cls, a: int, b: int, alpha: float, beta: float,
          gamma: float, delta: float) -> "Gate":
        return cls("F", (a, b), (float(alpha), float(beta),
                                 float(gamma), float(delta)))

    @classmethod
    def ccnot(cls, control1: int, control2: int, target: int) -> "Gate":
        return cls("CCNOT", (control1, control2, target))


@dataclass(frozen=True, eq=False)
class Descriptor:
    """The (x, y, z) observable triple of one qubit at one time step.

    A view on the network state: each component is computed from the state's
    accumulated unitary when first read.
    """

    state: "NetworkState"
    qubit: int

    @property
    def x(self) -> np.ndarray:
        return self.state.component(self.qubit, "x")

    @property
    def y(self) -> np.ndarray:
        return self.state.component(self.qubit, "y")

    @property
    def z(self) -> np.ndarray:
        return self.state.component(self.qubit, "z")

    def component(self, name: str) -> np.ndarray:
        return self.state.component(self.qubit, name)

    def components(self):
        return tuple((c, self.component(c)) for c in COMPONENTS)


@dataclass(frozen=True, eq=False)
class NetworkState:
    """Immutable network snapshot: accumulated unitary and fixed state.

    ``u`` is U_t, the product of every gate so far; the descriptors are
    q_ac(t) = U_t† sigma_ac U_t.
    """

    n: int
    t: int
    u: np.ndarray
    psi: np.ndarray
    tol: Tolerances = DEFAULT_TOL
    # Descriptor components computed so far, keyed by (qubit, component).
    _components: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return 2 ** self.n

    @property
    def descriptors(self) -> tuple[Descriptor, ...]:
        return tuple(Descriptor(self, a) for a in range(1, self.n + 1))

    def descriptor(self, qubit: int) -> Descriptor:
        if not 1 <= qubit <= self.n:
            raise ValidationError(f"qubit {qubit} out of range 1..{self.n}")
        return Descriptor(self, qubit)

    def component(self, qubit: int, name: str) -> np.ndarray:
        """q_{qubit,name} = U† sigma U: sigma acts on the rows of U, then one
        matmul. Computed on first read and cached on the state."""
        key = (qubit, name)
        mat = self._components.get(key)
        if mat is None:
            if not 1 <= qubit <= self.n:
                raise ValidationError(f"qubit {qubit} out of range 1..{self.n}")
            if name not in COMPONENTS:
                raise ValidationError(f"bad component {name!r}")
            mat = self.u.conj().T @ _apply_local(linalg.PAULIS[name], (qubit,),
                                                 self.u)
            mat.flags.writeable = False
            self._components[key] = mat
        return mat


def init_network(n: int, tol: Tolerances = DEFAULT_TOL) -> NetworkState:
    """Fresh n-qubit network at t=0: generator descriptors, all z sharp at +1."""
    if not 1 <= n <= linalg.MAX_QUBITS:
        raise SizeLimit(f"n must be in 1..{linalg.MAX_QUBITS}, got {n}")
    psi = np.zeros(2 ** n, dtype=complex)
    psi[0] = 1.0
    return NetworkState(n, 0, linalg.identity(2 ** n), psi, tol)


def _apply_local(g: np.ndarray, operands: tuple[int, ...],
                 m: np.ndarray) -> np.ndarray:
    """g m for a gate g on the listed qubits of m's row index.

    The first operand is g's most significant factor. Only the operand axes
    are contracted: O(2^k 4^n) for a k-qubit g on a 2^n x 2^n m.
    """
    if len(operands) == 1:
        (q,) = operands
        return (g @ m.reshape(2 ** (q - 1), 2, -1)).reshape(m.shape)
    k = len(operands)
    n = m.shape[0].bit_length() - 1
    axes = [q - 1 for q in operands]
    out = np.tensordot(g.reshape((2,) * 2 * k), m.reshape((2,) * n + (-1,)),
                       axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes).reshape(m.shape)


def _characteristic(kind: str, params: tuple[float, ...], x, z, one):
    """A built-in gate as a function of the generators of its operands.

    ``x[i]``/``z[i]`` belong to the i-th operand; a control triggers on
    z-value -1.
    """
    if kind == "NOT":
        return x[0]
    if kind == "H":
        return (x[0] + z[0]) / np.sqrt(2)
    if kind == "RZ":
        (theta,) = params
        return np.cos(theta / 2) * one - 1j * np.sin(theta / 2) * z[0]
    if kind == "CNOT":
        down = 0.5 * (one - z[0])
        return one - down + x[1] @ down
    if kind == "F":
        alpha, beta, gamma, delta = params
        return alpha * one + beta * z[0] + gamma * z[1] + delta * (z[0] @ z[1])
    # CCNOT
    both = 0.25 * (one - z[0]) @ (one - z[1])
    return one - both + x[2] @ both


# Fresh (x, z, identity) generators of a k-qubit operand space.
_GENERATORS = {
    k: ([linalg.embed(linalg.SIGMA_X, a, k) for a in range(1, k + 1)],
        [linalg.embed(linalg.SIGMA_Z, a, k) for a in range(1, k + 1)],
        linalg.identity(2 ** k))
    for k in (1, 2, 3)
}
# Kinds without parameters have one fixed matrix.
_FIXED = {kind: _characteristic(kind, (), *_GENERATORS[_ARITY[kind]])
          for kind in ("NOT", "H", "CNOT", "CCNOT")}


def _local_matrix(gate: Gate) -> np.ndarray:
    """A built-in gate's 2^k x 2^k matrix on fresh generators of its operands."""
    fixed = _FIXED.get(gate.kind)
    if fixed is not None:
        return fixed
    return _characteristic(gate.kind, gate.params,
                           *_GENERATORS[_ARITY[gate.kind]])


def build_gate_unitary(state: NetworkState, gate: Gate) -> np.ndarray:
    """Evaluate the gate's characteristic function on the current descriptors.

    With g the gate's matrix on fresh generators, that is U† g U.
    """
    gate.validate(state.n)
    if gate.kind == "I":
        return linalg.identity(state.dim)
    return state.u.conj().T @ _apply_local(_local_matrix(gate), gate.operands,
                                           state.u)


def apply_gate(state: NetworkState, gate: Gate) -> NetworkState:
    """Conjugate every descriptor by the gate unitary; advance one time step.

    With u = U† g U, conjugating U† sigma U by u gives (gU)† sigma (gU), so
    the gate left-multiplies U by g.
    """
    gate.validate(state.n)
    u = state.u if gate.kind == "I" else _apply_local(
        _local_matrix(gate), gate.operands, state.u)
    return NetworkState(state.n, state.t + 1, u, state.psi, state.tol)


def expectation(state: NetworkState, observable: np.ndarray):
    """<Psi| A |Psi> against the fixed state; real float when A is Hermitian."""
    observable = np.asarray(observable)
    if observable.shape != (state.dim, state.dim):
        raise DimMismatch(
            f"observable shape {observable.shape} != ({state.dim}, {state.dim})")
    value = complex(np.vdot(state.psi, observable @ state.psi))
    if abs(value.imag) <= state.tol.general * max(1.0, abs(value)):
        return value.real
    return value


def is_sharp(state: NetworkState, observable: np.ndarray) -> Optional[float]:
    """The sharp value of a Hermitian observable, or None when it has none.

    Sharp means <A>^2 = <A^2> within tol.sharp, i.e. the fixed state is an
    eigenstate of A.
    """
    linalg.check_hermitian(observable, state.tol.hermitian)
    mean = expectation(state, observable)
    second = expectation(state, observable @ observable)
    if abs(mean * mean - second) <= state.tol.sharp:
        return float(np.real(mean))
    return None


@dataclass(frozen=True)
class EntanglementWitness:
    entangled: bool
    components: Optional[tuple[str, str]]
    discrepancy: float


def are_entangled(state: NetworkState, a: int, b: int) -> EntanglementWitness:
    """Correlation test: some component pair with <q_ai q_bj> != <q_ai><q_bj>.

    The discrepancy is the maximum over the nine pairs. The witness is the
    first pair in x, y, z order within tol.entangle of it, so roundoff does
    not pick among tied pairs.
    """
    if a == b:
        raise ValidationError("entanglement test needs two distinct qubits")
    da, db = state.descriptor(a), state.descriptor(b)
    means_b = [(cj, mj, expectation(state, mj)) for cj, mj in db.components()]
    pairs = []
    for ci, mi in da.components():
        ei = expectation(state, mi)
        for cj, mj, ej in means_b:
            pairs.append(((ci, cj), abs(expectation(state, mi @ mj) - ei * ej)))
    best = linalg.worst(disc for _, disc in pairs)
    if best > state.tol.entangle:
        witness = next(p for p, disc in pairs
                       if disc >= best - state.tol.entangle)
        return EntanglementWitness(True, witness, best)
    return EntanglementWitness(False, None, best)


_EPS = {("x", "y"): ("z", 1), ("y", "x"): ("z", -1),
        ("y", "z"): ("x", 1), ("z", "y"): ("x", -1),
        ("z", "x"): ("y", 1), ("x", "z"): ("y", -1)}


def algebra_residual(descriptors, unit: Optional[np.ndarray] = None) -> float:
    """Max residual of the Pauli relations over (x, y, z) triples.

    Checks q_i q_j = delta_ij unit + i eps_ijk q_k per triple; ``descriptors``
    are a network's descriptors or relative descriptors. ``unit`` defaults to
    the identity; any other unit (a branch projector) must also absorb into
    each component from either side. Components of distinct triples must
    commute. NaN anywhere gives NaN.
    """
    mats = [{c: d.component(c) for c in COMPONENTS} for d in descriptors]
    if not mats:
        return 0.0
    one = linalg.identity(mats[0]["x"].shape[0]) if unit is None else unit
    residuals = []
    for m in mats:
        for i in COMPONENTS:
            for j in COMPONENTS:
                product = m[i] @ m[j]
                if i == j:
                    expected = one
                else:
                    k, sign = _EPS[(i, j)]
                    expected = 1j * sign * m[k]
                residuals.append(max_abs(product - expected))
        if unit is not None:
            for c in COMPONENTS:
                residuals.append(max_abs(unit @ m[c] - m[c]))
                residuals.append(max_abs(m[c] @ unit - m[c]))
    for ai, ma in enumerate(mats):
        for mb in mats[ai + 1:]:
            for a_mat in ma.values():
                for b_mat in mb.values():
                    residuals.append(linalg.commutator_norm(a_mat, b_mat))
    return linalg.worst(residuals)


def run_gates(state: NetworkState, gates) -> list[NetworkState]:
    """Apply a gate sequence, returning the full timeline (t=0 state included).

    ``timeline[s]`` holds the descriptors at step s, so a record of q_ac
    taken at step s is ``timeline[s].component(a, c)``.
    """
    timeline = [state]
    for gate in gates:
        state = apply_gate(state, gate)
        timeline.append(state)
    return timeline
