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
U_t = g U_{t-1}: a row gather of U_{t-1} when g is a 0/1 permutation (NOT,
CNOT, CCNOT), a local product over the operands' rows otherwise.
Descriptors are computed from U when something reads them. A run
(``run_gates``) keeps U_t only at the steps whose records it reads and at
the final step; every other step leaves only phi_t, in the stack that the
oracle cross-check compares with its own states.

The fixed state Psi is the constant e_0, so a state is its U alone, and
phi = U Psi is U's first column. A run answers from phi and the local
Paulis: <q_ac> = <phi|sigma_ac phi> and <q_ai q_bj> =
<sigma_ai phi|sigma_bj phi>, the second within U's Gram defects. An
observable is passed only as its *ket*, the vector U A Psi (sigma_ac phi for
a descriptor, ``NetworkState.ket``); a descriptor matrix is
``NetworkState.component``. Every record check reads
one number, the algebra certificate of a state (``certify``): it must lie
within tol.general and tol.commute, and it then bounds a record's
involution defect and decides its commutators on the operands' block
(``record_commutator``). A run keeps its gate list, from which a sweep
gives an operator's backward light cone (``light_cone``): a final-step
record's block commutator reads only the columns of U on that cone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Collection, Optional, Sequence

import numpy as np

from . import linalg
from .errors import (DimMismatch, SizeLimit, ToleranceViolation,
                     ValidationError)
from .linalg import COMPONENTS, DEFAULT_TOL, Tolerances, max_abs

GATE_KINDS = ("I", "NOT", "H", "CNOT", "RZ", "F", "CCNOT")

# Number of operands / parameters each gate kind requires.
_ARITY = {"I": 0, "NOT": 1, "H": 1, "CNOT": 2, "RZ": 1, "F": 2, "CCNOT": 3}
_NPARAMS = {"I": 0, "NOT": 0, "H": 0, "CNOT": 0, "RZ": 1, "F": 4, "CCNOT": 0}


def _f_eigenvalues(params: tuple[float, ...]) -> tuple[float, ...]:
    """a +- b +- c +- d, the eigenvalues of the diagonal two-qubit gate
    a*1 + b*q_az + c*q_bz + d*q_az*q_bz. The map is its own inverse up to a
    factor 4, so it also takes four eigenvalues back to the params."""
    a, b, c, d = params
    return (a + b + c + d, a + b - c - d, a - b + c - d, a - b - c + d)


def f_unitarity_defect(params: tuple[float, ...]) -> float:
    """Max deviation of the four eigenvalues' modulus from 1: the gate is
    unitary iff all four have unit modulus."""
    return max(abs(abs(v) - 1.0) for v in _f_eigenvalues(params))


@dataclass(frozen=True)
class Gate:
    """A named, parameterized network gate; operands are 1-based qubit indices.

    For multi-operand kinds, controls precede the target. Building a Gate
    checks all but the operand range, which ``validate(n)`` checks; F
    unitarity is bounded by the fixed DEFAULT_TOL.unitary, not a run's, and
    F's params are then re-derived from its eigenvalues' signs, so an F
    that passes is exactly unitary.
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
            # Real and unitary, each eigenvalue is +1 or -1: store the signs,
            # whose params are exact multiples of 1/2.
            signs = [math.copysign(1.0, v)
                     for v in _f_eigenvalues(self.params)]
            object.__setattr__(self, "params",
                               tuple(v / 4 for v in _f_eigenvalues(signs)))

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
class NetworkState:
    """Immutable network snapshot: the accumulated unitary.

    ``u`` is U_t, the product of every gate so far; the descriptors are
    q_ac(t) = U_t† sigma_ac U_t over the fixed state Psi = e_0.
    """

    n: int
    t: int
    u: np.ndarray
    tol: Tolerances = DEFAULT_TOL
    # Everything computed once: "phi", "certificate", and the descriptor
    # components ("component", qubit, component) and kets ("ket", qubit,
    # component) read so far.
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return 2 ** self.n

    def _check_component(self, qubit: int, name: str) -> None:
        if not 1 <= qubit <= self.n:
            raise ValidationError(f"qubit {qubit} out of range 1..{self.n}")
        if name not in COMPONENTS:
            raise ValidationError(f"bad component {name!r}")

    def component(self, qubit: int, name: str) -> np.ndarray:
        """q_{qubit,name} = U† sigma U: sigma acts on the rows of U, then one
        matmul. Computed on first read and cached on the state."""
        key = ("component", qubit, name)
        mat = self._cache.get(key)
        if mat is None:
            self._check_component(qubit, name)
            mat = self.u.conj().T @ apply_pauli(self.u, qubit, name)
            mat.flags.writeable = False
            self._cache[key] = mat
        return mat

    @property
    def phi(self) -> np.ndarray:
        """phi = U Psi = U e_0, U's first column, copied once: inner products
        over the strided column view round differently."""
        phi = self._cache.get("phi")
        if phi is None:
            phi = self._cache["phi"] = self.u[:, 0].copy()
            phi.flags.writeable = False
        return phi

    def ket(self, qubit: int, name: str) -> np.ndarray:
        """sigma_{qubit,name} phi, the ket U q Psi of a descriptor: O(2^n),
        computed on first read and cached on the state."""
        key = ("ket", qubit, name)
        ket = self._cache.get(key)
        if ket is None:
            self._check_component(qubit, name)
            ket = self._cache[key] = apply_pauli(self.phi, qubit, name)
            ket.flags.writeable = False
        return ket


def transport(ket: np.ndarray, source: NetworkState,
              target: NetworkState) -> np.ndarray:
    """U_target U_source† ket: a ket of ``source``'s frame read in the frame
    of ``target``, two matrix-vector products (none when they are one
    state). U_source† ket is conj(conj(ket) U_source): no U-sized copy."""
    if source is target:
        return ket
    return target.u @ (ket.conj() @ source.u).conj()


@dataclass(frozen=True)
class Record:
    """A record marker: the descriptor q_{qubit,name} of the state of its
    step."""

    state: NetworkState
    qubit: int
    name: str

    @property
    def label(self) -> str:
        """The record as its errors name it: q_{qubit}{name} at t={step}."""
        return f"q_{self.qubit}{self.name} at t={self.state.t}"

    def ket(self, state: NetworkState) -> np.ndarray:
        """U_T P+ Psi, the ket of the record's projector P+ = 1/2(1 + q) read
        by the final state ``state`` (U_T): 1/2(phi + sigma phi) for a record
        of ``state`` itself. A record of step s gives
        1/2(phi + U_T U_s† sigma phi_s) (``transport``)."""
        sigma_phi = transport(self.state.ket(self.qubit, self.name),
                              self.state, state)
        return 0.5 * (state.phi + sigma_phi)


def init_network(n: int, tol: Tolerances = DEFAULT_TOL) -> NetworkState:
    """Fresh n-qubit network at t=0: generator descriptors, all z sharp at +1."""
    if not 1 <= n <= linalg.MAX_QUBITS:
        raise SizeLimit(f"n must be in 1..{linalg.MAX_QUBITS}, got {n}")
    return NetworkState(n, 0, linalg.identity(2 ** n), tol)


@cache
def _row_blocks(operands: tuple[int, ...], n: int):
    """The 2^k row blocks of an n-qubit row index, one per value of the
    operand bits (the first operand most significant).

    Returns (indices, rows): ``indices[r]`` selects block r of an array
    viewed as (2,)*n + (-1,), and ``rows[r]`` holds its flat row numbers.
    """
    grid = np.arange(2 ** n).reshape((2,) * n)
    indices, rows = [], []
    for bits in itertools.product((0, 1), repeat=len(operands)):
        index = [slice(None)] * n
        for q, bit in zip(operands, bits):
            index[q - 1] = bit
        block = grid[tuple(index)].ravel()
        block.flags.writeable = False
        indices.append(tuple(index))
        rows.append(block)
    return tuple(indices), tuple(rows)


def _apply_local(g: np.ndarray, operands: tuple[int, ...],
                 m: np.ndarray) -> np.ndarray:
    """g m for a gate g on the listed qubits of m's row index.

    The first operand is g's most significant factor. One qubit is one
    small matmul over that axis. For more, row block r of the result (see
    ``_row_blocks``) is the sum of g[r, c] times block c of m over the
    nonzero g[r, c] only: a unit entry is a strided copy, and a row of g
    with none gives a zero block. A diagonal gate costs a scaling. The
    permutation gates of a run do not come here (``_multiply_rows``).
    """
    if len(operands) == 1:
        (q,) = operands
        return (g @ m.reshape(2 ** (q - 1), 2, -1)).reshape(m.shape)
    n = m.shape[0].bit_length() - 1
    indices, _ = _row_blocks(operands, n)
    src = m.reshape((2,) * n + (-1,))
    out = np.empty(m.shape, dtype=np.result_type(g, m))
    dst = out.reshape(src.shape)
    rows, cols = (index.tolist() for index in np.nonzero(g))
    for i, (r, c) in enumerate(zip(rows, cols)):
        block, part, coef = dst[indices[r]], src[indices[c]], g[r, c]
        if i and rows[i - 1] == r:
            block += coef * part
        elif coef == 1:
            block[...] = part
        else:
            np.multiply(part, coef, out=block)
    for r in set(range(len(g))).difference(rows):
        dst[indices[r]] = 0
    return out


def apply_pauli(m: np.ndarray, qubit: int, name: str) -> np.ndarray:
    """sigma_{qubit,name} m, on the rows of a matrix or a vector: the one
    local-Pauli product behind descriptors and kets."""
    return _apply_local(linalg.PAULIS[name], (qubit,), m)


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
# The kinds whose fixed matrix is a 0/1 permutation: entries 0 or 1, one 1
# per row and per column.
_PERMUTATIONS = frozenset(
    kind for kind, g in _FIXED.items()
    if np.isin(g, (0, 1)).all() and (g.sum(axis=0) == 1).all()
    and (g.sum(axis=1) == 1).all())


def local_matrix(gate: Gate) -> np.ndarray:
    """A built-in gate's 2^k x 2^k matrix on fresh generators of its operands."""
    fixed = _FIXED.get(gate.kind)
    if fixed is not None:
        return fixed
    return _characteristic(gate.kind, gate.params,
                           *_GENERATORS[_ARITY[gate.kind]])


@cache
def _gather(kind: str, operands: tuple[int, ...], n: int) -> np.ndarray:
    """The rows of U that g U reads for a permutation kind g on the
    operands: (g U)[i] = U[source[i]]. Row block r of g U is block c of U
    (``_row_blocks``) for the one c with g[r, c] = 1."""
    _, rows = _row_blocks(operands, n)
    source = np.empty(2 ** n, dtype=np.intp)
    for r, c in zip(*np.nonzero(_FIXED[kind])):
        source[rows[r]] = rows[c]
    source.flags.writeable = False
    return source


def _multiply_rows(state: NetworkState, gate: Gate) -> np.ndarray:
    """g U, a new complex C-ordered matrix, for the gate's local matrix g on
    its operands of the rows of the state's U. A permutation kind is one row
    gather with no arithmetic (``_gather``), bitwise the product; any other
    is ``_apply_local``."""
    if gate.kind in _PERMUTATIONS:
        return np.asarray(state.u, dtype=complex).take(
            _gather(gate.kind, gate.operands, state.n), axis=0)
    return _apply_local(local_matrix(gate), gate.operands, state.u)


def build_gate_unitary(state: NetworkState, gate: Gate) -> np.ndarray:
    """Evaluate the gate's characteristic function on the current descriptors.

    With g the gate's matrix on fresh generators, that is U† g U.
    """
    gate.validate(state.n)
    if gate.kind == "I":
        return linalg.identity(state.dim)
    return state.u.conj().T @ _multiply_rows(state, gate)


def apply_gate(state: NetworkState, gate: Gate) -> NetworkState:
    """Conjugate every descriptor by the gate unitary; advance one time step.

    With u = U† g U, conjugating U† sigma U by u gives (gU)† sigma (gU), so
    the gate left-multiplies U by g.
    """
    gate.validate(state.n)
    u = state.u if gate.kind == "I" else _multiply_rows(state, gate)
    return NetworkState(state.n, state.t + 1, u, state.tol)


def _check_kets(state: NetworkState, *kets: np.ndarray) -> None:
    """DimMismatch unless every observable is a ket, a 2^n vector."""
    for ket in kets:
        if np.shape(ket) != (state.dim,):
            raise DimMismatch(f"observable of shape {np.shape(ket)}: "
                              f"expected the ket of shape ({state.dim},)")


def expectation(state: NetworkState, observable: np.ndarray) -> float:
    """Re <Psi| A |Psi> = Re <phi| U A Psi> from the ket U A Psi of A: the
    expectation itself when A is Hermitian."""
    _check_kets(state, observable)
    return float(np.vdot(state.phi, observable).real)


def correlation(state: NetworkState, a: np.ndarray, b: np.ndarray) -> float:
    """Re <Psi| A B |Psi> = Re <U A Psi|U B Psi> from the kets of a
    Hermitian A and of B: the correlation itself when AB is Hermitian, as
    for commuting A and B."""
    _check_kets(state, a, b)
    return float(np.vdot(a, b).real)


def is_sharp(state: NetworkState, observable: np.ndarray) -> Optional[float]:
    """The sharp value of a Hermitian observable, given as its ket, or None
    when it has none.

    Sharp means <A>^2 = <A^2> within tol.sharp, i.e. the fixed state is an
    eigenstate of A. A NaN defect raises ToleranceViolation: it is no
    evidence either way.
    """
    mean = expectation(state, observable)
    defect = abs(mean * mean - correlation(state, observable, observable))
    if math.isnan(defect):
        raise ToleranceViolation("sharpness defect is nan")
    if defect <= state.tol.sharp:
        return mean
    return None


@dataclass(frozen=True)
class EntanglementWitness:
    entangled: bool
    components: Optional[tuple[str, str]]
    discrepancy: float


def are_entangled(state: NetworkState, a: int, b: int) -> EntanglementWitness:
    """Correlation test: some component pair with <q_ai q_bj> != <q_ai><q_bj>.

    The discrepancy is the maximum over the nine pairs; each <q_ai q_bj> is
    the product of the kets (sigma_ai phi)† and sigma_bj phi.
    The witness is the first pair in x, y, z order within tol.entangle of
    it, so roundoff does not pick among tied pairs. A NaN discrepancy raises
    ToleranceViolation: it is no evidence either way.
    """
    if a == b:
        raise ValidationError("entanglement test needs two distinct qubits")
    phi = state.phi
    rows = [(ci, state.ket(a, ci).conj()) for ci in COMPONENTS]
    cols = [(cj, state.ket(b, cj)) for cj in COMPONENTS]
    means_b = [np.vdot(phi, col).real for _, col in cols]
    pairs = []
    for ci, row in rows:
        ei = (row @ phi).real
        for (cj, col), ej in zip(cols, means_b):
            pairs.append(((ci, cj), abs((row @ col).real - ei * ej)))
    best = linalg.worst(disc for _, disc in pairs)
    if math.isnan(best):
        raise ToleranceViolation(
            f"entanglement discrepancy of qubits {a} and {b} is nan")
    if best > state.tol.entangle:
        witness = next(p for p, disc in pairs
                       if disc >= best - state.tol.entangle)
        return EntanglementWitness(True, witness, best)
    return EntanglementWitness(False, None, best)


_EPS = {("x", "y"): ("z", 1), ("y", "x"): ("z", -1),
        ("y", "z"): ("x", 1), ("z", "y"): ("x", -1),
        ("z", "x"): ("y", 1), ("x", "z"): ("y", -1)}


def algebra_residual(triples, unit: Optional[np.ndarray] = None) -> float:
    """Max residual of the Pauli relations over (x, y, z) matrix triples.

    Checks q_i q_j = delta_ij unit + i eps_ijk q_k per triple; the triples
    are a network's descriptor components or a qubit's branch copies.
    ``unit`` defaults to the identity; any other unit (a branch projector)
    must also absorb into each component from either side. Components of
    distinct triples must commute. NaN anywhere gives NaN.

    Dense, O(n^2 8^n): ``selftest`` takes it, and a run reports
    ``algebra_certificate``, which bounds it.
    """
    mats = [dict(zip(COMPONENTS, triple)) for triple in triples]
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


def algebra_certificate(state: NetworkState) -> float:
    """Upper bound on the Pauli-algebra residual of the state's descriptors.

    The bound comes from U = U_t alone. Let d = ||U†U - 1||_F and
    E = UU† - 1. For a square U, ||E||_F = d too: with U = W S V†, both
    U†U - 1 = V (S^2 - 1) V† and E = W (S^2 - 1) W† have the eigenvalues
    s_i^2 - 1. With q_i = U† sigma_i U, inserting UU† = 1 + E between the
    two factors of a product gives

        q_i q_j - delta_ij 1 - i eps_ijk q_k
            = delta_ij (U†U - 1) + U† sigma_i E sigma_j U   (one triple),
        [q_a, q_b] = U† (sigma_a E sigma_b - sigma_b E sigma_a) U
                                                 (qubits a != b),

    since the sigmas obey the algebra exactly and those of distinct qubits
    commute. The Paulis are unitary, ||X||_max <= ||X||_2 <= ||X||_F and
    ||U||_2^2 = ||U†U||_2 <= 1 + d, so every residual the dense check takes
    (each relation within a triple, each commutator across triples) is at
    most d + 2 (1 + d) d. That costs one product of 2^n x 2^n matrices,
    where the dense check takes O(n^2) of them. NaN in U gives NaN.

    The same steps bound the ket answers against the dense ones: a
    correlation (sigma_i phi)†(sigma_j phi) misses only Psi† U† sigma_i E
    sigma_j U Psi, and for a local a with ||a||_2 <= 1
    [U† a U, U† sigma U] = U† [a, sigma] U + U† (a E sigma - sigma E a) U,
    whose last term is at most 2 (1 + d) d (``record_commutator``).

    The bound is on exact arithmetic: when U is unitary to the last bit it
    can read 0 while a dense check in floating point reads an ulp or two.
    Taken once per state; ``certify`` bounds it.
    """
    cert = state._cache.get("certificate")
    if cert is None:
        u = state.u
        gram = u.conj().T @ u
        gram.flat[::state.dim + 1] -= 1
        d = float(np.linalg.norm(gram))
        cert = state._cache["certificate"] = d + 2 * (1 + d) * d
    return cert


def certify(state: NetworkState) -> float:
    """The state's algebra certificate, after ToleranceViolation when it
    exceeds min(tol.general, tol.commute), NaN included.

    Within that bound every involution defect ||q^2 - 1|| and every
    commutator of descriptors of distinct qubits is within both tolerances
    (``algebra_certificate``), so every record check of the state reads it.
    """
    cert = algebra_certificate(state)
    bound = min(state.tol.general, state.tol.commute)
    if linalg.exceeds(cert, bound):
        raise ToleranceViolation(f"algebra residual {cert:.3e} > {bound:.3e}")
    return cert


@cache
def _mask(qubits: tuple[int, ...], n: int) -> int:
    """The qubits as a bitmask of an n-qubit row index: qubit q is bit
    n - q, so qubit 1 is the most significant (``_row_blocks``)."""
    mask = 0
    for q in qubits:
        mask |= 1 << (n - q)
    return mask


def light_cone(gates: Sequence[Gate], qubits: tuple[int, ...],
               n: int) -> int:
    """The backward light cone K of ``qubits`` through ``gates``, as a
    bitmask (``_mask``): O(len(gates)).

    Swept from the last gate back, a gate that meets K joins it. With
    U = g_T ... g_1, an operator b on ``qubits`` has U† b U = M_K (x) 1,
    the identity on every qubit outside K: a gate whose operands miss K
    commutes with what it conjugates and cancels (Deutsch-Hayden,
    quant-ph/9906007).
    """
    cone = _mask(qubits, n)
    for gate in reversed(gates):
        operands = _mask(gate.operands, n)
        if cone & operands:
            cone |= operands
    return cone


@cache
def _cone_columns(cone: int, n: int) -> np.ndarray:
    """The 2^|K| indices whose bits outside the cone mask K are 0."""
    index = np.arange(2 ** n)
    columns = index[(index & ~cone) == 0]
    columns.flags.writeable = False
    return columns


def record_commutator(state: NetworkState, record: Record, a: np.ndarray,
                      operands: tuple[int, ...],
                      dense: Callable[[], np.ndarray],
                      gates: Optional[Sequence[Gate]] = None) -> float:
    """||[U_T† a U_T, q_r]||_max of a local ``a`` on ``operands`` (a gate or
    half a Pauli, so ||a||_2 <= 1) and a record q_r, read by ``state`` (U_T).

    A record of an earlier step takes the dense norm against ``dense()``,
    the caller's U_T† a U_T. For a record of ``state`` itself, after
    ``certify(state)``, it is U_T† [a, sigma_r] U_T within the certificate
    (``algebra_certificate``): a block commutator [a, sigma_r] that is
    exactly 0 reads the certificate, any other its
    ||U_T† [a, sigma_r] U_T||_max (one local product and one GEMM over the
    rows where [a, sigma_r] has an entry: half of them for [CNOT, z_target],
    a quarter for [CCNOT, z_target]).

    ``gates`` are those whose product is U_T, when the caller has them.
    Then U_T† [a, sigma_r] U_T = M_K (x) 1 on the operands' light cone K
    (``light_cone``), and the GEMM reads only the 2^|K| columns of U_T whose
    bits outside K are 0: its 2^|K| x 2^|K| product is M_K. With no gates
    every column is read.
    """
    if record.state is not state:
        return linalg.commutator_norm(
            dense(), record.state.component(record.qubit, record.name))
    cert = certify(state)
    if record.qubit not in operands:
        return cert
    sigma = linalg.embed(linalg.PAULIS[record.name],
                         operands.index(record.qubit) + 1, len(operands))
    block = a @ sigma - sigma @ a
    live = np.flatnonzero(np.any(block, axis=1))
    if not live.size:
        return cert
    _, rows = _row_blocks(operands, state.n)
    rows = np.concatenate([rows[r] for r in live])
    u = state.u
    if gates is not None:
        cone = light_cone(gates, operands, state.n)
        if cone != state.dim - 1:
            u = u[:, _cone_columns(cone, state.n)]
    return max_abs(u[rows].conj().T @ _apply_local(block, operands, u)[rows])


@dataclass(frozen=True, eq=False)
class Timeline:
    """A run's states at its kept steps, and phi_t at every step.

    ``timeline[s]`` is the state of step s; a negative s counts from the end,
    so ``timeline[-1]`` is the final state, which is always kept. A step that
    was not kept raises KeyError. ``len`` counts every step, t=0 included.
    """

    states: dict[int, NetworkState]
    # (T+1) x 2^n: row t is phi_t = U_t Psi, U_t's first column.
    phis: np.ndarray
    # The gates whose product is U_T, for ``record_commutator``'s light
    # cones; None when the run did not start from U_0 = 1.
    gates: Optional[tuple[Gate, ...]] = None

    def __len__(self) -> int:
        return len(self.phis)

    def __getitem__(self, step: int) -> NetworkState:
        return self.states[step + len(self) if step < 0 else step]

    def __iter__(self):
        return (self[step] for step in range(len(self)))


def run_gates(state: NetworkState, gates: Sequence[Gate],
              keep: Optional[Collection[int]] = None) -> Timeline:
    """Apply a gate sequence in one pass, from ``state`` at step 0.

    phi_t, U_t's first column (``NetworkState.phi``), is stacked at every
    step as ``Timeline.phis``. The state of step s, which holds the
    2^n x 2^n U_s, is kept only when s is in ``keep`` or is the final step;
    with no ``keep`` every step's is. A record of q_ac taken at step s is
    ``Record(timeline[s], a, c)``. A run from a state at t = 0, whose U_0
    is the identity, keeps its gates as ``Timeline.gates``.
    """
    phis = np.empty((len(gates) + 1, state.dim), dtype=complex)
    phis[0] = state.u[:, 0]
    states = {}
    # ``state`` stays bound until the run returns. Dropping U_0 at the first
    # step let glibc trim the heap under the queries' U-sized temporaries:
    # 4.6x the page faults per n=8 branch-queries report (2-vCPU x86 VM).
    current = state
    for step, gate in enumerate(gates):
        if keep is None or step in keep:
            states[step] = current
        current = apply_gate(current, gate)
        phis[step + 1] = current.u[:, 0]
    states[len(gates)] = current
    return Timeline(states, phis, tuple(gates) if state.t == 0 else None)
