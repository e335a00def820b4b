"""Schrodinger-picture state-vector simulator used as a ground-truth oracle.

Gates here are fixed operators built from the initial-time generators and
applied to an evolving state vector. This module deliberately shares no
evolution code with the descriptor network: agreement between the two is the
strongest correctness check the suite has.

Every built-in gate is U = D0 + X_t D1: two diagonals made from sigma_z's
+-1 pattern and a flip of the target qubit's index bit. A run builds the
parts of all its distinct gates at once, one vectorised pass per gate kind
from one n x 2^n table of those patterns, and reads all their unitarity
defects in one O(2^n)-per-gate pass. A step applies U to the vector from its
parts, d0 psi + X_t (d1 psi), with X_t one gather. The cross-check
compares each psi_t with the network's phi_t = U_t Psi, entry by entry.
``gate_matrix`` scatters one gate's parts, from the same builder, into the
dense 2^n x 2^n matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg, network
from .errors import CircuitMismatch, NonUnitary
from .linalg import DEFAULT_TOL, Tolerances
from .network import Gate


# The size of one temporary of the unitarity-defect pass and of the
# cross-check, which take as many rows at a time as fit in it, whatever n.
_CHUNK_BYTES = 2 ** 20


def _sigma_z(n: int) -> np.ndarray:
    """sigma_z's diagonals as an n x 2^n table: row q - 1 is qubit q's
    z = 1 - 2 b, the +-1 pattern of the bit b of the basis index (qubit 1
    is the most significant bit)."""
    return 1.0 - 2 * ((np.arange(2 ** n) >> np.arange(n - 1, -1, -1)[:, None])
                      & 1)


def _parts(gates: Sequence[Gate], z: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each gate as U = D0 + X_t D1, one row per gate: the diagonals d0 and
    d1, and the target t whose index bit X_t flips (0, with d1 = 0, for a
    diagonal gate).

    One pass per gate kind; each line is the kind's characteristic function
    of sigma_z's diagonals z[q - 1] (``_sigma_z``).
    """
    n, dim = z.shape
    d0 = np.empty((len(gates), dim), dtype=complex)
    d1 = np.zeros_like(d0)
    targets = np.zeros(len(gates), dtype=int)
    rows_of: dict[str, list[int]] = {}
    for row, gate in enumerate(gates):
        gate.validate(n)
        rows_of.setdefault(gate.kind, []).append(row)
    for kind, rows in rows_of.items():
        ops = np.array([gates[r].operands for r in rows], dtype=int) - 1
        params = np.array([gates[r].params for r in rows])
        if kind == "I":
            d0[rows] = 1
        elif kind == "NOT":
            d0[rows], d1[rows] = 0, 1
        elif kind == "H":
            d0[rows], d1[rows] = z[ops[:, 0]] / np.sqrt(2), 1 / np.sqrt(2)
        elif kind == "RZ":
            half = params / 2
            d0[rows] = np.cos(half) - 1j * np.sin(half) * z[ops[:, 0]]
        elif kind == "CNOT":
            control = z[ops[:, 0]]
            d0[rows], d1[rows] = 0.5 * (1 + control), 0.5 * (1 - control)
        elif kind == "F":
            alpha, beta, gamma, delta = params.T[..., None]
            za, zb = z[ops[:, 0]], z[ops[:, 1]]
            d0[rows] = alpha + beta * za + gamma * zb + delta * (za * zb)
        else:  # CCNOT: both controls set.
            both = 0.25 * (1 - z[ops[:, 0]]) * (1 - z[ops[:, 1]])
            d0[rows], d1[rows] = 1 - both, both
        if kind not in ("I", "RZ", "F"):  # X_t flips the last operand.
            targets[rows] = ops[:, -1] + 1
    return d0, d1, targets


def gate_matrix(gate: Gate, n: int) -> np.ndarray:
    """Fixed 2^n x 2^n matrix of a gate, D0 + X_t D1 (see ``_parts``): one
    zeroed allocation and two index scatters."""
    (d0,), (d1,), (target,) = _parts([gate], _sigma_z(n))
    dim = len(d0)
    u = np.zeros((dim, dim), dtype=complex)
    j = np.arange(dim)
    u[j, j] = d0
    if target:
        u[j ^ (dim >> target), j] = d1
    return u


def _squared(v: np.ndarray) -> np.ndarray:
    """|v|^2 as re^2 + im^2, with no square root to round."""
    return v.real ** 2 + v.imag ** 2


def _unitarity_defects(d0: np.ndarray, d1: np.ndarray, targets: np.ndarray
                       ) -> np.ndarray:
    """max_abs(U†U - 1) of each row's U = D0 + X_t D1 (``_parts``), in
    O(2^n) per row and in chunks of about ``_CHUNK_BYTES`` per temporary.

    Column j of U holds d0_j at row j and d1_j at row j ^ b, b the target's
    bit. So (U†U)_jj = |d0_j|^2 + |d1_j|^2, and its only other nonzero
    entries are (j, j ^ b) = conj(d0_j) d1_{j^b} + conj(d1_j) d0_{j^b}; a
    diagonal row reads b = 0 with d1 = 0. A NaN or inf part gives NaN or inf
    in its own row only.
    """
    dim = d0.shape[1]
    bits = np.where(targets > 0, dim >> targets, 0)
    chunk = max(1, _CHUNK_BYTES // (16 * dim))
    defects = np.empty(len(d0))
    for start in range(0, len(d0), chunk):
        rows = slice(start, start + chunk)
        flip = np.arange(dim) ^ bits[rows, None]
        a, b = d0[rows], d1[rows]
        with np.errstate(invalid="ignore"):  # inf * 0 reads NaN
            overlap = (a.conj() * np.take_along_axis(b, flip, axis=1)
                       + b.conj() * np.take_along_axis(a, flip, axis=1))
            defects[rows] = np.maximum(
                np.max(np.abs(_squared(a) + _squared(b) - 1.0), axis=1),
                np.max(np.abs(overlap), axis=1))
    return defects


@dataclass(frozen=True)
class SchrodingerRun:
    """Forward state-vector evolution: row t of ``states``, a (T+1) x 2^n
    array, is the vector at step t."""

    states: np.ndarray


def evolve(initial: np.ndarray, gates: Sequence[Gate], n: int,
           tol: Tolerances = DEFAULT_TOL) -> SchrodingerRun:
    """Apply each gate to the state vector from its parts, keeping every
    state: O(2^n) per step, d0 psi + X_t (d1 psi) with X_t one gather.

    The distinct gates are built in one pass per kind and checked for
    unitarity in one pass, once per call; a failure names the first step
    that fails. The initial state's norm is checked against the same
    tol.unitary.
    """
    psi = np.asarray(initial, dtype=complex)
    if linalg.exceeds(abs(np.linalg.norm(psi) - 1.0), tol.unitary):
        raise NonUnitary(f"initial state norm {np.linalg.norm(psi):.12f} != 1")
    first: dict[Gate, int] = {}  # distinct gate -> its row, by first step
    rows = [first.setdefault(gate, len(first)) for gate in gates]
    distinct = list(first)
    d0, d1, targets = _parts(distinct, _sigma_z(n))
    defects = _unitarity_defects(d0, d1, targets)
    failed = np.flatnonzero(~(defects <= tol.unitary))  # NaN fails too
    if failed.size:
        gate, defect = distinct[failed[0]], defects[failed[0]]
        operands = ", ".join(map(str, gate.operands))
        raise NonUnitary(
            f"step {rows.index(failed[0])}: {gate.kind} on ({operands}): "
            f"unitarity defect {defect:.3e} > {tol.unitary:.3e}")
    j = np.arange(len(psi))
    flips = {t: j ^ (len(psi) >> t) for t in set(targets.tolist()) if t}
    parts = [(a, b, flips.get(t)) for a, b, t in zip(d0, d1, targets)]
    states = np.empty((len(gates) + 1, len(psi)), dtype=complex)
    states[0] = psi
    for row, before, out in zip(rows, states, states[1:]):
        a, b, flip = parts[row]
        np.multiply(a, before, out=out)
        if flip is not None:
            out += (b * before).take(flip)
    return SchrodingerRun(states)


@dataclass(frozen=True)
class CrossValidationReport:
    max_residual: float
    per_step: tuple[float, ...]


def cross_validate(run: SchrodingerRun, timeline: network.Timeline
                   ) -> CrossValidationReport:
    """Compare both pictures step by step: the largest entry of
    |phi_t - psi_t|, phi_t = U_t Psi from the network (``Timeline.phis``)
    and psi_t from the oracle.

    Equal vectors give equal expectations of every observable, local or
    not. The difference is taken in blocks of rows of about
    ``_CHUNK_BYTES``, never a whole stack; NaN fails its own step.
    """
    heis, schr = timeline.phis, run.states
    if heis.shape != schr.shape:
        raise CircuitMismatch(
            f"oracle states {schr.shape} vs network {heis.shape}")
    chunk = max(1, _CHUNK_BYTES // (16 * heis.shape[1]))
    per_step = np.empty(len(heis))
    for start in range(0, len(heis), chunk):
        rows = slice(start, start + chunk)
        per_step[rows] = np.max(np.abs(heis[rows] - schr[rows]), axis=1)
    return CrossValidationReport(linalg.worst(per_step),
                                 tuple(per_step.tolist()))
