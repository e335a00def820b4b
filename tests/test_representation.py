"""The accumulated-unitary representation against full descriptor conjugation.

The reference below is the textbook Heisenberg picture: every step builds the
gate unitary from the current 3n descriptor matrices, polishes it to the
nearest unitary, and conjugates all descriptors with it. The network instead
carries one unitary U_t and computes q = U_t† sigma U_t on demand; both must
give the same descriptors at every step (a record of q_ac taken at step s
is the step-s state's component) and the same gate unitaries.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from heisim import linalg, network, oracle
from heisim.linalg import COMPONENTS, PAULIS, max_abs
from heisim.network import Gate, apply_gate, init_network, run_gates

ARITY = {"I": 0, "NOT": 1, "H": 1, "RZ": 1, "CNOT": 2, "F": 2, "CCNOT": 3}


def _f_params(signs):
    """Coefficients of the diagonal two-qubit gate with eigenvalues ``signs``."""
    s0, s1, s2, s3 = signs
    return ((s0 + s1 + s2 + s3) / 4, (s0 + s1 - s2 - s3) / 4,
            (s0 - s1 + s2 - s3) / 4, (s0 - s1 - s2 + s3) / 4)


def random_gate(rng, n):
    kinds = ["I", "NOT", "H", "RZ"]
    if n >= 2:
        kinds += ["CNOT", "F"]
    if n >= 3:
        kinds.append("CCNOT")
    kind = kinds[rng.integers(len(kinds))]
    q = [int(v) + 1 for v in rng.permutation(n)]
    if kind == "I":
        return Gate("I")
    if kind == "NOT":
        return Gate.not_(q[0])
    if kind == "H":
        return Gate.h(q[0])
    if kind == "RZ":
        return Gate.rz(q[0], float(rng.uniform(0, 2 * np.pi)))
    if kind == "CNOT":
        return Gate.cnot(q[0], q[1])
    if kind == "F":
        return Gate.f(q[0], q[1], *_f_params(rng.choice([-1.0, 1.0], size=4)))
    return Gate.ccnot(q[0], q[1], q[2])


class ReferenceState:
    """3n dense descriptor matrices, conjugated at every step."""

    def __init__(self, n):
        self.n = n
        self.dim = 2 ** n
        self.mats = {(a, c): linalg.embed(PAULIS[c], a, n)
                     for a in range(1, n + 1) for c in COMPONENTS}

    def descriptor(self, a):
        return SimpleNamespace(**{c: self.mats[(a, c)] for c in COMPONENTS})

    def gate_unitary(self, gate):
        one = linalg.identity(self.dim)
        d = self.descriptor
        ops, kind = gate.operands, gate.kind
        if kind == "I":
            return one
        if kind == "NOT":
            return d(ops[0]).x
        if kind == "H":
            return (d(ops[0]).x + d(ops[0]).z) / np.sqrt(2)
        if kind == "RZ":
            (theta,) = gate.params
            return np.cos(theta / 2) * one - 1j * np.sin(theta / 2) * d(ops[0]).z
        if kind == "CNOT":
            down = 0.5 * (one - d(ops[0]).z)
            return one - down + d(ops[1]).x @ down
        if kind == "F":
            alpha, beta, gamma, delta = gate.params
            za, zb = d(ops[0]).z, d(ops[1]).z
            return alpha * one + beta * za + gamma * zb + delta * (za @ zb)
        # CCNOT
        both = (0.5 * (one - d(ops[0]).z)) @ (0.5 * (one - d(ops[1]).z))
        return one - both + d(ops[2]).x @ both

    def apply(self, u):
        w, _, vh = np.linalg.svd(u)
        u = w @ vh
        self.mats = {k: u.conj().T @ m @ u for k, m in self.mats.items()}


def test_random_circuits_match_full_conjugation():
    rng = np.random.default_rng(2000)
    checked_kinds = set()
    for _ in range(30):
        n = int(rng.choice([2, 3, 4]))
        gates = [random_gate(rng, n) for _ in range(int(rng.integers(1, 51)))]
        timeline = run_gates(init_network(n), gates)

        ref = ReferenceState(n)
        for step, state in enumerate(timeline):
            if step:
                gate = gates[step - 1]
                checked_kinds.add(gate.kind)
                ref.apply(ref.gate_unitary(gate))
            for (q, c), want in ref.mats.items():
                assert max_abs(state.descriptor(q).component(c) - want) <= 1e-10
            if step < len(gates):
                got = network.build_gate_unitary(state, gates[step])
                assert max_abs(got - ref.gate_unitary(gates[step])) <= 1e-10
    assert checked_kinds == set(network.GATE_KINDS)


def test_deep_circuit_algebra_residual():
    rng = np.random.default_rng(3000)
    state = init_network(3)
    for _ in range(3000):
        state = apply_gate(state, random_gate(rng, 3))
    assert network.algebra_residual(state.descriptors) <= 1e-12


@st.composite
def circuits(draw):
    """A qubit count and a list of gates."""
    n = draw(st.integers(1, 4))
    kinds = ["I", "NOT", "H", "RZ"] + (["CNOT", "F"] if n >= 2 else []) + (
        ["CCNOT"] if n >= 3 else [])
    gates = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(kinds))
        ops = tuple(draw(st.permutations(range(1, n + 1)))[:ARITY[kind]])
        if kind == "RZ":
            params = (draw(st.floats(-10, 10)),)
        elif kind == "F":
            params = _f_params(draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                             min_size=4, max_size=4)))
        else:
            params = ()
        gates.append(Gate(kind, ops, params))
    return n, gates


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(circuits())
def test_picture_equivalence_property(circuit):
    n, gates = circuit
    timeline = run_gates(init_network(n), gates)
    run = oracle.evolve(timeline[0].psi, gates, n)
    assert oracle.cross_validate(run, timeline).max_residual <= 1e-9
    # The on-demand descriptors of the final state, which queries read.
    final, psi = timeline[-1], run.states[-1]
    for a in range(1, n + 1):
        for c in COMPONENTS:
            heis = network.expectation(final, final.descriptor(a).component(c))
            schr = np.vdot(psi, linalg.embed(PAULIS[c], a, n) @ psi)
            assert abs(heis - schr) <= 1e-9
