"""Answers read from phi = U_T Psi and the local Paulis.

Every answer reads kets of the final frame, records taken before the final
step included. The answers must agree with the dense operator path (kept
here as an in-test reference built from 2^n x 2^n matrices and numpy's
eigh) and raise the same errors on the same inputs. Every record check
reads the certificate of the record's state: one above min(general,
commute) raises ToleranceViolation, with no dense fallback.
"""

import dataclasses
import itertools
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from heisim import acceptance, linalg, network, oracle, relative, runner
from heisim.circuit import load_circuit
from heisim.errors import (BranchNotSharp, NonCommuting, PreconditionFailed,
                           ToleranceViolation, ZeroWeightBranch)
from heisim.linalg import COMPONENTS, DEFAULT_TOL
from heisim.network import Gate, NetworkState, init_network, run_gates

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"


def certify(timeline):
    """The timeline after ``network.certify`` of its final state, which a
    run takes before its queries."""
    network.certify(timeline[-1])
    return timeline


def with_final(timeline, state):
    """The same run, gate list included, with ``state`` as its final
    state."""
    return dataclasses.replace(
        timeline, states={**timeline.states, len(timeline) - 1: state})


def fresh_final(timeline):
    """The same run with a fresh final state, whose certificate is not
    taken: its record checks take it themselves."""
    last = timeline[-1]
    return with_final(timeline, NetworkState(last.n, last.t, last.u, last.tol))


def random_gate(rng, n):
    if n >= 2 and rng.random() < 0.2:
        a, b = (int(q) + 1 for q in rng.permutation(n)[:2])
        return Gate("F", (a, b), acceptance._random_f_params(rng))
    return acceptance._random_gate(rng, n)


def ref(qubit, name, step):
    return {"qubit": qubit, "component": name, "step": step}


def dense_weight(state, qubit, name):
    """<P+> of the record q_{qubit,name} of ``state``, from its matrix."""
    q = state.component(qubit, name)
    psi = linalg.identity(state.dim)[0]  # Psi = e_0
    return 0.5 * (1 + np.vdot(psi, q @ psi).real)


# The dense operator path --------------------------------------------------

def dense_answer(timeline, query):
    """A query's answer from descriptor matrices U† sigma U of the final
    state and of each record's step, dense products and numpy's eigh."""
    state = timeline[-1]
    tol, one = state.tol, linalg.identity(state.dim)
    psi = one[0]  # Psi = e_0

    def q(qubit, name):
        return state.component(qubit, name)

    def record(r):
        return timeline[r["step"]].component(r["qubit"], r["component"])

    def mean(m):
        return np.vdot(psi, m @ psi)

    def projector(r, sign=1):
        return 0.5 * (one + sign * record(r))

    kind = query["kind"]
    if kind == "expectation":
        obs = q(query["qubit"], query["component"])
        if "frame" not in query:
            return {"kind": kind, "value": mean(obs).real}
        frame = query["frame"]
        proj = projector(frame, frame["label"])
        weight = mean(proj).real
        return {"kind": kind, "value": (mean(obs @ proj) / weight).real,
                "frame_label": frame["label"], "frame_weight": weight}
    if kind == "sharpness":
        obs = q(query["qubit"], query["component"])
        value = mean(obs).real
        sharp = bool(abs(value * value - mean(obs @ obs).real) <= tol.sharp)
        return {"kind": kind, "sharp": sharp,
                "value": value if sharp else None}
    if kind == "entanglement":
        a, b = query["qubits"]
        pairs = [((ci, cj), abs(mean(q(a, ci) @ q(b, cj))
                                - mean(q(a, ci)) * mean(q(b, cj))))
                 for ci in COMPONENTS for cj in COMPONENTS]
        best = max(disc for _, disc in pairs)
        entangled = bool(best > tol.entangle)
        witness = (list(next(p for p, disc in pairs
                             if disc >= best - tol.entangle))
                   if entangled else None)
        return {"kind": kind, "entangled": entangled, "witness": witness,
                "discrepancy": best}
    if kind == "foliate":
        plus = projector(query["record"])
        frames = [(1.0, plus), (-1.0, one - plus)]
        completeness = linalg.max_abs(plus @ (one - plus))
        rel_exp = {}
        for b in query["qubits"]:
            rel_exp[str(b)] = {
                f"{label:g}": [(mean(q(b, c) @ proj) / mean(proj).real).real
                               for c in COMPONENTS]
                for label, proj in frames if mean(proj).real > tol.weight}
        return {"kind": kind,
                "frames": [{"label": label, "weight": mean(proj).real}
                           for label, proj in frames],
                "completeness_residual": completeness,
                "max_commutator": max(linalg.commutator_norm(plus, q(b, c))
                                      for b in query["qubits"]
                                      for c in COMPONENTS),
                "valid": bool(completeness <= tol.general),
                "relative_expectations": rel_exp}
    if kind == "autonomy":
        g = oracle.gate_matrix(query["gate"], state.n)
        unitary = state.u.conj().T @ g @ state.u
        norms = [linalg.commutator_norm(unitary, record(r))
                 for r in query["records"]]
        for idx, norm in enumerate(norms):
            if norm > tol.commute:
                return {"kind": kind, "classification": "DESTROYING",
                        "violated_index": idx, "commutator_norm": norm}
        return {"kind": kind, "classification": "PRESERVING",
                "violated_index": None, "commutator_norm": max(norms)}
    # classical
    def register(qubits):
        return sum(2 ** k * (one - q(b, "z")) / 2
                   for k, b in enumerate(qubits))
    m, s = register(query["register"]), register(query["reference"])
    vals, vecs = np.linalg.eigh(s)
    branches = []
    for label in np.unique(np.round(vals)):
        block = vecs[:, np.abs(vals - label) < 0.5]
        proj = block @ block.conj().T
        weight = mean(proj).real
        if weight <= tol.weight:
            continue
        rel = proj @ psi / np.sqrt(weight)
        value = np.vdot(rel, m @ rel).real
        branches.append({"label": float(label), "weight": weight,
                         "value": int(round(value)),
                         "variance": np.vdot(rel, m @ m @ rel).real
                         - value * value})
    product = m @ s
    return {"kind": kind, "branches": branches,
            "product_sharpness_residual": abs(
                mean(product @ product).real - mean(product).real ** 2)}


def mismatches(want, got, where="answer"):
    """Floats within 1e-12; everything else equal and of the same type."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        return [m for key in want
                for m in mismatches(want[key], got[key], f"{where}.{key}")]
    if isinstance(want, list):
        assert len(got) == len(want), where
        return [m for i, (w, g) in enumerate(zip(want, got))
                for m in mismatches(w, g, f"{where}[{i}]")]
    if isinstance(want, (float, np.floating)):
        ok = abs(float(got) - float(want)) <= 1e-12
    else:
        ok = type(got) is type(want) and got == want
    return [] if ok else [f"{where}: {got!r} != {want!r}"]


def random_queries(rng, timeline):
    """Queries of every kind but classical, all reading the final step."""
    state = timeline[-1]
    n, final = state.n, len(timeline) - 1
    queries = []
    for a in range(1, n + 1):
        for c in COMPONENTS:
            queries += [{"kind": "expectation", "qubit": a, "component": c},
                        {"kind": "sharpness", "qubit": a, "component": c}]
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a != b:
                queries.append({"kind": "entanglement", "qubits": [a, b]})
    for r in range(1, n + 1):
        name = COMPONENTS[rng.integers(3)]
        plus = dense_weight(state, r, name)
        others = [b for b in range(1, n + 1) if b != r]
        if min(plus, 1 - plus) > 1e-6:  # both branches live
            for label in (1, -1):
                b = int(rng.integers(1, n + 1))
                queries.append({"kind": "expectation", "qubit": b,
                                "component": COMPONENTS[rng.integers(3)],
                                "frame": {**ref(r, name, final),
                                          "label": label}})
        if others:
            queries.append({"kind": "foliate", "record": ref(r, name, final),
                            "qubits": [int(b) for b in rng.permutation(others)]})
    for _ in range(2 * n):
        records = [ref(int(rng.integers(1, n + 1)),
                       COMPONENTS[rng.integers(3)], final)
                   for _ in range(int(rng.integers(1, n + 1)))]
        queries.append({"kind": "autonomy", "gate": random_gate(rng, n),
                        "records": records})
    return queries


def split_circuit(rng, n, depth):
    """A random circuit of 2·depth gates whose ``kept`` qubits no gate after
    step depth touches: their records at that step commute with the later
    descriptors of every other qubit, as final-step records do, so they can
    be foliated."""
    kept = {int(q) + 1 for q in rng.permutation(n)[:max(1, n // 3)]}
    gates = [random_gate(rng, n) for _ in range(depth)]
    while len(gates) < 2 * depth:
        gate = random_gate(rng, n)
        if not kept & set(gate.operands):
            gates.append(gate)
    return gates, kept


def early_record_queries(rng, timeline, split, kept):
    """Framed expectations on records of every qubit at random steps before
    the final one, foliations by the ``kept`` qubits' records at ``split``,
    and autonomy checks of records before the final step."""
    n, final = timeline[-1].n, len(timeline) - 1
    queries = []
    for r in range(1, n + 1):
        for _ in range(3):
            name, step = COMPONENTS[rng.integers(3)], int(rng.integers(final))
            state = timeline[step]
            plus = dense_weight(state, r, name)
            if min(plus, 1 - plus) > 1e-6:  # both branches live
                for label in (1, -1):
                    queries.append({"kind": "expectation",
                                    "qubit": int(rng.integers(1, n + 1)),
                                    "component": COMPONENTS[rng.integers(3)],
                                    "frame": {**ref(r, name, step),
                                              "label": label}})
    for r in sorted(kept):
        others = [b for b in range(1, n + 1) if b != r]
        queries.append({"kind": "foliate",
                        "record": ref(r, COMPONENTS[rng.integers(3)], split),
                        "qubits": [int(b) for b in rng.permutation(others)]})
    for _ in range(n):
        records = [ref(int(rng.integers(1, n + 1)),
                       COMPONENTS[rng.integers(3)], int(rng.integers(final)))
                   for _ in range(int(rng.integers(1, n + 1)))]
        queries.append({"kind": "autonomy", "gate": random_gate(rng, n),
                        "records": records})
    return queries


class TestAgainstDensePath:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_every_answer(self, n):
        rng = np.random.default_rng(500 + n)
        kinds = set()
        for depth in (4, 25):
            gates = [random_gate(rng, n) for _ in range(depth)]
            timeline = certify(run_gates(init_network(n), gates))
            for query in random_queries(rng, timeline):
                got = runner._answer_query(timeline, query)
                want = dense_answer(timeline, query)
                assert mismatches(want, got) == [], query
                kinds.add((query["kind"], got.get("classification")))
        assert kinds >= {("autonomy", "PRESERVING"),
                         ("autonomy", "DESTROYING"), ("foliate", None),
                         ("entanglement", None), ("sharpness", None),
                         ("expectation", None)}

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_records_before_the_final_step(self, n):
        # A record of step s < T reads U_T P+ Psi = 1/2(phi + U_T U_s† sigma
        # phi_s): its frame weights and relative expectations agree with
        # the dense projector 1/2(1 + q_rc(s)).
        rng = np.random.default_rng(700 + n)
        kinds = set()
        for depth in (3, 12):
            gates, kept = split_circuit(rng, n, depth)
            timeline = certify(run_gates(init_network(n), gates))
            for query in early_record_queries(rng, timeline, depth, kept):
                got = runner._answer_query(timeline, query)
                want = dense_answer(timeline, query)
                assert mismatches(want, got) == [], query
                kinds.add(query["kind"])
        assert kinds == {"expectation", "foliate", "autonomy"}

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_classical_answers(self, n):
        # Reference register S in a random superposition (H RZ H on each
        # qubit, then reversible gates among them), copied onto register M
        # by CNOTs and then permuted by NOT/CNOT gates within M: every
        # branch of S holds a sharp value of M.
        rng = np.random.default_rng(600 + n)
        k = n // 2
        s_qubits = [int(q) + 1 for q in rng.permutation(k)]
        m_qubits = list(range(k + 1, n + 1))
        for _ in range(3):
            gates = []
            for q in s_qubits:
                gates += [Gate.h(q), Gate.rz(q, rng.uniform(0.3, 2.8)),
                          Gate.h(q)]
            for _ in range(4 * k if k >= 2 else 0):
                gate = acceptance._random_gate(rng, k)
                if gate.kind in ("NOT", "CNOT", "CCNOT"):
                    gates.append(gate)
            gates += [Gate.cnot(s, m) for s, m in zip(s_qubits, m_qubits)]
            if k >= 2:
                gates += [Gate.cnot(m_qubits[0], m_qubits[1]),
                          Gate.not_(m_qubits[-1])]
            timeline = certify(run_gates(init_network(n), gates))
            query = {"kind": "classical",
                     "register": [int(q) for q in rng.permutation(m_qubits)],
                     "reference": s_qubits}
            got = runner._answer_query(timeline, query)
            want = dense_answer(timeline, query)
            assert mismatches(want, got) == [], query
            assert len(got["branches"]) >= 2

    def test_cross_check_reads_the_same_numbers(self):
        # The oracle's Heisenberg side is <phi|sigma phi>, the absolute
        # expectation answer itself.
        rng = np.random.default_rng(7)
        gates = [random_gate(rng, 4) for _ in range(12)]
        timeline = certify(run_gates(init_network(4), gates))
        run = oracle.evolve(timeline[0].phi, gates, 4)
        final = timeline[-1]
        for a in range(1, 5):
            for c in COMPONENTS:
                answer = runner._answer_query(
                    timeline, {"kind": "expectation", "qubit": a,
                               "component": c})["value"]
                fixed = linalg.embed(linalg.PAULIS[c], a, 4)
                psi_t = run.states[-1]
                assert abs(answer - np.vdot(psi_t, fixed @ psi_t).real) <= 1e-12
                assert answer == np.vdot(final.phi, final.ket(a, c)).real


NUMBER = r"-?\d+(?:\.\d+)?(?:e[+-]?\d+)?"


def raised(timeline, query):
    with pytest.raises(Exception) as info:
        runner._answer_query(timeline, query)
    return type(info.value), str(info.value)


class TestSameErrors:
    """Each error fires on the same input whether or not the run took the
    final state's certificate first, with the same message; a commutator
    norm it names is the dense one."""

    @pytest.fixture
    def nan_phi(self, monkeypatch):
        """Every state's phi NaN while its U stays finite, so the guards
        after a finite certificate see NaN. A finite U gives a finite phi,
        so no run reaches them; they are kept all the same."""
        monkeypatch.setattr(NetworkState, "phi", property(
            lambda state: np.full(state.dim, np.nan, dtype=complex)))

    def both(self, timeline, query):
        """The error of a run, whose final state is certified before the
        query, which must be that of a fresh final state. A NonCommuting
        error names the dense ||[P+, q_bc]|| to the four digits it
        prints."""
        kind, message = raised(certify(timeline), query)
        assert raised(fresh_final(timeline), query) == (kind, message)
        if kind is NonCommuting:
            qubit, c, norm = re.search(rf"q_(\d)([xyz]): commutator norm "
                                       rf"({NUMBER})", message).groups()
            record = query["record"]
            q_r = timeline[record["step"]].component(record["qubit"],
                                                     record["component"])
            plus = 0.5 * (linalg.identity(len(q_r)) + q_r)
            dense = linalg.commutator_norm(
                plus, timeline[-1].component(int(qubit), c))
            assert float(norm) == pytest.approx(dense, rel=5e-4, abs=1e-12)
        return kind, message

    def test_unentangled_record(self):
        timeline = run_gates(init_network(2), [Gate.h(2)])
        kind, message = self.both(timeline, {
            "kind": "foliate", "record": ref(1, "z", 1), "qubits": [2, 1]})
        assert kind is NonCommuting
        assert "q_1x: commutator norm 1.000e+00" in message

    @pytest.mark.parametrize("own", ["x", "y"])
    def test_record_own_component(self, own):
        timeline = acceptance.section3_timeline()
        record = {"x": "z", "y": "x"}[own]
        kind, message = self.both(timeline, {
            "kind": "foliate", "record": ref(1, record, 2), "qubits": [2, 1]})
        assert kind is NonCommuting
        assert f"q_1{own}" in message

    def test_branch_not_sharp(self):
        timeline = run_gates(init_network(3), [
            Gate.h(3), Gate.cnot(3, 1), Gate.h(2)])
        kind, message = self.both(timeline, {
            "kind": "classical", "register": [1, 2], "reference": [3]})
        assert kind is BranchNotSharp
        assert message.startswith("branch 0: register value")

    def test_sharp_register(self):
        timeline = run_gates(init_network(3), [Gate.h(3), Gate.cnot(3, 1)])
        kind, message = self.both(timeline, {
            "kind": "classical", "register": [2], "reference": [3]})
        assert kind is PreconditionFailed
        assert message.startswith("register M is sharp")

    def test_zero_weight_branch(self):
        timeline = run_gates(init_network(2), [Gate.cnot(1, 2)])
        kind, message = self.both(timeline, {
            "kind": "expectation", "qubit": 2, "component": "z",
            "frame": {**ref(1, "z", 1), "label": -1}})
        assert kind is ZeroWeightBranch
        assert message == "branch -1.0 of 'q_1z at t=1' has weight 0.000e+00"

    @pytest.mark.parametrize("query", [
        {"kind": "expectation", "qubit": 2, "component": "z",
         "frame": {**ref(1, "z", 2), "label": 1}},
        {"kind": "foliate", "record": ref(1, "z", 2), "qubits": [2]},
        {"kind": "classical", "register": [2], "reference": [1]},
    ], ids=["frame", "foliate", "classical"])
    def test_nan_weight(self, query, nan_phi):
        kind, message = self.both(acceptance.section3_timeline(), query)
        assert kind is ZeroWeightBranch
        assert "weight nan" in message

    def test_nan_discrepancy(self, nan_phi):
        kind, message = self.both(acceptance.section3_timeline(),
                                  {"kind": "entanglement", "qubits": [1, 2]})
        assert kind is ToleranceViolation
        assert message == "entanglement discrepancy of qubits 1 and 2 is nan"


class TestCertificateFallback:
    """A final state whose certificate exceeds min(general, commute) has no
    dense fallback: each of its record checks raises ToleranceViolation,
    which a run reports, as exit status 2, before any query."""

    QUERIES = [
        {"kind": "autonomy", "gate": Gate.rz(1, 0.4),
         "records": [ref(1, "z", 2), ref(2, "z", 2)]},
        {"kind": "autonomy", "gate": Gate.cnot(1, 2),
         "records": [ref(1, "z", 2), ref(2, "z", 2)]},
        {"kind": "foliate", "record": ref(1, "z", 2), "qubits": [2]},
    ]

    @pytest.fixture
    def norms(self, monkeypatch):
        calls = []
        inner = linalg.commutator_norm

        def counted(a, b):
            calls.append(inner(a, b))
            return calls[-1]
        monkeypatch.setattr(linalg, "commutator_norm", counted)
        return calls

    def perturbed(self, size):
        """The measurement run with U_T scaled by 1 + size: its commutators
        stay roundoff, while its Gram defects grow with size. tol.general
        is raised to 1e-8, above its certificate (about 12 size) for the
        sizes used here."""
        timeline = acceptance.section3_timeline()
        last = timeline[-1]
        tol = last.tol.override(general=1e-8)
        return with_final(timeline, NetworkState(last.n, last.t,
                                                 (1 + size) * last.u, tol))

    @pytest.mark.parametrize("query", QUERIES, ids=["rz", "cnot", "foliate"])
    def test_dense_norm_above_the_commute_bound(self, norms, query):
        # A certificate between commute and general.
        timeline = self.perturbed(2e-10)
        last = timeline[-1]
        cert = network.algebra_certificate(last)
        assert last.tol.commute < cert < last.tol.general
        with pytest.raises(ToleranceViolation, match=(
                rf"^algebra residual {cert:.3e} > 1\.000e-09$")):
            runner._answer_query(timeline, query)
        assert norms == []

    def test_certificate_read_within_the_bound(self, norms):
        timeline = certify(acceptance.section3_timeline())
        cert = network.algebra_certificate(timeline[-1])
        got = runner._answer_query(timeline, self.QUERIES[0])
        assert got["classification"] == "PRESERVING"
        assert got["commutator_norm"] == cert and norms == []

    @pytest.mark.parametrize("name", ["general", "commute"])
    def test_certified_within_both_bounds(self, name):
        last = self.perturbed(1e-12)[-1]
        cert = network.algebra_certificate(last)
        for bound in (cert * 2, cert / 2):
            tol = DEFAULT_TOL.override(**{name: bound})
            state = NetworkState(last.n, last.t, last.u, tol)
            if bound > cert:
                assert network.certify(state) == cert
            else:
                with pytest.raises(ToleranceViolation,
                                   match=f"^algebra residual {cert:.3e} > "):
                    network.certify(state)


class TestOneAnswerPath:
    """Answers read kets of the final frame: no descriptor matrix and no
    eigh."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """(name, state) of every NetworkState.component call, and
        (name, None) of every eigh call."""
        calls = []

        def counted(owner, name):
            inner = getattr(owner, name)

            def call(*args, **kwargs):
                calls.append((name, args[0] if owner is NetworkState
                              else None))
                return inner(*args, **kwargs)
            monkeypatch.setattr(owner, name, call)

        counted(NetworkState, "component")
        counted(np.linalg, "eigh")
        return calls

    @pytest.mark.parametrize("criterion", [acceptance.criterion_3,
                                           acceptance.criterion_7,
                                           acceptance.criterion_8])
    def test_selftest_reads_the_answer_path(self, reads, criterion):
        # With the final state certified, as a run certifies it, these
        # criteria read the same kets and |phi|^2 marginals as a run.
        assert criterion(0)["passed"]
        assert reads == []

    @pytest.mark.parametrize("call", [
        lambda s, m: network.expectation(s, m),
        lambda s, m: network.correlation(s, s.ket(1, "z"), m),
        lambda s, m: network.is_sharp(s, m),
        lambda s, m: relative.make_pvm(s, m),
        lambda s, m: relative.relative_expectation(
            s, m, relative.record_pvm(s, network.Record(s, 1, "z"))[0]),
    ], ids=["expectation", "correlation", "is_sharp", "make_pvm",
            "relative_expectation"])
    def test_a_matrix_is_no_observable(self, call):
        final = acceptance.section3_timeline()[-1]
        with pytest.raises(network.DimMismatch):
            call(final, final.component(2, "z"))

    def test_record_before_the_final_step(self, reads):
        # q_1z at step 1 is U_1† sigma_z U_1 = sigma_x after H on qubit 1.
        timeline = certify(acceptance.section3_timeline())
        query = {"kind": "expectation", "qubit": 2, "component": "z",
                 "frame": {**ref(1, "z", 1), "label": 1}}
        got = runner._answer_query(timeline, query)
        assert reads == []
        assert mismatches(dense_answer(timeline, query), got) == []
        assert got["frame_weight"] == pytest.approx(0.5)

    def test_uncertified_final_state(self, reads):
        # Queries that read no record take no certificate; one that does
        # raises on it.
        tol = DEFAULT_TOL.override(general=1e-30)
        timeline = run_gates(init_network(3, tol), [
            Gate.h(3), Gate.rz(3, 0.7), Gate.h(3), Gate.cnot(3, 1),
            Gate.h(2)])
        framed = {"kind": "expectation", "qubit": 1, "component": "z",
                  "frame": {**ref(3, "z", 5), "label": 1}}
        with pytest.raises(ToleranceViolation, match="^algebra residual"):
            runner._answer_query(timeline, framed)
        queries = [
            {"kind": "expectation", "qubit": 1, "component": "z"},
            {"kind": "sharpness", "qubit": 2, "component": "x"},
            {"kind": "entanglement", "qubits": [1, 3]},
            {"kind": "classical", "register": [1], "reference": [3]}]
        answers = [runner._answer_query(timeline, q) for q in queries]
        assert reads == []
        for query, got in zip(queries, answers):
            assert mismatches(dense_answer(timeline, query), got) == [], query
        assert answers[1]["sharp"] and answers[2]["entangled"]
        assert len(answers[3]["branches"]) == 2


class TestLocalHelpers:
    @pytest.mark.parametrize("n", [1, 3])
    def test_apply_pauli_is_the_embedded_pauli(self, n):
        rng = np.random.default_rng(n)
        stack = rng.normal(size=(2 ** n, 5)) + 1j * rng.normal(size=(2 ** n, 5))
        for a in range(1, n + 1):
            for c in COMPONENTS:
                want = linalg.embed(linalg.PAULIS[c], a, n) @ stack
                assert np.array_equal(network.apply_pauli(stack, a, c), want)
                assert np.array_equal(network.apply_pauli(stack[:, 0], a, c),
                                      want[:, 0])

    @staticmethod
    def roundoff(dim):
        """Allowance for the rounding errors of the local and the dense norm.

        A computed complex product XY of inner dimension m is within
        sqrt(2) gamma_{m+2} |X||Y| of the exact one entrywise, gamma_m ~
        m eps / 2, and || |X||Y| ||_2 <= ||X||_F ||Y||_F <= dim ||X||_2
        ||Y||_2. Here m <= dim, every ||X||_2 ||Y||_2 is at most
        2 (1 + d) ([a, sigma] has norm up to 2, U_T up to sqrt(1 + d)), and
        an error carried into a later product grows by at most (1 + d), so
        each product moves a max-abs norm by at most 3 (dim + 2) dim eps.
        The local norm takes 4 products ([a, sigma] two, U_T† [a, sigma] U_T
        two) and the dense one 10 (A = U_T† G U_T two, q_r two, each carried
        into both products of the commutator, and those two).
        """
        return 14 * 3 * (dim + 2) * dim * np.finfo(float).eps

    @pytest.mark.parametrize("gate", [
        Gate.not_(2), Gate.h(2), Gate.rz(2, 0.3), Gate.cnot(1, 2),
        Gate.cnot(2, 1), Gate.ccnot(1, 3, 2), Gate.ccnot(2, 3, 1),
        Gate.f(1, 2, 0.5, 0.5, 0.5, -0.5), Gate("I")],
        ids=lambda g: f"{g.kind}{g.operands}")
    def test_gate_commutes_matches_the_dense_commutator(self, gate):
        """`record_commutator` with a gate's local matrix against the dense
        norm ||[U_T† G U_T, q_r]|| of the oracle's gate matrix G."""
        self.check_record_commutator(gate)

    @pytest.mark.parametrize("c", COMPONENTS)
    def test_half_pauli_commutator_matches_the_dense_commutator(self, c):
        """`record_commutator` with 1/2 sigma_c on each qubit against the
        dense norm of 1/2 sigma_c embedded in the whole space."""
        self.check_record_commutator(c)

    def check_record_commutator(self, local):
        """A gate, or the component of a half Pauli, against every record
        at T and before T."""
        for n in (3, 4):
            rng = np.random.default_rng(n)
            timeline = run_gates(
                init_network(n), [random_gate(rng, n) for _ in range(8)])
            final = timeline[-1]
            cert = network.algebra_certificate(final)
            allowance = self.roundoff(final.dim)
            # So the allowance cannot hide a norm that a check would fail.
            assert allowance < final.tol.commute / 100
            if isinstance(local, Gate):
                # I has no operands, so it has no block.
                locals_ = [(network.local_matrix(local) if local.operands
                            else None,
                            local.operands, oracle.gate_matrix(local, n))]
            else:
                half = 0.5 * linalg.PAULIS[local]
                locals_ = [(half, (q,), linalg.embed(half, q, n))
                           for q in range(1, n + 1)]
            seen = Counter()
            for (a, operands, dense_a), r, c in itertools.product(
                    locals_, range(1, n + 1), COMPONENTS):
                big_a = final.u.conj().T @ dense_a @ final.u
                block_zero = linalg.commutator_norm(
                    dense_a, linalg.embed(linalg.PAULIS[c], r, n)) == 0
                before = timeline[int(rng.integers(8))]
                for record in (network.Record(final, r, c),
                               network.Record(before, r, c)):
                    calls = []

                    def dense():
                        calls.append(big_a)
                        return big_a
                    got = network.record_commutator(final, record, a,
                                                     operands, dense)
                    want = linalg.commutator_norm(
                        big_a, record.state.component(r, c))
                    where = (n, operands, record.label)
                    if record.state is before:
                        # Before T: the dense norm against U_T† a U_T.
                        assert len(calls) == 1 and got == want, where
                        seen["dense"] += 1
                        continue
                    assert calls == [], where
                    if block_zero:
                        assert got == cert, where
                        assert want <= cert + allowance, where
                        seen["certificate"] += 1
                    else:
                        assert abs(got - want) <= cert + allowance, where
                        assert got > final.tol.commute, where
                        seen["local"] += 1
            assert seen["dense"] and seen["certificate"], n
            assert bool(seen["local"]) == (local != Gate("I")), n

    @pytest.mark.parametrize("gate, dead", [(Gate.cnot(1, 3), 8),
                                            (Gate.ccnot(2, 4, 1), 12)],
                             ids=lambda g: getattr(g, "kind", None))
    def test_block_commutator_reads_only_its_live_rows(self, gate, dead,
                                                       monkeypatch):
        """[CNOT, z_t] = P1 (x) -2i y has entries on half the rows of U_T,
        [CCNOT, z_t] on a quarter: the product U_T† (B U_T) never reads the
        rows of B U_T where B has none."""
        rng = np.random.default_rng(5)
        final = certify(run_gates(
            init_network(4), [random_gate(rng, 4) for _ in range(8)]))[-1]
        args = (final, network.Record(final, gate.operands[-1], "z"),
                network.local_matrix(gate), gate.operands, None)
        want = network.record_commutator(*args)
        apply_local, poisoned = network._apply_local, []

        def poison_dead_rows(*local):
            out = apply_local(*local)
            rows = ~np.any(out, axis=1)
            out[rows] = np.nan
            poisoned.append(int(rows.sum()))
            return out
        monkeypatch.setattr(network, "_apply_local", poison_dead_rows)
        assert network.record_commutator(*args) == want
        assert poisoned == [dead] and want > final.tol.commute

    def test_ket_form_needs_matching_shapes(self):
        state = init_network(2)
        with pytest.raises(network.DimMismatch):
            network.correlation(state, state.ket(1, "z"), state.component(1, "z"))

    def test_frames_of_a_record_read_through_phi(self):
        timeline = certify(acceptance.section3_timeline())
        final = timeline[-1]
        plus, minus = relative.record_pvm(final, network.Record(final, 1, "z"))
        assert np.ndim(plus.ket) == 1
        assert plus.weight == pytest.approx(0.5) and minus.weight == pytest.approx(0.5)
        dense = dense_weight(final, 1, "z")
        assert [dense, 1 - dense] == pytest.approx(
            [plus.weight, minus.weight], abs=1e-15)


def cone_qubits(cone, n):
    """The qubits of a ``network.light_cone`` mask: qubit q is bit n - q."""
    return [q for q in range(1, n + 1) if cone >> (n - q) & 1]


class TestLightCone:
    """A final-step record's block commutator reads only the columns of U_T
    on the light cone of its operands. The cone must hold the support of
    U_T† [a, sigma_r] U_T, and the norm read on it must be the norm read on
    every column."""

    GATES = [Gate.cnot(1, 2), Gate.h(3), Gate.cnot(2, 3), Gate("I"),
             Gate.cnot(4, 1)]

    def test_the_sweep_runs_backward_over_every_gate(self):
        """CNOT(4, 1), the last gate, joins only the cones that hold qubit 1
        or 4; CNOT(1, 2), the first, joins those that reach qubit 1 or 2 by
        then; I joins none."""
        cones = {q: cone_qubits(network.light_cone(self.GATES, (q,), 4), 4)
                 for q in range(1, 5)}
        assert cones == {1: [1, 2, 4], 2: [1, 2, 3], 3: [1, 2, 3],
                         4: [1, 2, 4]}
        assert network.light_cone(self.GATES, (3,), 4) == 0b1110
        assert network.light_cone([], (2, 4), 4) == 0b0101
        assert network.light_cone([Gate("I")], (1,), 4) == 0b1000

    def test_a_run_from_t0_keeps_its_gates(self):
        timeline = run_gates(init_network(4), self.GATES)
        assert timeline.gates == tuple(self.GATES)
        later = network.apply_gate(init_network(4), Gate.h(1))
        assert run_gates(later, self.GATES).gates is None

    @staticmethod
    def every_kind(rng, n):
        """``random_gate`` with I as well, so every kind comes up."""
        if rng.random() < 0.1:
            return Gate("I")
        return random_gate(rng, n)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_the_cone_holds_the_support(self, n):
        """On random circuits of every kind, U_T† [a, sigma_r] U_T commutes
        with sigma_x and sigma_z of each qubit outside the cone, so it is
        the identity there, and the norm read on the cone's columns is the
        one read on all of them."""
        rng = np.random.default_rng(40 + n)
        outside = 0
        for _ in range(12):
            gates = [self.every_kind(rng, n) for _ in range(n)]
            timeline = run_gates(init_network(n), gates)
            final = timeline[-1]
            gate = random_gate(rng, n)
            r = gate.operands[int(rng.integers(len(gate.operands)))]
            c = COMPONENTS[int(rng.integers(3))]
            a = network.local_matrix(gate)
            sigma = linalg.embed(linalg.PAULIS[c],
                                 gate.operands.index(r) + 1,
                                 len(gate.operands))
            block = network._apply_local(a @ sigma - sigma @ a,
                                         gate.operands,
                                         linalg.identity(final.dim))
            m = final.u.conj().T @ block @ final.u
            cone = cone_qubits(
                network.light_cone(timeline.gates, gate.operands, n), n)
            for q in sorted(set(range(1, n + 1)) - set(cone)):
                outside += 1
                for p in ("x", "z"):
                    pauli = linalg.embed(linalg.PAULIS[p], q, n)
                    assert linalg.commutator_norm(m, pauli) <= 1e-13, (
                        gates, gate, q)
            record = network.Record(final, r, c)
            args = (final, record, a, gate.operands, None)
            assert network.record_commutator(
                *args, timeline.gates) == pytest.approx(
                    network.record_commutator(*args), rel=1e-13, abs=1e-13)
        assert outside, n

    def test_a_narrow_cone_reads_its_columns(self, monkeypatch):
        """[CNOT(1, 2), z_2] has the cone {1, 2} after gates that never
        link qubits 1 and 2 to the rest: the product reads 2^2 columns of
        U_T with the run's gates and 2^6 with none, and both norms agree."""
        timeline = certify(run_gates(init_network(6), [
            Gate.h(1), Gate.cnot(1, 2), Gate.h(4), Gate.cnot(4, 5),
            Gate.cnot(5, 6), Gate.h(3), Gate.rz(2, 0.4)]))
        final = timeline[-1]
        gate = Gate.cnot(1, 2)
        args = (final, network.Record(final, 2, "z"),
                network.local_matrix(gate), gate.operands, None)
        apply_local, shapes = network._apply_local, []

        def recorded(g, operands, m):
            shapes.append(m.shape)
            return apply_local(g, operands, m)
        monkeypatch.setattr(network, "_apply_local", recorded)
        narrow = network.record_commutator(*args, timeline.gates)
        full = network.record_commutator(*args)
        assert shapes == [(64, 4), (64, 64)]
        assert narrow == pytest.approx(full, rel=1e-15)
        assert narrow > final.tol.commute

    def test_a_run_reads_each_violated_record_on_its_cone(self, monkeypatch):
        """light_cones.yaml: the violated records of its CNOT, H and CCNOT
        autonomy queries read the 2^3, 2^2 and 2^4 columns of their cones;
        the CNOT at the end of its chain reads all 2^10 (``u`` itself)."""
        doc = load_circuit(CIRCUITS / "light_cones.yaml")
        apply_local, columns = network._apply_local, []

        def recorded(g, operands, m):
            if m.ndim == 2 and m.shape[1] < m.shape[0]:
                columns.append(m.shape[1])
            return apply_local(g, operands, m)
        monkeypatch.setattr(network, "_apply_local", recorded)
        report = runner.execute(doc)
        assert columns == [8, 4, 16]
        verdicts = [(q["classification"], q["violated_index"])
                    for q in report["queries"] if q["kind"] == "autonomy"]
        assert verdicts == [("DESTROYING", 1), ("DESTROYING", 1),
                            ("PRESERVING", None), ("DESTROYING", 2),
                            ("PRESERVING", None), ("DESTROYING", 1)]
