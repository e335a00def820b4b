"""Metamorphic relations over seeded random documents.

A relation between two runs, or between the answers of one run, needs no
known answer, so it checks documents that no reference report covers
(Chen et al., *Metamorphic Testing: A Review of Challenges and
Opportunities*, ACM Computing Surveys 51(1), 2018). Each document is a
random circuit on 2 to 6 qubits; its queries are answered one by one, as a
run answers them after certifying its final state, so that each error is
compared too.
"""

import itertools

import numpy as np
import yaml

from heisim import acceptance, network, runner
from heisim.circuit import parse_circuit
from heisim.errors import HeisimError, ZeroWeightBranch
from heisim.linalg import COMPONENTS
from heisim.network import Gate, init_network, run_gates
from heisim.registers import ClassicalFunction, compile_classical
from test_cli import relabel, renamed_answer

DOCUMENTS = 40

# Against a record of an earlier step these are dense norms; against one of
# the final step, the certificate or a block product. They agree only to
# roundoff.
ROUNDOFF_KEYS = {"max_commutator", "commutator_norm", "completeness_residual"}


def random_gate(rng, n, avoid=None):
    """A random gate, F one time in five, with no operand ``avoid``."""
    while True:
        if rng.random() < 0.2:
            a, b = (int(q) + 1 for q in rng.permutation(n)[:2])
            gate = Gate("F", (a, b), acceptance._random_f_params(rng))
        else:
            gate = acceptance._random_gate(rng, n)
        if avoid not in gate.operands:
            return gate


def tilt(rng, n):
    """H RZ(theta) H on each qubit with probability 1/2: from |0>, a qubit
    whose <z> = cos(theta) is neither sharp nor 0."""
    return [gate for q in range(1, n + 1) if rng.random() < 0.5
            for gate in (Gate.h(q), Gate.rz(q, rng.uniform(0.3, 2.8)),
                         Gate.h(q))]


def timeline_of(n, gates, step):
    """The timeline a run keeps for a record at ``step``, its final state
    certified as a run certifies it before its queries."""
    timeline = run_gates(init_network(n), gates, {step})
    network.certify(timeline[-1])
    return timeline


def answer(timeline, query):
    """The query's answer, or the type of the error it raises."""
    try:
        return runner._answer_query(timeline, query)
    except HeisimError as error:
        return type(error)


def differences(want, got, where="answer", tol=1e-9):
    """Where two answers differ: floats by more than ``tol``, anything else
    at all; ``ROUNDOFF_KEYS`` are left out."""
    if isinstance(want, dict) and isinstance(got, dict):
        return [d for key in sorted((set(want) | set(got)) - ROUNDOFF_KEYS)
                for d in differences(want.get(key), got.get(key),
                                     f"{where}.{key}", tol)]
    if (isinstance(want, list) and isinstance(got, list)
            and len(want) == len(got)):
        return [d for i, (w, g) in enumerate(zip(want, got))
                for d in differences(w, g, f"{where}[{i}]", tol)]
    if isinstance(want, float) and isinstance(got, float):
        return [] if abs(want - got) <= tol else [f"{where}: {got} != {want}"]
    return [] if want == got else [f"{where}: {got!r} != {want!r}"]


def gate_entry(gate):
    """A gate as a document writes it, without its step."""
    entry = {"kind": gate.kind, "operands": list(gate.operands)}
    if gate.params:
        entry["params"] = list(gate.params)
    return entry


def measured_document(rng):
    """A random document on 2 to 6 qubits, as a dict.

    A reference register S of 1 to 3 qubits is copied into a register M
    and M is stepped by a random reversible function; the other qubits
    form measurement pairs (H a, CNOT a b) whose z-records are taken after
    the pair's CNOT. A few random gates follow half the time, which may
    break any of that. The queries: M foliated by S, each pair's framed
    expectations, foliation, entanglement and an autonomy check against
    every record, and a plain expectation and a sharpness.
    """
    n = int(rng.integers(2, 7))
    order = [int(q) + 1 for q in rng.permutation(n)]
    bits = int(rng.integers(1, min(3, n // 2) + 1))
    s_reg, m_reg, rest = order[:bits], order[bits:2 * bits], order[2 * bits:]
    gates = [Gate.h(q) for q in s_reg]
    gates += [Gate.cnot(s, m) for s, m in zip(s_reg, m_reg)]
    table = tuple(int(v) for v in rng.permutation(2 ** bits))
    gates += compile_classical(ClassicalFunction(bits, table), m_reg)
    records, queries = [], []
    for a, b in zip(rest[::2], rest[1::2]):
        gates += [Gate.h(a), Gate.cnot(a, b)]
        record = {"step": len(gates), "qubit": a, "component": "z"}
        records.append(record)
        queries += [{"kind": "expectation", "qubit": b, "component": c,
                     "frame": {**record, "label": label}}
                    for c in COMPONENTS for label in (1, -1)]
        queries += [{"kind": "foliate", "qubits": [b], "record": dict(record)},
                    {"kind": "entanglement", "qubits": [a, b]}]
    if rng.random() < 0.5:
        gates += [random_gate(rng, n) for _ in range(int(rng.integers(1, 4)))]
    records.append({"step": int(rng.integers(0, len(gates) + 1)),
                    "qubit": int(rng.integers(1, n + 1)),
                    "component": COMPONENTS[rng.integers(3)]})
    qubit = int(rng.integers(1, n + 1))
    queries += [
        {"kind": "classical", "register": m_reg, "reference": s_reg},
        {"kind": "autonomy", "gate": gate_entry(random_gate(rng, n)),
         "records": [dict(r) for r in records]},
        {"kind": "expectation", "qubit": qubit,
         "component": COMPONENTS[rng.integers(3)]},
        {"kind": "sharpness", "qubit": qubit,
         "component": COMPONENTS[rng.integers(3)]}]
    return {"format_version": 1, "qubits": n,
            "gates": [{"step": t, **gate_entry(g)}
                      for t, g in enumerate(gates)],
            "records": records, "queries": queries}


def answers(doc):
    """Each query's answer or error type, from the document's text."""
    circuit = parse_circuit(yaml.safe_dump(doc))
    timeline = run_gates(init_network(circuit.qubits), circuit.gates,
                         {r.step for r in circuit.records})
    network.certify(timeline[-1])
    return [answer(timeline, query) for query in circuit.queries]


def test_qubit_relabelling_of_random_documents():
    """Renaming the qubits of a random document renames its answers and
    changes nothing else, to 1e-9, errors included. Unlike the shipped
    circuits, these put registers and measurement pairs on every qubit.
    A register read from the mirrored qubit n + 1 - q fails it."""
    rng = np.random.default_rng(1203)
    for _ in range(DOCUMENTS):
        doc = measured_document(rng)
        labels = np.arange(1, doc["qubits"] + 1)
        order = labels
        while np.all(order == labels):  # one that moves some qubit
            order = rng.permutation(labels)
        perm = dict(zip(labels.tolist(), order.tolist()))
        moved = {**doc, **{key: relabel(doc[key], perm)
                           for key in ("gates", "records", "queries")}}
        want = [renamed_answer(a, perm) if isinstance(a, dict) else a
                for a in answers(doc)]
        assert differences(want, answers(moved)) == [], (doc, perm)


def cancelling_pair(rng, n):
    """H H, NOT NOT or RZ(theta) RZ(-theta) on a random qubit."""
    q = int(rng.integers(1, n + 1))
    theta = float(rng.uniform(-np.pi, np.pi))
    return [[Gate.h(q)] * 2, [Gate.not_(q)] * 2,
            [Gate.rz(q, theta), Gate.rz(q, -theta)]][rng.integers(3)]


def renumbered(node, at, later):
    """Every record reference below ``node`` with step > ``at`` moved 2
    steps on, and those at ``at`` moved when ``later``."""
    if isinstance(node, list):
        return [renumbered(entry, at, later) for entry in node]
    if not isinstance(node, dict):
        return node
    out = {key: renumbered(value, at, later) for key, value in node.items()}
    if "qubit" in node and "step" in node and (
            node["step"] > at or node["step"] == at and later):
        out["step"] += 2
    return out


def test_cancelling_pairs_change_no_answer():
    """A pair of gates whose product is 1, inserted at any step with the
    later steps renumbered, leaves every answer within 1e-12 and every
    error of the same type. A record at the insertion step reads the same
    state before and after the pair, so it is moved past the pair or not,
    at random. The insertion step is a record's half the time: a record
    that reads the state one step late fails it there."""
    rng = np.random.default_rng(1204)
    for _ in range(DOCUMENTS):
        doc = measured_document(rng)
        steps = len(doc["gates"])
        at = (doc["records"][rng.integers(len(doc["records"]))]["step"]
              if rng.random() < 0.5 else int(rng.integers(0, steps + 1)))
        pair = [gate_entry(g) for g in cancelling_pair(rng, doc["qubits"])]
        entries = [{k: v for k, v in g.items() if k != "step"}
                   for g in doc["gates"]]
        entries[at:at] = pair
        later = bool(rng.random() < 0.5)
        moved = {**renumbered(doc, at, later),
                 "gates": [{"step": t, **g} for t, g in enumerate(entries)]}
        assert differences(answers(doc), answers(moved),
                           tol=1e-12) == [], (doc, at, pair, later)


def test_a_record_no_later_gate_touches_answers_as_at_the_final_step():
    """q_rc(T) = q_rc(s) when no gate from step s on acts on qubit r, so
    the record taken at s answers as the same record taken at T: every
    framed expectation of another qubit, an autonomy check of an H gate
    and a foliation of another qubit, errors included. U_s in place of
    U_s† in ``transport`` fails it."""
    rng = np.random.default_rng(1201)
    for _ in range(DOCUMENTS):
        n = int(rng.integers(2, 6))
        final = int(rng.integers(2, 13))
        step = int(rng.integers(1, final))
        r = int(rng.integers(1, n + 1))
        name = COMPONENTS[rng.integers(3)]
        gates = [random_gate(rng, n) for _ in range(step)]
        gates += [random_gate(rng, n, avoid=r) for _ in range(step, final)]
        others = [a for a in range(1, n + 1) if a != r]
        foliated = others[rng.integers(len(others))]
        h_qubit = int(rng.integers(1, n + 1))

        def queries(at):
            record = {"qubit": r, "component": name, "step": at}
            return [*({"kind": "expectation", "qubit": a, "component": c,
                       "frame": {**record, "label": label}}
                      for label in (1, -1) for a in others
                      for c in COMPONENTS),
                    {"kind": "autonomy", "gate": Gate.h(h_qubit),
                     "records": [record]},
                    {"kind": "foliate", "qubits": [foliated],
                     "record": record}]

        early, late = timeline_of(n, gates, step), timeline_of(n, gates, final)
        for q_early, q_late in zip(queries(step), queries(final)):
            assert differences(answer(late, q_late),
                               answer(early, q_early)) == [], (gates, q_early)


def test_frame_weights_split_the_plain_expectation():
    """The frames of a record q_rc(s) weigh 1/2(1 ± <q_rc(s)>), with the
    expectation read from a run of the first s gates, and w+ v+ + w- v- of
    the frames' relative expectations v is the plain <A>, for every
    observable A of the final state. Documents with a zero-weight branch
    are skipped. P-'s ket in place of P+'s in ``Record.ket`` fails it
    whenever 0 < |<q_rc(s)>| < 1, so some qubits of each document start
    tilted (``tilt``)."""
    rng = np.random.default_rng(1202)
    checked = partial = 0
    for _ in range(DOCUMENTS):
        n = int(rng.integers(2, 6))
        gates = tilt(rng, n)
        gates += [random_gate(rng, n) for _ in range(int(rng.integers(1, 13)))]
        step = int(rng.integers(0, len(gates) + 1))
        r = int(rng.integers(1, n + 1))
        name = COMPONENTS[rng.integers(3)]
        mean = runner._answer_query(
            timeline_of(n, gates[:step], step),
            {"kind": "expectation", "qubit": r, "component": name})["value"]
        timeline = timeline_of(n, gates, step)
        record = {"qubit": r, "component": name, "step": step}
        rows = []
        for a, c in itertools.product(range(1, n + 1), COMPONENTS):
            query = {"kind": "expectation", "qubit": a, "component": c}
            framed = [answer(timeline, {**query,
                                        "frame": {**record, "label": label}})
                      for label in (1, -1)]
            if ZeroWeightBranch in framed:
                break
            rows.append((answer(timeline, query)["value"], framed))
        else:
            for plain, (plus, minus) in rows:
                assert abs(plus["frame_weight"] - 0.5 * (1 + mean)) <= 1e-9
                assert abs(minus["frame_weight"] - 0.5 * (1 - mean)) <= 1e-9
                total = (plus["frame_weight"] * plus["value"]
                         + minus["frame_weight"] * minus["value"])
                assert abs(total - plain) <= 1e-9, (gates, record)
            checked += 1
            partial += 1e-6 < abs(mean) < 1 - 1e-6
    # Enough documents whose record has two unequal live branches, the ones
    # that tell P+ from P-.
    assert checked >= DOCUMENTS // 2 and partial >= 5, (checked, partial)
