"""Metamorphic relations over seeded random documents.

A relation between two runs, or between the answers of one run, needs no
known answer, so it checks documents that no reference report covers
(Chen et al., *Metamorphic Testing: A Review of Challenges and
Opportunities*, ACM Computing Surveys 51(1), 2018). Each document is a
random circuit on 2 to 5 qubits; its queries are answered one by one, as a
run answers them after certifying its final state, so that each error is
compared too.
"""

import itertools

import numpy as np

from heisim import acceptance, network, runner
from heisim.errors import HeisimError, ZeroWeightBranch
from heisim.linalg import COMPONENTS
from heisim.network import Gate, init_network, run_gates

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


def differences(want, got, where="answer"):
    """Where two answers differ: floats by more than 1e-9, anything else
    at all; ``ROUNDOFF_KEYS`` are left out."""
    if isinstance(want, dict) and isinstance(got, dict):
        return [d for key in sorted((set(want) | set(got)) - ROUNDOFF_KEYS)
                for d in differences(want.get(key), got.get(key),
                                     f"{where}.{key}")]
    if (isinstance(want, list) and isinstance(got, list)
            and len(want) == len(got)):
        return [d for i, (w, g) in enumerate(zip(want, got))
                for d in differences(w, g, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        return [] if abs(want - got) <= 1e-9 else [f"{where}: {got} != {want}"]
    return [] if want == got else [f"{where}: {got!r} != {want!r}"]


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
