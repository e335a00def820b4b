"""Circuit execution: descriptor evolution, oracle cross-check, query answers.

Every run validates the Heisenberg evolution against the Schrodinger oracle
and reports residual summaries next to the query results. Output is a plain
dict ready for deterministic JSON serialization (sorted keys, floats rounded
to 12 significant digits).
"""

from __future__ import annotations

import json

import numpy as np

from . import linalg, network, oracle, registers, relative
from .circuit import CircuitFile
from .errors import ToleranceViolation
from .linalg import COMPONENTS, DEFAULT_TOL, Tolerances

ARTIFACT_VERSION = "0.1.0"
REPORT_FORMAT_VERSION = 2


def _round_sig(value: float) -> float:
    """Round to 12 significant digits for stable report formatting."""
    if value == 0 or not np.isfinite(value):
        return float(value)
    return float(f"{value:.12g}")


def _clean(obj):
    """Recursively normalize report values for JSON output."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return _round_sig(float(obj))
    return obj


def _record(timeline: network.Timeline, ref: dict) -> network.Record:
    """The record marker (qubit, component, step), read from the run's
    timeline at its step."""
    return network.Record(timeline[ref["step"]], ref["qubit"],
                          ref["component"])


def _answer_query(timeline: network.Timeline, query: dict) -> dict:
    """One query's answer against the final state of the timeline.

    Every observable is read as its ket sigma phi and every record frame as
    its ket (``Record.ket``), whatever the final state's certificate reads.
    """
    state = timeline[-1]
    kind = query["kind"]
    if kind == "expectation":
        obs = state.ket(query["qubit"], query["component"])
        if "frame" in query:
            plus, minus = relative.record_pvm(
                state, _record(timeline, query["frame"]))
            frame = plus if query["frame"]["label"] == 1 else minus
            value = relative.relative_expectation(state, obs, frame)
            return {"kind": kind, "value": value,
                    "frame_label": query["frame"]["label"],
                    "frame_weight": frame.weight}
        return {"kind": kind, "value": network.expectation(state, obs)}
    if kind == "sharpness":
        value = network.is_sharp(state, state.ket(query["qubit"],
                                                  query["component"]))
        return {"kind": kind, "sharp": value is not None, "value": value}
    if kind == "entanglement":
        a, b = query["qubits"]
        witness = network.are_entangled(state, a, b)
        return {"kind": kind, "entangled": witness.entangled,
                "witness": list(witness.components) if witness.components else None,
                "discrepancy": witness.discrepancy}
    if kind == "foliate":
        report = relative.foliate(state, _record(timeline, query["record"]),
                                  query["qubits"], timeline.gates)
        live = relative.live_frames(report.frames, state.tol)
        rel_exp = {
            str(q): {f"{frame.label:g}": [
                relative.relative_expectation(state, state.ket(q, c), frame)
                for c in COMPONENTS] for frame in live}
            for q in query["qubits"]}
        return {"kind": kind,
                "frames": [{"label": f.label, "weight": f.weight}
                           for f in report.frames],
                "completeness_residual": report.completeness_residual,
                "max_commutator": report.max_commutator,
                # Always true, foliate raises first; the format keeps the key.
                "valid": True,
                "relative_expectations": rel_exp}
    if kind == "autonomy":
        snapshots = [_record(timeline, r) for r in query["records"]]
        result = relative.autonomy_check(state, query["gate"], snapshots,
                                         timeline.gates)
        return {"kind": kind, "classification": result.classification,
                "violated_index": result.violated_index,
                "commutator_norm": result.commutator_norm}
    if kind == "classical":
        branches, residual = registers.classical_branches(
            state, query["register"], query["reference"])
        return {"kind": kind,
                "branches": [{"label": b.label,
                              "weight": b.weight,
                              "value": b.value,
                              "variance": b.variance}
                             for b in branches],
                "product_sharpness_residual": residual}
    raise AssertionError(f"unhandled query kind {kind}")


def execute(circuit: CircuitFile, tol: Tolerances = DEFAULT_TOL) -> dict:
    """Run a circuit in both pictures and answer its queries.

    Raises ToleranceViolation when a residual summary exceeds its bound,
    before any query is answered; physics errors from individual queries
    propagate unchanged.
    """
    # U is kept only where a record reads it, and at the final step.
    timeline = network.run_gates(network.init_network(circuit.qubits, tol),
                                 circuit.gates,
                                 {r.step for r in circuit.records})

    # Unnamed, the oracle's states are freed before any query runs.
    cross = oracle.cross_validate(oracle.evolve(
        timeline.phis[0], circuit.gates, circuit.qubits, tol), timeline)
    # Both bounds are checked before the queries, so a run whose pictures
    # disagree names its residual, not a query precondition of a wrong
    # state; the certificate is the one every record check of the final
    # state reads.
    algebra = network.certify(timeline[-1])
    if linalg.exceeds(cross.max_residual, tol.oracle):
        raise ToleranceViolation(
            f"oracle residual {cross.max_residual:.3e} > {tol.oracle:.3e}")

    return _clean({
        "report_format_version": REPORT_FORMAT_VERSION,
        "artifact_version": ARTIFACT_VERSION,
        "qubits": circuit.qubits,
        "steps": len(circuit.gates),
        "tolerances": tol.as_dict(),
        "queries": [_answer_query(timeline, q) for q in circuit.queries],
        "residuals": {
            "algebra": algebra,
            "oracle_max": cross.max_residual,
            "oracle_per_step": list(cross.per_step),
        },
    })


def render_report(report: dict, summary: bool = False) -> str:
    """JSON report, or a human-readable table with --summary."""
    if not summary:
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = [
        f"heisim report (artifact {report['artifact_version']})",
        f"qubits: {report['qubits']}  steps: {report['steps']}",
        f"residuals: algebra={report['residuals']['algebra']:.3e} "
        f"oracle={report['residuals']['oracle_max']:.3e}",
        "queries:",
    ]
    for i, q in enumerate(report["queries"]):
        parts = [f"  [{i}] {q['kind']}:"]
        for key in sorted(q):
            if key == "kind":
                continue
            parts.append(f"{key}={q[key]}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
