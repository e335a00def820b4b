"""Run one workload in this process and print its result as one JSON line.

Started by ``run.py`` in a fresh interpreter per workload, so that peak RSS
belongs to the workload alone. One client sends circuit documents one after
another (a closed loop), each through the path of ``heisim run``:
``circuit.parse_circuit`` -> ``runner.execute`` -> ``runner.render_report``.
The documents are a fixed pool drawn from the seed, sent round-robin, so
every document is timed in several passes spread over the whole run. Only
that path is timed; generating a document and checking its report are not.

With ``--trace 1`` the first half of the time runs untraced, then the same
documents run again under ``tracer.Tracer``; both runs must render
byte-identical reports.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import yaml  # noqa: E402

from heisim import circuit, runner  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TRACED = (
    "circuit.parse_circuit",
    "network.run_gates",
    "network.apply_gate",
    "network.build_gate_unitary",
    "network.algebra_residual",
    "network.are_entangled",
    "network.is_sharp",
    "oracle.evolve",
    "oracle.gate_matrix",
    "oracle.cross_validate",
    "relative.make_pvm",
    "relative.make_pvm_spectral",
    "relative.relative_expectation",
    "relative.foliate",
    "relative.autonomy_check",
    "registers.register_descriptor",
    "registers.classical_branches",
    "runner.execute",
    "runner._answer_query",
    "runner.render_report",
)
GATE_KINDS = ("NOT", "H", "CNOT", "RZ", "CCNOT")
QUERY_KINDS = ("expectation", "sharpness", "entanglement", "foliate",
               "autonomy", "classical")

# Documents per run. A pass over the pool takes about 1.2 to 2 s on
# deep-narrow, and 4 s (wide) or 8 s (branch-queries) for a single
# document, so a 40 s run times each document in several passes.
POOL_SIZE = {"deep-narrow": 8, "wide": 1, "branch-queries": 1}


def _trace_sources() -> list[tuple[str, str, str, str]]:
    """(metric, unit, tracer table, tracer key) of every traced stage."""
    rows = []
    for name in TRACED:
        rows += [(f"{name}.self_s", "s", "self_s", name),
                 (f"{name}.calls", "count", "calls", name)]
    for prefix, kinds in (("network.apply_gate", GATE_KINDS),
                          ("runner._answer_query", QUERY_KINDS)):
        for kind in kinds:
            rows += [(f"{prefix}.self_s.{kind}", "s", "self_s",
                      f"{prefix}.{kind}"),
                     (f"{prefix}.calls.{kind}", "count", "calls",
                      f"{prefix}.{kind}")]
    rows.append(("runner._answer_query.total_s", "s", "total_s",
                 "runner._answer_query"))
    return rows


_TRACE_EXTRA = (("residual.algebra_max", "1"), ("residual.oracle_max", "1"),
                ("trace.overhead_frac", "1"))


def trace_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports, in order."""
    return [(m, u) for m, u, _, _ in _trace_sources()] + list(_TRACE_EXTRA)


@dataclass
class Outcome:
    """What one report leaves behind. Only a few numbers, so that peak RSS
    does not grow with the number of reports a run completes."""

    doc: int  # index of the document in the pool
    steps: int
    seconds: float
    problems: list
    residuals: dict | None = None
    digest: str | None = None  # of the rendered report


def render(text: str):
    """YAML text -> rendered report: (report text or None, error, seconds)."""
    start = time.perf_counter()
    try:
        rendered = runner.render_report(
            runner.execute(circuit.parse_circuit(text)))
    except Exception as exc:  # a failed report is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}", time.perf_counter() - start
    return rendered, None, time.perf_counter() - start


def _digest(rendered):
    return None if rendered is None else hashlib.sha256(
        rendered.encode()).hexdigest()


def run_case(case, doc: int = 0, checked: dict | None = None) -> Outcome:
    """Time one document through the program, then check its report.

    ``checked`` maps report digests to their check results, so that a report
    identical to one already checked is not checked again."""
    rendered, error, seconds = render(case.text)
    if error:
        return Outcome(doc, case.steps, seconds, [error])
    digest = _digest(rendered)
    report = json.loads(rendered)
    res, tol = report["residuals"], report["tolerances"]
    residuals = {"algebra": res["algebra"], "oracle_max": res["oracle_max"],
                 "algebra_bound": 100 * tol["general"],
                 "oracle_bound": tol["oracle"]}
    if checked is None or digest not in checked:
        problems = check.check_report(case, report)
        if checked is not None:
            checked[digest] = problems
    else:
        problems = checked[digest]
    return Outcome(doc, case.steps, seconds, problems, residuals, digest)


def pool(workload: str, seed: int) -> list:
    return [workloads.case(workload, seed, i)
            for i in range(POOL_SIZE[workload])]


def closed_loop(workload: str, seed: int, seconds: float) -> list[Outcome]:
    """Send the pool's documents round-robin, one after another. After every
    document has been sent once, stop before a report that its document's
    last time says would end after ``seconds``."""
    cases = pool(workload, seed)
    checked = {}
    outcomes = []
    start = time.perf_counter()
    while True:
        doc = len(outcomes) % len(cases)
        if len(outcomes) >= len(cases) and (
                time.perf_counter() - start
                + outcomes[-len(cases)].seconds > seconds):
            return outcomes
        outcomes.append(run_case(cases[doc], doc, checked))


def warm_up() -> None:
    """One small document through every query kind, so lazy set-up in numpy
    and the program happens before timing starts."""
    run_case(workloads.branch_queries(random.Random("warm-up"), pairs=1))


def end_to_end(outcomes: list[Outcome]) -> dict:
    """The gated metrics, from the run's fastest report.

    On a shared 2-core VM other tenants slow the CPU by up to 1.8x for
    stretches of several seconds; the same document then takes that much
    longer in CPU time as well as in wall time. Such stretches cover most of
    a run, and how much changes from run to run, which moves every quantile
    of the report times (the lower quartile by 0.25 of its median over ten
    seeds). The fastest report of a run stays with the program's own cost.
    A failed report has rate 0, and its time counts only if every report
    failed."""
    good = [o for o in outcomes if not o.problems] or outcomes
    rates = [0.0 if o.problems else o.steps / o.seconds for o in outcomes]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "steps_per_s": (max(rates), "1/s"),
        "report_s.best": (min(o.seconds for o in good), "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }


def traced_replay(outcomes: list[Outcome], workload: str, seed: int):
    """Run the same documents under the tracer; return metrics and problems."""
    problems = []
    cases = pool(workload, seed)
    with Tracer(TRACED) as tracer:
        traced_s = 0.0
        for index, outcome in enumerate(outcomes):
            tracer.report_id = index
            rendered, _, seconds = render(cases[outcome.doc].text)
            traced_s += seconds
            if _digest(rendered) != outcome.digest:
                problems.append((index, "traced report differs from untraced"))
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.jsonl")

    metrics = {metric: (getattr(tracer, table).get(key, 0), unit)
               for metric, unit, table, key in _trace_sources()}
    untraced_s = sum(o.seconds for o in outcomes)
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1, "1")
    return metrics, problems, tracer.absent


def residuals(outcomes: list[Outcome]):
    """Worst residuals over the reports, and the bounds the program holds
    them to (headroom, not a benchmark gate)."""
    rows = [o.residuals for o in outcomes if o.residuals]
    if not rows:
        return {}, {}
    worst = {"residual.algebra_max": (max(r["algebra"] for r in rows), "1"),
             "residual.oracle_max": (max(r["oracle_max"] for r in rows), "1")}
    bounds = {f"residual.{key}": (rows[0][key], "1")
              for key in ("algebra_bound", "oracle_bound")}
    return worst, bounds


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyyaml": yaml.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        // 2 ** 20,
        "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    warm_up()
    budget = args.seconds / 2 if args.trace else args.seconds
    outcomes = closed_loop(args.workload, args.seed, budget)
    problems = [(i, p) for i, o in enumerate(outcomes) for p in o.problems]
    times = [o.seconds for o in outcomes]
    notes = {}
    absent = []
    if args.trace:
        metrics, replay_problems, absent = traced_replay(
            outcomes, args.workload, args.seed)
        problems += replay_problems
        worst, notes = residuals(outcomes)
        metrics.update(worst)
    else:
        metrics = end_to_end(outcomes)
    failed = len({i for i, _ in problems})
    # Not benchmark metrics: failed_frac is 0 whenever the run is correct,
    # the median follows the load of other tenants (see end_to_end), and only
    # some workloads give the ten samples beyond p90 it needs.
    notes["failed_frac"] = (failed / len(outcomes), "1")
    notes["report_s.p50"] = (statistics.median(times), "s")
    if len(times) >= 100:
        notes["report_s.p90"] = (statistics.quantiles(times, n=10)[-1], "s")
    print(json.dumps({
        "attempted": len(outcomes),
        "failed": failed,
        "problems": [f"report {i}: {p}" for i, p in problems[:20]],
        "absent": absent,
        "report_seconds": times,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": {k: {"value": v, "unit": u} for k, (v, u) in notes.items()},
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
