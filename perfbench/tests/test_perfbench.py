"""Tests of the benchmark itself: inputs, output check, tracer, contract.

Run with ``python -m pytest -q perfbench/tests`` from the repository root.
"""

import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import check  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from heisim import circuit, network, runner  # noqa: E402


def _report(case) -> dict:
    return json.loads(runner.render_report(
        runner.execute(circuit.parse_circuit(case.text))))


def _small_random():
    return workloads._random_circuit(random.Random("t"), 3, 20)


def _small_branch():
    return workloads.branch_queries(random.Random("t"), pairs=2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_yaml(workload):
    for index in range(3):
        first = workloads.case(workload, 5, index).text
        assert workloads.case(workload, 5, index).text == first
        assert workloads.case(workload, 6, index).text != first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_documents_parse(workload):
    for index in range(5):
        case = workloads.case(workload, 3, index)
        parsed = circuit.parse_circuit(case.text)
        assert parsed.qubits == case.qubits
        assert len(parsed.gates) == case.steps
        assert [g.kind for g in parsed.gates] == [k for k, _, _ in case.gates]
        assert len(parsed.queries) == len(case.queries)


def test_branch_queries_cover_every_query_kind():
    kinds = {q["kind"] for q in workloads.case("branch-queries", 0, 0).queries}
    assert kinds == set(worker.QUERY_KINDS)


@pytest.mark.parametrize("make", [_small_random, _small_branch])
def test_check_accepts_program_reports(make):
    case = make()
    assert check.check_report(case, _report(case)) == []


def _alterations(report):
    """Copies of ``report`` with exactly one answer field changed."""
    for i, answer in enumerate(report["queries"]):
        for key, value in answer.items():
            if key == "kind":
                continue
            if isinstance(value, bool):
                new = not value
            elif isinstance(value, (int, float)):
                new = value + 1e-6
            elif isinstance(value, str):
                new = value + "X"
            else:
                continue
            altered = copy.deepcopy(report)
            altered["queries"][i][key] = new
            yield i, key, altered


@pytest.mark.parametrize("make", [_small_random, _small_branch])
def test_check_rejects_one_altered_answer(make):
    case = make()
    report = _report(case)
    checked = {"value", "sharp", "entangled", "classification",
               "violated_index", "frame_label", "frame_weight", "valid"}
    seen = set()
    for i, key, altered in _alterations(report):
        if key in checked:
            seen.add((case.queries[i]["kind"], key))
            assert check.check_report(case, altered), (i, key)
    assert ("expectation", "value") in seen


def test_check_rejects_nested_and_nan_answers():
    case = _small_branch()
    report = _report(case)
    for kind, path in (("foliate", ("frames", 0, "weight")),
                       ("foliate", ("relative_expectations", "2", "1", 2)),
                       ("classical", ("branches", 1, "value"))):
        i = next(j for j, q in enumerate(case.queries) if q["kind"] == kind)
        altered = copy.deepcopy(report)
        *head, last = path
        target = altered["queries"][i]
        for step in head:
            target = target[step]
        target[last] = target[last] + 1
        assert check.check_report(case, altered), path
    altered = copy.deepcopy(report)
    altered["queries"][0]["value"] = float("nan")
    assert check.check_report(case, altered)


def test_traced_reports_are_identical_and_names_restored():
    case = _small_branch()
    plain = runner.render_report(runner.execute(circuit.parse_circuit(case.text)))
    original = network.apply_gate
    names = worker.TRACED + ("network.no_longer_here",)
    with Tracer(names) as tracer:
        tracer.report_id = 0
        traced = runner.render_report(
            runner.execute(circuit.parse_circuit(case.text)))
        assert network.apply_gate is not original
    assert traced == plain
    assert network.apply_gate is original
    assert tracer.absent == ["network.no_longer_here"]
    assert tracer.calls["network.apply_gate"] == case.steps
    assert tracer.calls["runner._answer_query"] == len(case.queries)
    assert all(span[4] == 0 and span[2] >= span[1] for span in tracer.spans)
    for name, self_s in tracer.self_s.items():
        assert 0 <= self_s <= tracer.total_s[name] + 1e-9


def test_closed_loop_sends_the_pool_round_robin(monkeypatch):
    monkeypatch.setitem(worker.POOL_SIZE, "deep-narrow", 2)
    outcomes = worker.closed_loop("deep-narrow", 1, 0)
    assert [o.doc for o in outcomes] == [0, 1]
    assert all(o.problems == [] for o in outcomes)


def test_end_to_end_uses_the_fastest_correct_report():
    outcomes = [worker.Outcome(0, 250, 0.2, []),
                worker.Outcome(1, 250, 0.1, ["wrong answer"]),
                worker.Outcome(0, 250, 0.15, [])]
    e2e = worker.end_to_end(outcomes)
    assert e2e["report_s.best"][0] == 0.15
    assert e2e["steps_per_s"][0] == 250 / 0.15


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == worker.trace_metric_names())
    outcome = worker.run_case(_small_random())
    e2e = {"setup_s": (0.1, "s"), **worker.end_to_end([outcome])}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
