"""heisim benchmark: seeded circuit workloads through the path of `heisim run`.

    python3 perfbench/run.py --workload deep-narrow --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from anywhere inside a checkout; the program under test is imported from
the checkout's ``src/``. Each workload runs in a fresh ``worker.py`` process
(one closed-loop client), so its peak RSS is its own. ``setup_s`` is the
median import time of ``heisim`` over fresh interpreters started before and
after the workload.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the
per-stage self times and call counts of a traced replay (see ``tracer.py``).
Every report is checked against independent answers (see ``check.py``); the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, and a fuller record including the
environment is written to ``.perfbench_out/``. See BENCHMARK.json for why
each workload exists and which stage should move which metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 12
TIME_LIMIT_S = 170  # one workload, set-up included

_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import heisim\n"
    "print(time.perf_counter() - start, heisim.__file__)\n"
)


class BenchError(RuntimeError):
    pass


def _run(cmd, deadline: float) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"time limit reached before {cmd[1]}")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[1]} exceeded the time limit") from None
    if done.returncode != 0:
        raise BenchError(f"{cmd[1]} exited with {done.returncode}:\n"
                         f"{done.stderr.strip()}")
    return done.stdout


def setup_samples(count: int, deadline: float) -> list[float]:
    """Times to import heisim, each in a fresh interpreter."""
    samples = []
    for _ in range(count):
        out = _run([sys.executable, "-c", _PROBE, str(SRC)], deadline)
        seconds, module_file = out.split(maxsplit=1)
        if not Path(module_file.strip()).is_relative_to(SRC):
            raise BenchError(f"heisim imported from {module_file.strip()}, "
                             f"not from {SRC}")
        samples.append(float(seconds))
    return samples


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    # Half the import probes before the workload and half after, so that
    # setup_s does not hang on one burst of load from other tenants.
    setup = [] if trace else setup_samples(SETUP_PROBES // 2, deadline)
    out = _run([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace)], deadline)
    result = json.loads(out.strip().splitlines()[-1])
    if not trace:
        setup += setup_samples(SETUP_PROBES - len(setup), deadline)
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            **result["metrics"]}
    return result


def _print_result(workload: str, seed: int, trace: int, result: dict) -> None:
    print(f"{workload} seed={seed} trace={trace}: {result['attempted']} "
          f"reports attempted, {result['failed']} failed")
    rows = {**result["metrics"], **result["notes"]}
    for name, metric in rows.items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    for name in result["absent"]:
        print(f"  absent: {name} is no longer in the program")
    print(f"  env {json.dumps(result['env'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "heisim" / "__init__.py").is_file():
        print(f"error: no heisim package under {SRC}", file=sys.stderr)
        return 2

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in chosen:
            results[workload] = run_workload(workload, args.seed,
                                             args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    for workload, result in results.items():
        _print_result(workload, args.seed, args.trace, result)
        name = f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
        (OUT / name).write_text(json.dumps(result, indent=2) + "\n")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {(f"{w}.{k}" if len(results) > 1 else k): v
               for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 3


if __name__ == "__main__":
    sys.exit(main())
