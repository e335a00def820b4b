"""Command-line front end: run, validate, selftest."""

from __future__ import annotations

import argparse
import sys

from . import acceptance
from .circuit import load_circuit
from .errors import HeisimError, ValidationError
from .linalg import DEFAULT_TOL
from .runner import execute, render_report

_TOL_NAMES = set(DEFAULT_TOL.as_dict())


def _parse_tol_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        if not sep or name not in _TOL_NAMES:
            raise ValidationError(
                f"--tol expects <name>=<value> with name in "
                f"{sorted(_TOL_NAMES)}; got {pair!r}")
        try:
            overrides[name] = float(value)
        except ValueError:
            raise ValidationError(f"--tol {name}: not a number: {value!r}") from None
    return overrides


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heisim",
        description="Heisenberg-picture quantum network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a circuit file and report")
    run.add_argument("circuit", help="path to a YAML circuit document")
    run.add_argument("--tol", action="append", metavar="NAME=VALUE",
                     help="override a tolerance (repeatable)")
    run.add_argument("--summary", action="store_true",
                     help="human-readable table instead of JSON")

    validate = sub.add_parser("validate", help="parse and validate only")
    validate.add_argument("circuit", help="path to a YAML circuit document")

    selftest = sub.add_parser("selftest", help="run the acceptance suite")
    selftest.add_argument("--seed", type=int, default=0,
                          help="seed for randomized checks (>= 0)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            load_circuit(args.circuit)
            print("ok")
            return 0
        if args.command == "run":
            circuit = load_circuit(args.circuit)
            tol = DEFAULT_TOL.override(**_parse_tol_overrides(args.tol))
            report = execute(circuit, tol)
            sys.stdout.write(render_report(report, summary=args.summary))
            return 0
        # selftest
        if args.seed < 0:
            raise ValidationError(f"--seed must be >= 0, got {args.seed}")
        # Each line is printed as its criterion finishes, so an error in a
        # later one keeps the lines before it.
        total = failed = 0
        for result in acceptance.run_all(args.seed):
            status = "PASS" if result["passed"] else "FAIL"
            print(f"{status} {result['name']}: {result['detail']}",
                  flush=True)
            total += 1
            failed += 0 if result["passed"] else 1
        print(f"{total - failed}/{total} criteria passed "
              f"(seed={args.seed})")
        return 0 if failed == 0 else 2
    except HeisimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_status
    except Exception as exc:  # internal error
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
