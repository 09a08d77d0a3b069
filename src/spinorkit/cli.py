"""Command-line front end: seeded verification suites and DSL evaluation.

    spinor-kit check --suite <name> --seed <n> --trials <n> [--json <path>]
    spinor-kit eval <file|->

Exit codes: 0 all checks pass, 1 a property failed, 2 usage or parse error
(an unreadable or non-UTF-8 eval input and an unwritable --json path count as
usage errors, and the latter writes no report to stdout), 3 internal error:
the kernel broke one of its own invariants (a bug, whatever the input),
reported on stderr as "internal error: <Type>: <message>" with no
traceback and no report on stdout.  The JSON report on stdout is
byte-identical for identical (suite, seed, trials); timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dsl import DslError, eval_program
from .suites import SUITE_NAMES, UnknownSuiteError, run_all, run_suite

PROPERTY_FAILURE = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinor-kit",
        description="Exact verification suites for the two-spinor/Fock kernel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a named property suite")
    check.add_argument(
        "--suite",
        required=True,
        help=f"one of: {', '.join(SUITE_NAMES)}, all",
    )
    check.add_argument("--seed", type=int, required=True)
    check.add_argument("--trials", type=int, required=True)
    check.add_argument("--json", dest="json_path", help="also write the report here")

    ev = sub.add_parser("eval", help="evaluate a DSL file ('-' for stdin)")
    ev.add_argument("path", help="input file or '-'")
    return parser


# built once per process; parse_args leaves the parser unchanged, so calls share it
_PARSER = _build_parser()


def _report_payload(args, reports) -> dict:
    if args.suite == "all":
        return {
            "seed": args.seed,
            "suites": [r.to_json_dict() for r in reports],
            "trials": args.trials,
        }
    return reports[0].to_json_dict()


def _run_check(args) -> int:
    if args.trials <= 0:
        print("error: --trials must be positive", file=sys.stderr)
        return USAGE_ERROR
    try:
        if args.suite == "all":
            reports = run_all(args.seed, args.trials)
        else:
            reports = [run_suite(args.suite, args.seed, args.trials)]
    except UnknownSuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    payload = _report_payload(args, reports)
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.json_path:
        try:
            with open(args.json_path, "w", encoding="utf8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
    sys.stdout.write(text)
    for report in reports:
        status = "ok" if report.passed else f"{len(report.failures)} failure(s)"
        print(
            f"[{report.suite}] trials={report.trials} {status}"
            f" ({report.elapsed:.2f}s)",
            file=sys.stderr,
        )
    return 0 if all(r.passed for r in reports) else PROPERTY_FAILURE


def _run_eval(args) -> int:
    try:
        if args.path == "-":
            text = sys.stdin.read()
        else:
            with open(args.path, "r", encoding="utf8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        for line in eval_program(text):
            print(line)
    except DslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return 0


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "check":
            return _run_check(args)
        return _run_eval(args)
    except Exception as exc:  # every user error is handled above; this is a bug
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
