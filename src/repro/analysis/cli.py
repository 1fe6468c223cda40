"""``python -m repro.analysis`` — lint and units front-end.

Exit codes: 0 clean, 1 any finding, 2 usage error.  ``--format json``
emits a machine-readable report on stdout (CI publishes it as an
artifact).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis import rules as _rules  # noqa: F401 - registers rules
from repro.analysis.engine import RULES, lint_paths
from repro.analysis.findings import Severity
from repro.analysis.units import check_units_paths

#: Default sweep set: the package, its tests, and the benchmark suite.
DEFAULT_LINT_PATHS = ["src", "tests", "benchmarks"]

#: Codes the engine emits itself, beside the registered rules: pragma
#: without a reason, unreadable file, syntax error.
_ENGINE_CODES = {"CAT090", "CAT998", "CAT999"}

_UNIT_RULES = {
    "UNIT001": "incompatible dimensions in +/-/comparison",
    "UNIT002": "declared unit contradicted (parameter rebound / return)",
    "UNIT003": "call argument unit mismatch",
}


def _rule_codes(text: str) -> list[str]:
    """``--select`` value -> codes; rejects codes ``lint`` cannot emit,
    so a typo or a stale code in a CI step fails instead of passing."""
    codes = [s.strip() for s in text.split(",") if s.strip()]
    if not codes:
        raise argparse.ArgumentTypeError("no rule code given")
    unknown = sorted(set(codes) - set(RULES) - _ENGINE_CODES)
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown rule code(s): {', '.join(unknown)}")
    return codes


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="CAT static analysis: catlint + units checker")
    sub = p.add_subparsers(dest="command")

    lint = sub.add_parser("lint", help="run the catlint rule set")
    lint.add_argument("paths", nargs="*", default=DEFAULT_LINT_PATHS,
                      help="files or directories "
                           f"(default: {' '.join(DEFAULT_LINT_PATHS)})")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--select", type=_rule_codes, default=None,
                      metavar="RULES",
                      help="comma-separated rule codes to run")
    lint.add_argument("--min-severity", choices=("info", "warning", "error"),
                      default="info", help="drop findings below this level")

    units = sub.add_parser("units", help="run the units/dimension checker")
    units.add_argument("paths", nargs="*", default=["src"])
    units.add_argument("--format", choices=("text", "json"), default="text")

    sub.add_parser("list-rules", help="print the rule catalog")
    return p


def _emit(findings, fmt: str) -> None:
    if fmt == "json":
        doc = {"tool": "catlint",
               "counts": {"total": len(findings)},
               "findings": [f.to_dict() for f in findings]}
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    for f in findings:
        print(f.render())
    print(f"{len(findings)} finding(s)")


def _cmd_lint(args) -> int:
    findings = lint_paths(args.paths, select=args.select)
    floor = Severity.rank(args.min_severity)
    findings = [f for f in findings if Severity.rank(f.severity) >= floor]
    _emit(findings, args.format)
    return 1 if findings else 0


def _cmd_units(args) -> int:
    findings = check_units_paths(args.paths)
    _emit(findings, args.format)
    return 1 if findings else 0


def _cmd_list_rules() -> int:
    for code in sorted(RULES):
        r = RULES[code]
        print(f"{code}  {r.name:<22} [{r.severity}]")
        print(f"       {r.description}")
    print("CAT090 pragma-missing-reason   [info]")
    print("       catlint pragma without a '-- reason' tail.")
    for code, desc in _UNIT_RULES.items():
        print(f"{code} units-checker          [error]")
        print(f"       {desc}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "units":
        return _cmd_units(args)
    if args.command == "list-rules":
        return _cmd_list_rules()
    parser.print_help()
    return 2
