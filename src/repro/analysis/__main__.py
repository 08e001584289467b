"""CLI entry point: ``python -m repro.analysis <paths> [options]``.

Exit codes: 0 — clean; 1 — findings; 2 — usage error.  This is the CI
gate contract (``.github/workflows/ci.yml`` runs it over ``src tests
benchmarks examples``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.engine import run_analysis
from repro.analysis.report import render
from repro.analysis.rules import default_rules


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (also the docs' flag reference)."""
    rules = default_rules()
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            f"Determinism & store-phase checker: repo-specific AST "
            f"lint rules ({rules[0].code}-{rules[-1].code}) over the given "
            f"files and directories."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (directories are walked for *.py)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the available rules and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the checker; exit 0 clean, 1 findings, 2 usage error."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.code}  {rule.name}: {rule.summary}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print(
            "error: at least one path is required (or --list-rules)",
            file=sys.stderr,
        )
        return 2
    select = args.select.split(",") if args.select else None
    try:
        findings = run_analysis(args.paths, select=select)
    except ValueError as exc:  # unknown --select code
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render(findings, args.format))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
