"""Run the repo's lint rules from the command line.

    python -m repro.analysis check [paths] [--list-rules]

Lints the given files or directories (default: the installed ``repro``
package) and exits nonzero when any error-severity diagnostic is found,
so it slots into CI next to pytest; exit status 2 is bad usage.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .diagnostics import errors, format_report
from .lint import RULES, lint_paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static checks for the repro codebase.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="run the house lint rules")
    check.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: the repro package)",
    )
    check.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES.values():
            scope = ", ".join(rule.segments) if rule.segments else "entire tree"
            print(f"{rule.id} {rule.name} [{scope}]\n    {rule.description}")
        return 0
    paths = [Path(p) for p in args.paths] or [Path(__file__).resolve().parent.parent]
    missing = [p for p in paths if not p.exists()]
    if missing:
        parser.error(f"no such file or directory: {missing[0]}")
    diags = lint_paths(paths)
    print(format_report(diags))
    return 1 if errors(diags) else 0


if __name__ == "__main__":
    sys.exit(main())
