"""``ibcc-repro lint`` / ``python -m repro lint`` — the simlint CLI.

Examples::

    ibcc-repro lint src/                    # human output, exit 1 on errors
    ibcc-repro lint src/ --json             # machine output on stdout
    ibcc-repro lint src/ --json-out f.json  # human output + JSON artifact
    ibcc-repro lint --rule DET001 --rule KEY001 src/repro
    ibcc-repro lint --list-rules

Every run lints the whole given tree and reports every finding that no
``# simlint:`` pragma at the flagged line suppresses; there is no
baseline file and no changed-files scope, so a local run and the CI
run report the same set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.lint.engine import LintPathError, run_lint
from repro.lint.registry import RULES, all_rule_ids


def build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibcc-repro lint",
        description=(
            "simlint: whole-program determinism & invariant linter "
            "(DET per-file + DET1xx interprocedural taint, CON0xx "
            "concurrency discipline, ERR0xx swallowed errors, KEY001 "
            "store-key drift, TRC001 trace coverage)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src/ if present, else .)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help="run only this rule (repeatable; default: every rule)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the JSON findings report on stdout instead of text",
    )
    parser.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="also write the JSON findings report to FILE (CI artifact)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero on warnings too, not only errors",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def _default_paths() -> List[str]:
    return ["src"] if os.path.isdir("src") else ["."]


def lint_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the lint subcommand; returns a process exit code."""
    args = build_lint_parser().parse_args(argv)
    if args.list_rules:
        for rid in all_rule_ids():
            rule = RULES[rid]
            print(f"{rid}  [{rule.severity}]  {rule.summary}")
        return 0
    paths = list(args.paths) or _default_paths()
    try:
        report = run_lint(paths, rules=args.rule)
    except LintPathError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"lint: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.json_out is not None:
        from repro.experiments.store import atomic_write_json

        atomic_write_json(args.json_out, report.to_json_dict())
    if args.json:
        json.dump(report.to_json_dict(), sys.stdout, indent=2)
        print()
    else:
        print(report.format())

    return report.exit_code(strict=args.strict)
