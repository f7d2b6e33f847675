"""``ibcc-repro lint`` / ``python -m repro lint`` — the simlint CLI.

Examples::

    ibcc-repro lint src/                    # human output, exit 1 on errors
    ibcc-repro lint src/ --json             # machine output on stdout
    ibcc-repro lint src/ --json-out f.json  # human output + JSON artifact
    ibcc-repro lint --rule DET001 --rule KEY001 src/repro
    ibcc-repro lint src/ --update-baseline  # accept current findings
    ibcc-repro lint src/ --changed-only origin/main   # PR-diff scope
    ibcc-repro lint --list-rules

A committed ``lint-baseline.json`` (see :mod:`repro.lint.baseline`) is
auto-loaded when present in the current directory, so ``repro lint
src/`` is the ratchet check: it fails only on findings *newer than the
baseline*. ``--no-baseline`` shows the full debt; ``--update-baseline``
re-accepts the current state (a reviewed decision — the diff of the
baseline file is the review surface).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List, Optional, Sequence

from repro.lint.baseline import DEFAULT_BASELINE, Baseline
from repro.lint.engine import LintPathError, run_lint
from repro.lint.registry import RULES, all_rule_ids


def build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibcc-repro lint",
        description=(
            "simlint: whole-program determinism & invariant linter "
            "(DET per-file + DET1xx interprocedural taint, PERF0xx "
            "hot-path costs, CON0xx concurrency discipline, KEY001 "
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
        "--baseline",
        default=None,
        metavar="FILE",
        help=(
            "baseline file of accepted findings to subtract "
            f"(default: {DEFAULT_BASELINE} when it exists)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report the full finding set",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "write the current findings to the baseline file and exit 0 "
            "(accepting them; review the baseline diff)"
        ),
    )
    parser.add_argument(
        "--changed-only",
        default=None,
        metavar="GITREF",
        help=(
            "report only findings in files changed since the merge-base "
            "with GITREF (whole-program analysis still covers all paths)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def _default_paths() -> List[str]:
    return ["src"] if os.path.isdir("src") else ["."]


def _changed_files(ref: str) -> List[str]:
    """``.py`` files changed vs. the merge-base with ``ref``.

    Uses the three-dot diff (merge-base semantics, the PR-review view)
    plus uncommitted changes, so local runs before commit behave like
    CI runs after.
    """
    out: List[str] = []
    for cmd in (
        ["git", "diff", "--name-only", f"{ref}...", "--"],
        ["git", "diff", "--name-only", "HEAD", "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        proc = subprocess.run(
            cmd, capture_output=True, text=True, check=False
        )
        if proc.returncode != 0:
            raise LintPathError(
                f"--changed-only: {' '.join(cmd)} failed: "
                f"{proc.stderr.strip() or 'unknown git error'}"
            )
        out.extend(
            line for line in proc.stdout.splitlines()
            if line.endswith(".py")
        )
    seen = set()
    unique = []
    for path in out:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def _resolve_baseline(args: argparse.Namespace) -> Optional[str]:
    if args.no_baseline:
        return None
    if args.baseline is not None:
        return args.baseline
    return DEFAULT_BASELINE if os.path.isfile(DEFAULT_BASELINE) else None


def lint_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the lint subcommand; returns a process exit code."""
    args = build_lint_parser().parse_args(argv)
    if args.list_rules:
        for rid in all_rule_ids():
            rule = RULES[rid]
            print(f"{rid}  [{rule.severity}]  {rule.summary}")
        return 0
    paths = list(args.paths) or _default_paths()

    if args.update_baseline:
        target = args.baseline or DEFAULT_BASELINE
        try:
            report = run_lint(paths, rules=args.rule)
        except (LintPathError, KeyError) as exc:
            print(f"lint: {exc.args[0]}", file=sys.stderr)
            return 2
        pairs = [(f, f.fingerprint) for f in report.findings]
        Baseline.from_findings(pairs).save(target)
        print(
            f"simlint: baseline {target} updated with "
            f"{len(report.findings)} finding(s)"
        )
        return 0

    changed: Optional[List[str]] = None
    try:
        if args.changed_only is not None:
            changed = _changed_files(args.changed_only)
        report = run_lint(
            paths,
            rules=args.rule,
            baseline=_resolve_baseline(args),
            changed_only=changed,
        )
    except (LintPathError, FileNotFoundError) as exc:
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
