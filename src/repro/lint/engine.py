"""Run the registered rules over a file set and aggregate findings.

:func:`run_lint` is the one public entry point — the CLI, the CI job
and the test suite all go through it, so they can never disagree about
what "clean" means.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.lint.findings import SEV_ERROR, SEV_WARNING, Finding
from repro.lint.pragmas import PragmaIndex
from repro.lint.project import (
    DEFAULT_CONFIG,
    LintConfig,
    Project,
    SourceFile,
    classify_parts,
)
from repro.lint.registry import Rule, get_rules

#: Directory names never descended into.
_SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "build", "dist"}
)


class LintPathError(ValueError):
    """An explicit path argument that cannot be linted.

    Raised (never silently ignored) when an argument does not exist or
    is a file without a ``.py`` suffix — ``repro lint typo.py`` must be
    a hard error, not a successful zero-file run.
    """


def _walk_with_roots(paths: Sequence[str]) -> List[Tuple[str, str]]:
    """Expand files/directories into ``(file, walk_root)`` pairs."""
    out: List[Tuple[str, str]] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d not in _SKIP_DIRS and not d.startswith(".")
                )
                for name in sorted(names):
                    if name.endswith(".py"):
                        out.append((os.path.join(root, name), path))
        elif not os.path.exists(path):
            raise LintPathError(f"no such file or directory: {path!r}")
        elif path.endswith(".py"):
            out.append((path, os.path.dirname(path)))
        else:
            raise LintPathError(
                f"not a Python file: {path!r} (explicit file arguments "
                "must end in .py; directories are walked recursively)"
            )
    # De-duplicate while keeping the sorted walk order stable.
    seen = set()
    unique = []
    for pair in out:
        if pair[0] not in seen:
            seen.add(pair[0])
            unique.append(pair)
    return unique


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Explicit arguments that do not exist, or that name a non-``.py``
    file, raise :class:`LintPathError` — a typo'd path must never
    produce a clean zero-file lint run.
    """
    return [path for path, _root in _walk_with_roots(paths)]


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding]
    files_checked: int
    rules_run: List[str] = field(default_factory=list)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == SEV_ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == SEV_WARNING]

    def exit_code(self, *, strict: bool = False) -> int:
        """1 when error findings exist (or warnings under strict)."""
        if self.errors:
            return 1
        if strict and self.warnings:
            return 1
        return 0

    def format(self) -> str:
        """Human-readable report: one line per finding + a summary."""
        lines = [f.format() for f in self.findings]
        n_err, n_warn = len(self.errors), len(self.warnings)
        n_info = len(self.findings) - n_err - n_warn
        lines.append(
            f"simlint: {self.files_checked} file(s) checked, "
            f"{n_err} error(s), {n_warn} warning(s), {n_info} info"
        )
        return "\n".join(lines)

    def to_json_dict(self) -> Dict[str, Any]:
        """The stable machine-readable form (``repro lint --json``)."""
        return {
            "version": 3,
            "files_checked": self.files_checked,
            "rules_run": list(self.rules_run),
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "info": (
                    len(self.findings)
                    - len(self.errors)
                    - len(self.warnings)
                ),
            },
            "findings": [f.to_dict() for f in self.findings],
        }


def _load_file(path: str, root: str = "") -> SourceFile:
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, filename=path)
    return SourceFile(
        path=path,
        source=source,
        tree=tree,
        pragmas=PragmaIndex.from_source(source),
        parts=classify_parts(path),
        root=root,
    )


def run_lint(
    paths: Sequence[str],
    *,
    rules: Optional[Sequence[str]] = None,
    config: Optional[LintConfig] = None,
) -> LintReport:
    """Lint ``paths`` (files and/or directories) with the selected rules.

    Unparseable files produce a ``PARSE001`` error finding rather than
    aborting the run. Findings suppressed by ``# simlint:`` pragmas are
    dropped — a pragma at the flagged line is the one way to silence a
    finding; the rest come back sorted by location.
    """
    selected: List[Rule] = get_rules(rules)
    files: List[SourceFile] = []
    findings: List[Finding] = []
    pairs = _walk_with_roots(paths)
    for path, root in pairs:
        try:
            files.append(_load_file(path, root))
        except (SyntaxError, ValueError, UnicodeDecodeError) as exc:
            lineno = getattr(exc, "lineno", None) or 1
            findings.append(Finding(
                "PARSE001", SEV_ERROR, path, int(lineno), 0,
                f"file does not parse: {exc}",
            ))

    project = Project(files=files, config=config or DEFAULT_CONFIG)
    by_path = {f.path: f for f in files}
    for rule_obj in selected:
        for finding in rule_obj.check(project):
            src = by_path.get(finding.path)
            if src is not None and src.pragmas.suppressed(
                finding.rule, finding.line
            ):
                continue
            findings.append(finding)

    findings.sort(key=lambda f: f.sort_key)
    return LintReport(
        findings=findings,
        files_checked=len(pairs),
        rules_run=[r.id for r in selected],
    )
