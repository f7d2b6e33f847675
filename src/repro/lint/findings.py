"""Findings: what a lint rule reports.

A :class:`Finding` pins one defect to a file/line/column with a rule
id, a severity, and an actionable message. Severities order the exit
code policy: ``error`` findings fail the build, ``warning`` findings
fail only under ``--strict``, ``info`` findings never fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

SEV_ERROR = "error"
SEV_WARNING = "warning"
SEV_INFO = "info"

#: Rank for sorting/threshold checks (higher = more severe).
SEVERITY_RANK: Dict[str, int] = {SEV_INFO: 0, SEV_WARNING: 1, SEV_ERROR: 2}


@dataclass(frozen=True)
class Finding:
    """One lint defect, pinned to a source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITY_RANK:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def format(self) -> str:
        """The human one-liner: ``path:line:col: RULE error: message``."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.severity}: {self.message}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-output form (stable schema, see ``repro lint --json``)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
