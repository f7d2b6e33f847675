"""The rule registry.

A rule is a function ``(Project) -> Iterable[Finding]`` registered
under a stable id with a default severity and a one-line summary.
Registration happens at import time via the :func:`rule` decorator;
:func:`get_rules` resolves a user selection (``--rule`` flags) to the
registered callables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.lint.findings import SEVERITY_RANK, Finding
from repro.lint.project import Project

RuleFn = Callable[[Project], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    id: str
    severity: str
    summary: str
    check: RuleFn


#: All registered rules, keyed by id (import the rule modules to fill).
RULES: Dict[str, Rule] = {}


def rule(
    rule_id: str, *, severity: str, summary: str
) -> Callable[[RuleFn], RuleFn]:
    """Class-less registration decorator for rule functions."""
    if severity not in SEVERITY_RANK:
        raise ValueError(f"unknown severity {severity!r} for rule {rule_id}")

    def register(fn: RuleFn) -> RuleFn:
        if rule_id in RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        RULES[rule_id] = Rule(
            id=rule_id, severity=severity, summary=summary, check=fn
        )
        return fn

    return register


def all_rule_ids() -> List[str]:
    """Every registered rule id, sorted."""
    return sorted(RULES)


def get_rules(selection: Optional[Sequence[str]] = None) -> List[Rule]:
    """Resolve a rule-id selection (None = every rule)."""
    if selection is None:
        return [RULES[rid] for rid in all_rule_ids()]
    out = []
    for rid in selection:
        if rid not in RULES:
            raise KeyError(
                f"unknown rule {rid!r} (known: {', '.join(all_rule_ids())})"
            )
        out.append(RULES[rid])
    return out
