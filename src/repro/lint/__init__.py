"""simlint: AST-based determinism & invariant linter for this repo.

The reproduction's headline results rest on bit-for-bit deterministic
replay — golden trace digests, ``jobs=1`` vs ``jobs=4`` digest
equality, seeded chaos schedules. One stray ``random.random()``,
wall-clock read, or unordered-``set`` iteration inside the event path
silently breaks every digest downstream, and the runtime campaigns
only catch it an hour later. simlint moves that detection to a static
pass that fails in seconds.

Per-file rules (see :mod:`repro.lint.rules_taint` /
:mod:`repro.lint.rules_determinism` / :mod:`repro.lint.rules_crossref` /
:mod:`repro.lint.rules_robustness`):

========  ==============================================================
DET001    no raw ``random.*`` / ``numpy.random`` stateful calls in
          sim-critical packages — randomness routes through
          :class:`repro.engine.rng.RngRegistry`
DET002    no wall-clock reads on the event path (telemetry packages
          are allowlisted)
DET003    no iteration over bare ``set()`` / non-literal ``.keys()``
          in sim-critical code without an explicit ``sorted(...)``
DET004    no float accumulation via ``sum()`` over unordered
          (set-typed) iterables in ``metrics`` / ``core``
KEY001    store-key drift — every ``ExperimentConfig`` (and nested
          fault/transport config) dataclass field must be reflected in
          ``store.config_key``'s serialization
TRC001    every ``EV_*`` trace constant must be listed in
          ``ALL_EVENTS``, emitted by a ``Tracer`` hook, and handled by
          the ``TraceAuditor``
ERR001    no bare ``except:`` and no broad ``except Exception`` /
          ``BaseException`` whose body only passes — errors surface as
          data (manifest ``error_kind`` records), never silently
          swallowed
ERR002    no dropped ``asyncio.create_task`` handle in async packages
IMP001    unused module-level import (dead-code hygiene; never fails
          the build)
========  ==============================================================

Whole-program rules, built on the project call graph
(:mod:`repro.lint.callgraph`; see :mod:`repro.lint.rules_taint` /
:mod:`repro.lint.rules_concurrency`):

========  ==============================================================
DET101    interprocedural DET001 — sim-critical call into a helper
          whose call closure draws raw random numbers
DET102    interprocedural DET002 — sim-critical call into a helper
          whose call closure reads the wall clock
DET103    ``id()`` / ``os.environ`` reads / unordered-set iteration on
          the event path, directly or through helper chains
CON001    blocking calls (``time.sleep``, file I/O, subprocess) inside
          ``async def``, directly or through sync helpers
CON002    module-level mutable state mutated by code reachable from a
          worker-process entry point
CON003    asyncio loop-owned state written from thread context without
          ``call_soon_threadsafe``
========  ==============================================================

Suppress a finding with a line pragma ``# simlint: disable=DET001`` on
the flagged line, ``# simlint: disable-next-line=DET001`` on the line
above it, or a file pragma ``# simlint: disable-file=DET001`` on its
own comment line. Every suppression should carry a justifying comment.
A pragma is the one way to silence a finding: there is no baseline of
accepted findings, so the shipped tree lints clean outright.

Programmatic use::

    from repro.lint import run_lint
    report = run_lint(["src"])
    assert not report.errors, report.format()

CLI: ``ibcc-repro lint [paths] [--json] [--json-out FILE] [--rule ID]
[--strict] [--list-rules]`` (also ``python -m repro lint``).
"""

from repro.lint.callgraph import CallGraph, build_callgraph
from repro.lint.engine import (
    LintPathError,
    LintReport,
    iter_python_files,
    run_lint,
)
from repro.lint.findings import (
    SEV_ERROR,
    SEV_INFO,
    SEV_WARNING,
    Finding,
)
from repro.lint.registry import (
    RULES,
    all_rule_ids,
    get_rules,
)

# Importing the rule modules registers their rules.
from repro.lint import rules_concurrency as _rules_concurrency  # noqa: F401
from repro.lint import rules_crossref as _rules_crossref  # noqa: F401
from repro.lint import rules_determinism as _rules_determinism  # noqa: F401
from repro.lint import rules_robustness as _rules_robustness  # noqa: F401
from repro.lint import rules_taint as _rules_taint  # noqa: F401

__all__ = [
    "CallGraph",
    "Finding",
    "LintPathError",
    "LintReport",
    "RULES",
    "SEV_ERROR",
    "SEV_INFO",
    "SEV_WARNING",
    "all_rule_ids",
    "build_callgraph",
    "get_rules",
    "iter_python_files",
    "run_lint",
]
