"""Hot-path performance rules (PERF001–PERF004).

The ROADMAP's kernel-speed work needs to know which functions are
actually on the per-event path. Rather than a hardcoded file list, the
**hot set** is computed from the whole-program call graph: everything
reachable from the configured hot roots (``Simulator.run`` /
``schedule`` / ``schedule_at`` / ``step``) plus every callback handed
to a ``schedule``/``schedule_at`` call — the event loop invokes those,
so they and their call closures execute once per event. Moving a
function out of that reachable set removes its PERF findings; no rule
here ever consults a path allowlist.

The PERF rules are warnings: they flag costs, not bugs, and the
baseline ratchet keeps the accepted ones from drowning new ones. They
only examine hot functions in sim-critical packages — a hot helper in
telemetry code is not the inner loop.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.callgraph import CallGraph, FuncNode, hot_set
from repro.lint.findings import SEV_WARNING, Finding
from repro.lint.project import Project, SourceFile
from repro.lint.registry import rule

#: Logging-ish attribute names treated as logging calls on hot paths.
_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log"}
)
_LOG_ROOTS = frozenset({"log", "logger", "logging"})


def _hot_functions(project: Project) -> List[Tuple[FuncNode, "SourceFile"]]:
    """Hot functions that live in sim-critical files, with their files."""
    graph = project.callgraph()
    assert isinstance(graph, CallGraph)
    hot = hot_set(project, graph)
    by_path = {f.path: f for f in project.files}
    out: List[Tuple[FuncNode, SourceFile]] = []
    for qual in sorted(hot):
        func = graph.functions.get(qual)
        if func is None:
            continue
        f = by_path.get(func.path)
        if f is not None and project.sim_critical(f):
            out.append((func, f))
    return out


def _inside_raise_or_assert(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> bool:
    cur: Optional[ast.AST] = node
    while cur is not None:
        if isinstance(cur, (ast.Raise, ast.Assert)):
            return True
        cur = parents.get(cur)
    return False


def _parent_map(root: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(root):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


def _error_path_positions(func_node: ast.AST) -> "set":
    """(line, col) of calls inside ``raise``/``assert`` statements.

    Exception construction only runs when the event path already
    failed, so it is exempt from the per-event allocation rules — same
    policy as PERF004's f-string exemption.
    """
    parents = _parent_map(func_node)
    return {
        (node.lineno, node.col_offset)
        for node in ast.walk(func_node)
        if isinstance(node, ast.Call)
        and _inside_raise_or_assert(node, parents)
    }


@rule(
    "PERF001",
    severity=SEV_WARNING,
    summary=(
        "per-event allocation on the hot path (dict/dataclass "
        "construction, comprehensions) — reachable from Simulator.run"
    ),
)
def perf001_hot_allocation(project: Project) -> Iterator[Finding]:
    """Allocation inside functions the event loop runs per event.

    Dict literals/constructors, comprehensions and dataclass
    instantiation each allocate on every event; the kernel work (PR 7)
    got its wins precisely by hoisting these out of the loop. Findings
    here are costs to weigh, not bugs — fix, hoist, pool, or baseline.
    """
    graph = project.callgraph()
    assert isinstance(graph, CallGraph)
    for func, f in _hot_functions(project):
        qual = func.qualname
        error_path = _error_path_positions(func.node)
        parents = _parent_map(func.node)
        for node in ast.walk(func.node):
            if _inside_raise_or_assert(node, parents):
                continue
            if isinstance(node, ast.Dict) and node.keys:
                yield Finding(
                    "PERF001", SEV_WARNING, f.path, node.lineno,
                    node.col_offset,
                    f"dict literal allocated in hot function {qual}() "
                    "(reachable from Simulator.run); hoist or reuse it",
                )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
                kind = type(node).__name__
                yield Finding(
                    "PERF001", SEV_WARNING, f.path, node.lineno,
                    node.col_offset,
                    f"{kind} allocated in hot function {qual}() "
                    "(reachable from Simulator.run); hoist it out of the "
                    "per-event path",
                )
        for cls_qual, line, col in graph.instantiations.get(qual, ()):
            if (line, col) in error_path:
                continue
            cls = graph.classes.get(cls_qual)
            if cls is not None and cls.dataclass:
                yield Finding(
                    "PERF001", SEV_WARNING, f.path, line, col,
                    f"dataclass {cls.name} constructed in hot function "
                    f"{qual}(); dataclass __init__ is pure-Python "
                    "per-event overhead — use a pooled/slotted plain "
                    "class or reuse instances",
                )


@rule(
    "PERF002",
    severity=SEV_WARNING,
    summary=(
        "**kwargs signature or try/except block inside a hot function "
        "(per-event dict build / zero-cost-until-it-isn't handler)"
    ),
)
def perf002_hot_kwargs_try(project: Project) -> Iterator[Finding]:
    """Calling-convention and exception overhead on the event path."""
    for func, f in _hot_functions(project):
        qual = func.qualname
        args = getattr(func.node, "args", None)
        if args is not None and args.kwarg is not None:
            yield Finding(
                "PERF002", SEV_WARNING, f.path, func.lineno, 0,
                f"hot function {qual}() takes **{args.kwarg.arg}: every "
                "call builds a dict; use explicit parameters on the "
                "event path",
            )
        for node in ast.walk(func.node):
            if isinstance(node, ast.Try) and node.handlers:
                yield Finding(
                    "PERF002", SEV_WARNING, f.path, node.lineno,
                    node.col_offset,
                    f"try/except inside hot function {qual}(): exception "
                    "handlers on the per-event path hide costs and "
                    "mask bugs; hoist the guard or precheck",
                )


@rule(
    "PERF003",
    severity=SEV_WARNING,
    summary=(
        "un-slotted project class instantiated inside a hot function "
        "(per-event __dict__ allocation)"
    ),
)
def perf003_unslotted_hot_instantiation(project: Project) -> Iterator[Finding]:
    """Instances created per event should not carry a ``__dict__``."""
    graph = project.callgraph()
    assert isinstance(graph, CallGraph)
    for func, f in _hot_functions(project):
        qual = func.qualname
        error_path = _error_path_positions(func.node)
        for cls_qual, line, col in graph.instantiations.get(qual, ()):
            if (line, col) in error_path:
                continue
            cls = graph.classes.get(cls_qual)
            if cls is None or cls.has_slots:
                continue
            yield Finding(
                "PERF003", SEV_WARNING, f.path, line, col,
                f"class {cls.name} (no __slots__ through its ancestry) "
                f"instantiated in hot function {qual}(); each instance "
                "allocates a __dict__ on the per-event path",
            )


@rule(
    "PERF004",
    severity=SEV_WARNING,
    summary=(
        "f-string or logging call inside a hot function (string work "
        "per event; exception-path f-strings are exempt)"
    ),
)
def perf004_hot_string_work(project: Project) -> Iterator[Finding]:
    """String formatting per event, outside error paths.

    An f-string inside ``raise``/``assert`` only evaluates when things
    already went wrong, so those are exempt; everything else — log
    calls included, even at suppressed levels — pays argument
    formatting per event.
    """
    for func, f in _hot_functions(project):
        qual = func.qualname
        parents = _parent_map(func.node)
        for node in ast.walk(func.node):
            if isinstance(node, ast.JoinedStr):
                if _inside_raise_or_assert(node, parents):
                    continue
                yield Finding(
                    "PERF004", SEV_WARNING, f.path, node.lineno,
                    node.col_offset,
                    f"f-string built in hot function {qual}() outside an "
                    "error path; move formatting off the per-event path",
                )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                attr = node.func
                root = attr.value
                if (
                    attr.attr in _LOG_METHODS
                    and isinstance(root, ast.Name)
                    and root.id in _LOG_ROOTS
                ):
                    yield Finding(
                        "PERF004", SEV_WARNING, f.path, node.lineno,
                        node.col_offset,
                        f"logging call in hot function {qual}(): argument "
                        "evaluation happens per event even when the level "
                        "is suppressed; guard it or trace via the "
                        "null-hook tracer",
                    )

