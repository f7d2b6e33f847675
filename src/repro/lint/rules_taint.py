"""Determinism: DET001/DET002 and the interprocedural taint DET101–DET103.

One scan (:func:`_analysis`) walks every linted file once and records
its **nondeterminism sources** — raw ``random``/``numpy.random`` draws,
wall-clock reads, ``id()``, ``os.environ``/``os.getenv`` reads,
unordered-``set`` iteration — each under the function whose body holds
it, or under its module when no function the call graph knows holds
it (module and class bodies, redefined names). Every rule here reads
that scan:

* **DET001/DET002** flag the raw draws and wall-clock reads the scan
  found in sim-critical files, wherever in the file they sit.
* **DET101–DET103** see through calls. The per-file rules stop at
  module boundaries: a ``time.time()`` buried in a shared utility
  escapes them the moment the utility lives outside a sim-critical
  package, even though a sim-critical caller feeds the read straight
  into the event schedule. So function sources propagate backwards
  over call and scheduled-callback edges of the whole-program call
  graph (a tainted helper taints everyone who invokes it, and a
  tainted event callback taints the schedule), and a finding fires at
  the **boundary call site** — the edge where a sim-critical caller
  invokes a callee *outside* the sim-critical zone whose closure
  contains a source. Sources inside sim-critical files are
  DET001/DET002's business, so the taint rules report each escaping
  chain exactly once, at the edge where it leaves the zone the
  per-file rules can see.

Messages carry the offending chain (``helper.now_ms → time.time at
util/clock.py:12``) so the fix — threading virtual time / a seeded
stream through the helper — is obvious from the finding alone.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import Container, Dict, FrozenSet, Iterable, Iterator, List, Set

from repro.lint.callgraph import KIND_CALL, KIND_SCHEDULED, CallGraph
from repro.lint.findings import SEV_ERROR, Finding
from repro.lint.project import Project, SourceFile
from repro.lint.registry import rule
from repro.lint.rules_determinism import (
    _iterated,
    _set_assigned_names,
    _unordered_iter,
)

# numpy.random attributes that only *construct seeded machinery* and
# never draw — explicit-seed plumbing is exactly what engine.rng does.
_SAFE_NP_RANDOM = frozenset(
    {"SeedSequence", "BitGenerator", "PCG64", "PCG64DXSM", "MT19937",
     "Philox", "SFC64"}
)

# Wall-clock reads (resolved dotted names). ``time.process_time`` and
# CLOCK_* reads count too: any host-machine clock on the event path
# couples simulated behavior to scheduler noise.
_WALLCLOCK = frozenset(
    {"time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
     "time.perf_counter", "time.perf_counter_ns", "time.process_time",
     "time.process_time_ns", "time.clock_gettime", "time.clock_gettime_ns",
     "datetime.datetime.now", "datetime.datetime.utcnow",
     "datetime.datetime.today", "datetime.date.today"}
)

#: Taint kinds.
K_RANDOM = "random"
K_WALLCLOCK = "wallclock"
K_OTHER = "other"  # id() / os.environ / unordered-set iteration

_TAINT_EDGE_KINDS = frozenset({KIND_CALL, KIND_SCHEDULED})


@dataclass(frozen=True)
class TaintSource:
    """One direct nondeterminism source in a file."""

    kind: str
    what: str
    #: Qualname of the enclosing function ("" outside every function).
    func: str
    path: str
    line: int
    col: int


def _scan(
    nodes: Iterable[ast.AST], f: SourceFile, func: str, set_names: Set[str]
) -> List[TaintSource]:
    """The sources among ``nodes`` (iteration sites listed last)."""
    table = f.imports
    found: List[TaintSource] = []
    iterations: List[TaintSource] = []

    def add(kind: str, what: str, node: ast.expr) -> None:
        found.append(TaintSource(
            kind, what, func, f.path, node.lineno, node.col_offset,
        ))

    for node in nodes:
        if isinstance(node, ast.Call):
            dotted = table.resolve(node.func)
            if dotted is None:
                if isinstance(node.func, ast.Name) and node.func.id == "id":
                    add(K_OTHER, "id()", node)
            elif dotted.startswith("random."):
                add(K_RANDOM, f"{dotted}()", node)
            elif dotted.startswith("numpy.random."):
                if dotted.split(".")[-1] not in _SAFE_NP_RANDOM:
                    add(K_RANDOM, f"{dotted}()", node)
            elif dotted in _WALLCLOCK:
                add(K_WALLCLOCK, f"{dotted}()", node)
            elif dotted in ("os.getenv", "os.environ.get"):
                add(K_OTHER, f"{dotted}()", node)
        elif isinstance(node, ast.Subscript):
            if table.resolve(node.value) == "os.environ":
                add(K_OTHER, "os.environ[...]", node)
        for expr in _iterated(node):
            why = _unordered_iter(expr, set_names)
            if why is not None:
                iterations.append(TaintSource(
                    K_OTHER, f"iteration over {why}", func, f.path,
                    expr.lineno, expr.col_offset,
                ))
    return found + iterations


def _walk_outside(
    tree: ast.AST, owned: Container[ast.AST]
) -> Iterator[ast.AST]:
    """``ast.walk`` that does not enter the ``owned`` subtrees."""
    todo = deque([tree])
    while todo:
        node = todo.popleft()
        yield node
        todo.extend(c for c in ast.iter_child_nodes(node) if c not in owned)


def _closures(
    graph: CallGraph, direct: Dict[str, List[TaintSource]]
) -> Dict[str, FrozenSet[str]]:
    """Fixpoint: the taint-kind closure of every function."""
    closure: Dict[str, Set[str]] = {
        q: {s.kind for s in direct.get(q, ())} for q in graph.functions
    }
    changed = True
    while changed:
        changed = False
        for qual in graph.functions:
            kinds = closure[qual]
            before = len(kinds)
            for site in graph.calls.get(qual, ()):
                if site.kind in _TAINT_EDGE_KINDS and site.callee in closure:
                    kinds |= closure[site.callee]
            if len(kinds) != before:
                changed = True
    return {q: frozenset(k) for q, k in closure.items()}


def _in_sim_critical(
    project: Project, by_path: Dict[str, SourceFile], path: str
) -> bool:
    f = by_path.get(path)
    return f is not None and project.sim_critical(f)


@dataclass
class _TaintAnalysis:
    """The per-run scan and taint computation every rule here shares."""

    graph: CallGraph
    #: Function qualname → the sources in its body.
    direct: Dict[str, List[TaintSource]]
    #: Sources outside every function of the call graph.
    module_level: List[TaintSource]
    #: Per-function closure over *escaping* sources only — sources
    #: defined outside sim-critical files, i.e. the ones DET001/DET002
    #: cannot see. Boundary findings key off this closure.
    escaping_closures: Dict[str, FrozenSet[str]]
    escaping: Dict[str, List[TaintSource]]
    by_path: Dict[str, SourceFile]

    def sources(self, kind: str) -> Iterator[TaintSource]:
        """Every source of ``kind``, in and outside functions."""
        for srcs in [self.module_level, *self.direct.values()]:
            yield from (s for s in srcs if s.kind == kind)


def _analysis(project: Project) -> _TaintAnalysis:
    cached = getattr(project, "_taint_analysis", None)
    if cached is not None:
        return cached  # type: ignore[no-any-return]
    graph = project.callgraph()
    assert isinstance(graph, CallGraph)
    by_path = {f.path: f for f in project.files}
    owned: Dict[str, Dict[ast.AST, str]] = {}
    for qual, func in graph.functions.items():
        owned.setdefault(func.path, {})[func.node] = qual
    direct: Dict[str, List[TaintSource]] = {}
    module_level: List[TaintSource] = []
    for f in project.files:
        set_names = _set_assigned_names(f.tree)
        funcs = owned.get(f.path, {})
        for node, qual in funcs.items():
            if srcs := _scan(ast.walk(node), f, qual, set_names):
                direct[qual] = srcs
        module_level += _scan(
            _walk_outside(f.tree, funcs), f, "", set_names
        )
    escaping = {
        qual: kept
        for qual, srcs in direct.items()
        if (kept := [
            s for s in srcs
            if not _in_sim_critical(project, by_path, s.path)
        ])
    }
    analysis = _TaintAnalysis(
        graph=graph,
        direct=direct,
        module_level=module_level,
        escaping_closures=_closures(graph, escaping),
        escaping=escaping,
        by_path=by_path,
    )
    # Cached on the Project object: every rule here shares one
    # whole-program pass per lint run.
    project._taint_analysis = analysis  # type: ignore[attr-defined]
    return analysis


def _describe_chain(
    analysis: _TaintAnalysis, callee: str, kind: str
) -> str:
    """Human chain from ``callee`` to the nearest escaping source."""
    tainted = {
        q for q, srcs in analysis.escaping.items()
        if any(s.kind == kind for s in srcs)
    }
    chain = analysis.graph.chain(callee, tainted)
    if not chain:
        return callee
    source = next(
        s for s in analysis.escaping[chain[-1]] if s.kind == kind
    )
    hops = " -> ".join(chain)
    return f"{hops} -> {source.what} at {source.path}:{source.line}"


def _boundary_findings(
    project: Project, kind: str, rule_id: str, severity: str, advice: str,
    *, caller_exempt: str = "",
) -> Iterator[Finding]:
    """Findings at sim-critical call sites whose callee closure carries
    ``kind`` taint originating *outside* the sim-critical zone."""
    analysis = _analysis(project)
    graph = analysis.graph
    for qual, func in graph.functions.items():
        caller_file = analysis.by_path.get(func.path)
        if caller_file is None or not project.sim_critical(caller_file):
            continue
        if caller_exempt == "wallclock" and project.wallclock_allowed(caller_file):
            continue
        if caller_exempt == "rng" and project.rng_blessed(caller_file):
            continue
        for site in graph.calls.get(qual, ()):
            if site.kind not in _TAINT_EDGE_KINDS:
                continue
            callee = graph.functions.get(site.callee)
            if callee is None:
                continue
            # Boundary edge: callee lives outside the sim-critical
            # zone (inside it, DET001/DET002 see the source directly),
            # and its closure carries a source the per-file rules
            # cannot flag — one defined outside sim-critical files.
            if _in_sim_critical(project, analysis.by_path, callee.path):
                continue
            if kind not in analysis.escaping_closures.get(
                site.callee, frozenset()
            ):
                continue
            chain = _describe_chain(analysis, site.callee, kind)
            yield Finding(
                rule_id, severity, func.path, site.line, site.col,
                f"call into {site.callee}() carries {kind} "
                f"nondeterminism into sim-critical code "
                f"(via {chain}); {advice}",
            )


@rule(
    "DET001",
    severity=SEV_ERROR,
    summary=(
        "raw random.* / numpy.random draw or generator construction in a "
        "sim-critical package; route randomness through "
        "repro.engine.rng.RngRegistry"
    ),
)
def det001_raw_random(project: Project) -> Iterator[Finding]:
    """No untracked randomness on the event path.

    Flags every call into the stdlib ``random`` module and every
    ``numpy.random`` call except pure seeded-machinery constructors
    (``SeedSequence``/bit generators). Constructing an
    ``np.random.Generator`` directly is flagged too — outside the
    blessed :mod:`repro.engine.rng` module a local generator bypasses
    the keyed-stream registry that keeps draws stable as the code
    evolves (a justified, documented ``# simlint: disable=DET001``
    pragma is the escape hatch).
    """
    analysis = _analysis(project)
    for src in analysis.sources(K_RANDOM):
        f = analysis.by_path[src.path]
        if not project.sim_critical(f) or project.rng_blessed(f):
            continue
        if src.what.startswith("random."):
            message = (
                f"call to stdlib {src.what} in sim-critical code; use a "
                "seeded stream from repro.engine.rng.RngRegistry"
            )
        else:
            message = (
                f"call to {src.what} in sim-critical code; draw from a "
                "keyed repro.engine.rng.RngRegistry stream instead"
            )
        yield Finding("DET001", SEV_ERROR, src.path, src.line, src.col, message)


@rule(
    "DET002",
    severity=SEV_ERROR,
    summary=(
        "wall-clock read (time.*/datetime.now) on the event path; real "
        "time is allowed only in telemetry packages"
    ),
)
def det002_wall_clock(project: Project) -> Iterator[Finding]:
    """No host-clock reads inside sim-critical packages."""
    analysis = _analysis(project)
    for src in analysis.sources(K_WALLCLOCK):
        f = analysis.by_path[src.path]
        if not project.sim_critical(f) or project.wallclock_allowed(f):
            continue
        yield Finding(
            "DET002", SEV_ERROR, src.path, src.line, src.col,
            f"wall-clock read {src.what} on the event path; virtual "
            "time comes from the simulator, telemetry belongs in "
            "parallel/experiments",
        )


@rule(
    "DET101",
    severity=SEV_ERROR,
    summary=(
        "sim-critical call into a helper whose call closure draws raw "
        "random/numpy.random numbers (interprocedural DET001)"
    ),
)
def det101_random_taint(project: Project) -> Iterator[Finding]:
    """Raw randomness reached through helper calls, across files."""
    yield from _boundary_findings(
        project, K_RANDOM, "DET101", SEV_ERROR,
        "route the helper's randomness through a seeded "
        "repro.engine.rng.RngRegistry stream",
        caller_exempt="rng",
    )


@rule(
    "DET102",
    severity=SEV_ERROR,
    summary=(
        "sim-critical call into a helper whose call closure reads the "
        "wall clock (interprocedural DET002)"
    ),
)
def det102_wallclock_taint(project: Project) -> Iterator[Finding]:
    """Wall-clock reads reached through helper calls, across files."""
    yield from _boundary_findings(
        project, K_WALLCLOCK, "DET102", SEV_ERROR,
        "thread virtual time (sim.now) into the helper instead of "
        "letting it read host clocks",
        caller_exempt="wallclock",
    )


@rule(
    "DET103",
    severity=SEV_ERROR,
    summary=(
        "order/identity nondeterminism (id(), os.environ reads, "
        "unordered-set iteration) on the event path — directly or "
        "through helper calls"
    ),
)
def det103_other_taint(project: Project) -> Iterator[Finding]:
    """Identity/environment/iteration-order nondeterminism on the path.

    Unlike randomness and wall clocks, these sources have no per-file
    error rule, so DET103 flags *direct* uses inside sim-critical files
    too, not just escaped helper chains: ``id()`` values change per
    process (breaking any ordering or hashing built on them),
    ``os.environ`` reads couple behavior to launcher state, and set
    iteration order follows hash seeds.
    """
    analysis = _analysis(project)
    # Direct uses inside sim-critical files (except set iteration,
    # which DET003 already reports per file with better context).
    for qual, sources in sorted(analysis.direct.items()):
        func = analysis.graph.functions.get(qual)
        if func is None:
            continue
        f = analysis.by_path.get(func.path)
        if f is None or not project.sim_critical(f):
            continue
        for src in sources:
            if src.kind != K_OTHER or src.what.startswith("iteration over"):
                continue
            yield Finding(
                "DET103", SEV_ERROR, func.path, src.line, 0,
                f"{src.what} in sim-critical code: the value depends on "
                "process/launcher state, not simulation inputs; pass it "
                "in as explicit configuration",
            )
    yield from _boundary_findings(
        project, K_OTHER, "DET103", SEV_ERROR,
        "make the helper take its inputs explicitly (no process "
        "identity, environment reads, or hash-order iteration)",
    )
