"""Concurrency rules for the service/parallel runtimes: CON001–CON003.

The ``repro serve`` daemon and the supervised worker fleet rely on
three disciplines that earlier PRs documented in comments; these rules
enforce them structurally, using the whole-program call graph:

* **CON001** — an ``async def`` must never block the event loop: no
  ``time.sleep``, file/pipe I/O, or ``subprocess`` calls, neither
  directly nor through a sync helper it calls (the call graph carries
  blocking calls back through call edges; references handed to
  ``run_in_executor``/``to_thread`` are exactly the sanctioned escape
  and carry nothing).
* **CON002** — code reachable from a worker-*process* entry point
  (``Process(target=...)`` or a configured ``worker_main``) must not
  mutate module-level mutable state: the mutation happens in the
  child's copy, silently diverging from the parent — the classic
  "works serially, wrong under jobs=4" bug.
* **CON003** — state owned by the asyncio loop (instance attributes
  assigned inside ``async def`` methods) must not be written from
  thread context (functions reachable from ``Thread(target=...)`` /
  executor offloads) except via ``call_soon_threadsafe`` — the PR-9
  executor discipline, now enforced instead of documented.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.callgraph import (
    KIND_CALL,
    KIND_REF,
    KIND_SCHEDULED,
    CallGraph,
    FuncNode,
)
from repro.lint.findings import SEV_ERROR, Finding
from repro.lint.project import ImportTable, Project, SourceFile
from repro.lint.registry import rule

#: Resolved dotted names that block the calling thread.
_BLOCKING_PREFIXES = ("subprocess.", "requests.", "urllib.request.")
_BLOCKING_CALLS = frozenset({
    "time.sleep",
    "os.system", "os.popen", "os.read", "os.write", "os.fsync",
    "os.replace", "os.rename", "os.remove", "os.unlink",
    "os.makedirs", "os.mkdir",
    "socket.create_connection",
    "shutil.copy", "shutil.copytree", "shutil.rmtree", "shutil.move",
})
#: Attribute spellings that hit the filesystem no matter the receiver.
_BLOCKING_ATTRS = frozenset({
    "read_text", "read_bytes", "write_text", "write_bytes",
})
#: Mutating container methods (list/dict/set/deque).
_MUTATING_METHODS = frozenset({
    "append", "appendleft", "add", "update", "extend", "insert",
    "setdefault", "pop", "popleft", "popitem", "remove", "discard",
    "clear",
})


def _by_path(project: Project) -> Dict[str, SourceFile]:
    return {f.path: f for f in project.files}


def _blocking_sites(
    func: FuncNode, table: ImportTable
) -> List[Tuple[str, int, int]]:
    """Direct blocking calls inside one function body."""
    out: List[Tuple[str, int, int]] = []
    for node in ast.walk(func.node):
        if not isinstance(node, ast.Call):
            continue
        dotted = table.resolve(node.func)
        if dotted is not None and (
            dotted in _BLOCKING_CALLS
            or dotted.startswith(_BLOCKING_PREFIXES)
        ):
            out.append((f"{dotted}()", node.lineno, node.col_offset))
        elif isinstance(node.func, ast.Name) and node.func.id == "open":
            out.append(("open()", node.lineno, node.col_offset))
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _BLOCKING_ATTRS
        ):
            out.append((
                f".{node.func.attr}()", node.lineno, node.col_offset,
            ))
    return out


def _blocking_closure(
    graph: CallGraph, direct: Dict[str, List[Tuple[str, int, int]]]
) -> Set[str]:
    """Functions whose call closure (call edges only) blocks."""
    blocking = {q for q, sites in direct.items() if sites}
    changed = True
    while changed:
        changed = False
        for qual in graph.functions:
            if qual in blocking:
                continue
            for site in graph.calls.get(qual, ()):
                if site.kind == KIND_CALL and site.callee in blocking:
                    blocking.add(qual)
                    changed = True
                    break
    return blocking


@rule(
    "CON001",
    severity=SEV_ERROR,
    summary=(
        "blocking call (time.sleep / file or pipe I/O / subprocess) "
        "inside async def — directly or through a sync helper; "
        "offload via run_in_executor"
    ),
)
def con001_blocking_in_async(project: Project) -> Iterator[Finding]:
    """The event loop thread must never block.

    A blocked loop stalls every campaign's SSE stream, heartbeat and
    admission decision at once. Small writes feel free until the disk
    stalls; the sanctioned pattern is the PR-9 one — do the I/O on the
    executor thread and post completions back.
    """
    graph = project.callgraph()
    assert isinstance(graph, CallGraph)
    by_path = _by_path(project)
    direct: Dict[str, List[Tuple[str, int, int]]] = {}
    for qual, func in graph.functions.items():
        f = by_path.get(func.path)
        if f is not None:
            direct[qual] = _blocking_sites(func, f.imports)
    closure = _blocking_closure(graph, direct)

    for qual in sorted(graph.functions):
        func = graph.functions[qual]
        f = by_path.get(func.path)
        if f is None or not project.async_scope(f) or not func.is_async:
            continue
        for what, line, col in direct.get(qual, ()):
            yield Finding(
                "CON001", SEV_ERROR, func.path, line, col,
                f"blocking {what} inside async {func.name}(): the event "
                "loop stalls for its full duration; use asyncio.sleep / "
                "run_in_executor",
            )
        for site in graph.calls.get(qual, ()):
            if site.kind != KIND_CALL:
                continue
            callee = graph.functions.get(site.callee)
            if callee is None or callee.is_async:
                continue  # async callees are flagged at their own body
            if site.callee not in closure:
                continue
            chain = graph.chain(
                site.callee, {q for q, sites in direct.items() if sites}
            )
            via = " -> ".join(chain) if chain else site.callee
            first = next(
                (s for s in direct.get(chain[-1] if chain else "", ()) if s),
                None,
            )
            where = f" ({first[0]} at line {first[1]})" if first else ""
            yield Finding(
                "CON001", SEV_ERROR, func.path, site.line, site.col,
                f"async {func.name}() calls {site.callee}(), whose call "
                f"closure blocks: {via}{where}; offload it with "
                "run_in_executor",
            )


def _module_mutables(f: SourceFile) -> Dict[str, int]:
    """Module-level names bound to mutable containers → lineno."""
    out: Dict[str, int] = {}
    for node in f.tree.body:
        value: Optional[ast.expr] = None
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        if value is None:
            continue
        mutable = isinstance(value, (
            ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
            ast.SetComp,
        ))
        if not mutable and isinstance(value, ast.Call):
            fn = value.func
            name = fn.id if isinstance(fn, ast.Name) else (
                fn.attr if isinstance(fn, ast.Attribute) else ""
            )
            mutable = name in (
                "list", "dict", "set", "defaultdict", "deque", "Counter",
                "OrderedDict",
            )
        if not mutable:
            continue
        for tgt in targets:
            if isinstance(tgt, ast.Name) and not tgt.id.startswith("__"):
                out[tgt.id] = node.lineno
    return out


def _local_bindings(func_node: ast.AST) -> Set[str]:
    """Names bound locally in a function (params + assignments)."""
    out: Set[str] = set()
    args = getattr(func_node, "args", None)
    if args is not None:
        for a in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            out.add(a.arg)
        if args.vararg:
            out.add(args.vararg.arg)
        if args.kwarg:
            out.add(args.kwarg.arg)
    for node in ast.walk(func_node):
        if isinstance(node, ast.Assign):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    out.add(tgt.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(
            node.target, ast.Name
        ):
            out.add(node.target.id)
        elif isinstance(node, ast.Global):
            out.difference_update(node.names)
    return out


def _global_mutations(
    func: FuncNode, module_globals: Dict[str, int]
) -> List[Tuple[str, int, int]]:
    """Sites in ``func`` that mutate a module-level mutable global."""
    local = _local_bindings(func.node)
    declared_global: Set[str] = set()
    for node in ast.walk(func.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)

    def is_global(name: str) -> bool:
        if name not in module_globals:
            return False
        return name in declared_global or name not in local

    out: List[Tuple[str, int, int]] = []
    for node in ast.walk(func.node):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for tgt in targets:
                if (
                    isinstance(tgt, ast.Subscript)
                    and isinstance(tgt.value, ast.Name)
                    and is_global(tgt.value.id)
                ):
                    out.append((tgt.value.id, node.lineno, node.col_offset))
                elif isinstance(tgt, ast.Name) and tgt.id in declared_global \
                        and tgt.id in module_globals:
                    out.append((tgt.id, node.lineno, node.col_offset))
        elif isinstance(node, ast.Delete):
            for tgt in node.targets:
                if (
                    isinstance(tgt, ast.Subscript)
                    and isinstance(tgt.value, ast.Name)
                    and is_global(tgt.value.id)
                ):
                    out.append((tgt.value.id, node.lineno, node.col_offset))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            recv = node.func.value
            if (
                node.func.attr in _MUTATING_METHODS
                and isinstance(recv, ast.Name)
                and is_global(recv.id)
            ):
                out.append((recv.id, node.lineno, node.col_offset))
    return out


def _worker_roots(project: Project, graph: CallGraph) -> Set[str]:
    roots = set(graph.process_entries)
    names = project.config.worker_entry_names
    for qual, func in graph.functions.items():
        if func.name in names:
            roots.add(qual)
    return roots


@rule(
    "CON002",
    severity=SEV_ERROR,
    summary=(
        "module-level mutable state mutated by code reachable from a "
        "worker-process entry point — the write lands in the child's "
        "copy and silently diverges from the parent"
    ),
)
def con002_worker_global_mutation(project: Project) -> Iterator[Finding]:
    """Worker processes must treat module state as read-only."""
    graph = project.callgraph()
    assert isinstance(graph, CallGraph)
    by_path = _by_path(project)
    roots = _worker_roots(project, graph)
    if not roots:
        return
    # Refs escape into the worker too (callbacks shipped to it), so the
    # closure follows call, scheduled *and* plain ref edges.
    reachable = graph.reachable(
        roots, kinds=frozenset({KIND_CALL, KIND_SCHEDULED, KIND_REF})
    )
    globals_by_path: Dict[str, Dict[str, int]] = {}
    for qual in sorted(reachable):
        func = graph.functions.get(qual)
        if func is None:
            continue
        f = by_path.get(func.path)
        if f is None:
            continue
        if func.path not in globals_by_path:
            globals_by_path[func.path] = _module_mutables(f)
        for name, line, col in _global_mutations(func, globals_by_path[func.path]):
            yield Finding(
                "CON002", SEV_ERROR, func.path, line, col,
                f"{func.qualname}() mutates module-level {name!r} and is "
                "reachable from a worker-process entry point: the write "
                "happens in the worker's copy only; pass state through "
                "the cell protocol instead",
            )


@rule(
    "CON003",
    severity=SEV_ERROR,
    summary=(
        "asyncio loop-owned instance state written from thread context "
        "without call_soon_threadsafe (the serve executor discipline)"
    ),
)
def con003_off_loop_state_write(project: Project) -> Iterator[Finding]:
    """Loop-owned attributes are written on the loop, full stop.

    An attribute a class assigns inside ``async def`` methods is loop
    state. Plain methods reachable from thread entry points
    (``Thread(target=...)``, executor offloads) may read it, but a
    write needs ``loop.call_soon_threadsafe`` — functions posted that
    way run on the loop and are exempt.
    """
    graph = project.callgraph()
    assert isinstance(graph, CallGraph)
    by_path = _by_path(project)

    # (class qualname, attr) pairs assigned inside async defs, per
    # async-package class.
    loop_owned: Set[Tuple[str, str]] = set()
    for qual, func in graph.functions.items():
        f = by_path.get(func.path)
        if f is None or not project.async_scope(f):
            continue
        if not func.is_async or func.cls is None:
            continue
        for node in ast.walk(func.node):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for tgt in targets:
                if (
                    isinstance(tgt, ast.Attribute)
                    and isinstance(tgt.value, ast.Name)
                    and tgt.value.id == "self"
                ):
                    loop_owned.add((func.cls, tgt.attr))
    if not loop_owned:
        return

    thread_ctx = graph.reachable(
        graph.thread_entries,
        kinds=frozenset({KIND_CALL, KIND_REF}),
    ) - graph.loop_posted

    for qual in sorted(thread_ctx):
        func = graph.functions.get(qual)
        if func is None or func.cls is None or func.is_async:
            continue
        if qual in graph.loop_posted:
            continue
        f = by_path.get(func.path)
        if f is None or not project.async_scope(f):
            continue
        for node in ast.walk(func.node):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for tgt in targets:
                if not (
                    isinstance(tgt, ast.Attribute)
                    and isinstance(tgt.value, ast.Name)
                    and tgt.value.id == "self"
                ):
                    continue
                if (func.cls, tgt.attr) not in loop_owned:
                    continue
                yield Finding(
                    "CON003", SEV_ERROR, func.path, node.lineno,
                    node.col_offset,
                    f"{func.qualname}() runs in thread context but "
                    f"writes self.{tgt.attr}, which async methods of "
                    f"the same class also write — post the update "
                    "through loop.call_soon_threadsafe instead",
                )
