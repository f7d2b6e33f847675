"""Whole-program symbol table + call graph for simlint.

The per-file rules stop at module boundaries; the concurrency rules
(CON001–CON003) need to see *through* calls — a blocking helper called
from ``async def``, a module global mutated three calls below a
worker entry point — so this module builds, once per lint run:

* a **symbol table** — every module, top-level function, class (with
  methods, resolved base classes and inferred instance-attribute
  types) and module-level alias in the linted tree, addressable by
  dotted qualname;
* a **call graph** — for every function, the resolved call sites in
  its body, each tagged with how the callee is reached:

  ========== =========================================================
  ``call``    direct invocation (``f()``, ``mod.f()``, ``self.m()``,
              ``obj.m()`` on an inferred type, ``Class()`` →
              ``Class.__init__``)
  ``ref``     a function reference passed as an argument — it may be
              invoked by the receiver
  ``scheduled`` a reference passed to a ``schedule``/``schedule_at``
              call: the event loop *will* invoke it (in whichever
              process runs the simulator)
  ``thread``  a reference passed as ``target=`` to a ``Thread`` (or an
              ``run_in_executor``/``to_thread`` argument): it runs off
              the event loop
  ``process`` a reference passed as ``target=`` to a ``Process``: a
              worker-process entry point
  ``loop``    a reference posted via ``call_soon_threadsafe`` — it
              runs *on* the loop even though the post happens off it
  ========== =========================================================

Resolution is deliberately an under-approximation (an unresolvable
call contributes no edge): the whole-program rules promise "what they
flag is real", not "they flag everything". Module names are derived
from the walk root (``src/repro/engine/rng.py`` → ``repro.engine.rng``;
a fixture tree rooted at ``tmp/`` gets ``engine.rng``), and imported
dotted names are matched against project modules by longest dotted
suffix, so the same analysis works on the shipped tree and on the
sandboxed fixture trees the test suite builds.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from repro.lint.project import Project, SourceFile

#: Call-site kinds (see module docstring).
KIND_CALL = "call"
KIND_REF = "ref"
KIND_SCHEDULED = "scheduled"
KIND_THREAD = "thread"
KIND_PROCESS = "process"
KIND_LOOP = "loop"

#: Attribute/function names that schedule an event-loop callback.
_SCHEDULE_NAMES = frozenset({"schedule", "schedule_at"})
#: Constructor names whose ``target=`` kwarg is a thread entry point.
_THREAD_CTORS = frozenset({"Thread", "Timer"})
#: Constructor names whose ``target=`` kwarg is a process entry point.
_PROCESS_CTORS = frozenset({"Process"})
#: Call names whose function arguments run on an executor thread.
_OFFLOAD_NAMES = frozenset({"run_in_executor", "to_thread"})
#: Call names whose function arguments run on the asyncio loop.
_LOOP_POST_NAMES = frozenset({"call_soon_threadsafe"})


@dataclass
class CallSite:
    """One resolved callee reference inside a function body."""

    callee: str
    line: int
    col: int
    kind: str = KIND_CALL


@dataclass
class FuncNode:
    """One function or method in the linted tree."""

    qualname: str
    module: str
    name: str
    cls: Optional[str]
    path: str
    node: ast.AST
    is_async: bool = False

    @property
    def lineno(self) -> int:
        return int(getattr(self.node, "lineno", 1))


@dataclass
class ClassNode:
    """One class definition plus what the rules need to judge it."""

    qualname: str
    module: str
    name: str
    path: str
    node: ast.ClassDef
    #: Resolved project base-class qualnames (unresolvable bases dropped).
    bases: List[str] = field(default_factory=list)
    #: ``self.attr`` → inferred project class qualname.
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: method name → function qualname.
    methods: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Per-module symbol bindings."""

    name: str
    path: str
    #: local name → dotted target ("repro.engine.rng" for module
    #: imports, "repro.engine.rng.RngRegistry" for from-imports,
    #: a project qualname for top-level defs/classes/aliases).
    bindings: Dict[str, str] = field(default_factory=dict)


def module_name_for(path: str, root: str) -> str:
    """Dotted module name of ``path`` relative to the walk ``root``.

    A ``src`` segment anywhere in the path restarts the module path
    (the conventional layout marker), so explicit file arguments like
    ``src/repro/engine/rng.py`` still resolve to ``repro.engine.rng``.
    ``__init__`` maps to its package name.
    """
    import os

    rel = os.path.relpath(path, root) if root else path
    parts = [p for p in rel.replace("\\", "/").split("/") if p not in ("", ".")]
    full = [p for p in path.replace("\\", "/").split("/") if p]
    if "src" in full:
        parts = full[len(full) - 1 - full[::-1].index("src"):][1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class CallGraph:
    """The resolved whole-program view (build via :func:`build_callgraph`)."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FuncNode] = {}
        self.classes: Dict[str, ClassNode] = {}
        self.calls: Dict[str, List[CallSite]] = {}
        #: Thread / worker-process entry points and loop-posted callbacks.
        self.thread_entries: Set[str] = set()
        self.process_entries: Set[str] = set()
        self.loop_posted: Set[str] = set()

    # -- symbol resolution ---------------------------------------------

    def resolve_module(self, dotted: str) -> Optional[str]:
        """Project module matching ``dotted`` by longest dotted suffix."""
        if dotted in self.modules:
            return dotted
        parts = dotted.split(".")
        for start in range(1, len(parts)):
            cand = ".".join(parts[start:])
            if cand in self.modules:
                return cand
        return None

    def resolve_symbol(self, dotted: str) -> Optional[str]:
        """Resolve a dotted name to a function/class/method qualname."""
        if dotted in self.functions or dotted in self.classes:
            return dotted
        # Split into (module, attr...) at every boundary, longest first.
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = self.resolve_module(".".join(parts[:cut]))
            if mod is None:
                continue
            attrs = parts[cut:]
            return self._resolve_in_module(mod, attrs)
        return None

    def _resolve_in_module(self, mod: str, attrs: List[str]) -> Optional[str]:
        info = self.modules.get(mod)
        if info is None or not attrs:
            return None
        target = info.bindings.get(attrs[0])
        if target is None:
            return None
        resolved = self._chase(target)
        for attr in attrs[1:]:
            if resolved in self.classes:
                method = self.lookup_method(resolved, attr)
                if method is None:
                    return None
                resolved = method
            else:
                return None
        return resolved

    def _chase(self, target: str) -> str:
        """Follow alias bindings until a concrete symbol (or give up)."""
        seen = set()
        while target not in self.functions and target not in self.classes:
            if target in seen:
                break
            seen.add(target)
            sym = None
            parts = target.split(".")
            for cut in range(len(parts) - 1, 0, -1):
                mod = self.resolve_module(".".join(parts[:cut]))
                if mod is not None:
                    info = self.modules[mod]
                    bound = info.bindings.get(parts[cut])
                    if bound is not None and bound != target:
                        rest = parts[cut + 1:]
                        sym = ".".join([bound, *rest]) if rest else bound
                    break
            if sym is None:
                break
            target = sym
        return target

    def lookup_method(self, class_qual: str, name: str) -> Optional[str]:
        """Resolve ``name`` on ``class_qual`` walking project bases."""
        seen: Set[str] = set()
        stack = [class_qual]
        while stack:
            cq = stack.pop(0)
            if cq in seen:
                continue
            seen.add(cq)
            cls = self.classes.get(cq)
            if cls is None:
                continue
            if name in cls.methods:
                return cls.methods[name]
            stack.extend(cls.bases)
        return None

    # -- graph queries --------------------------------------------------

    def reachable(
        self,
        roots: Iterable[str],
        kinds: FrozenSet[str] = frozenset({KIND_CALL}),
    ) -> Set[str]:
        """Closure of ``roots`` over call sites of the given kinds."""
        out: Set[str] = set()
        queue = deque(r for r in roots if r in self.functions)
        while queue:
            fn = queue.popleft()
            if fn in out:
                continue
            out.add(fn)
            for site in self.calls.get(fn, ()):
                if site.kind in kinds and site.callee not in out:
                    queue.append(site.callee)
        return out

    def chain(
        self,
        start: str,
        targets: Set[str],
    ) -> List[str]:
        """Shortest call-edge chain from ``start`` to any of ``targets``."""
        parent: Dict[str, Optional[str]] = {start: None}
        queue = deque([start])
        hit: Optional[str] = start if start in targets else None
        while queue and hit is None:
            fn = queue.popleft()
            for site in self.calls.get(fn, ()):
                if site.kind != KIND_CALL or site.callee in parent:
                    continue
                parent[site.callee] = fn
                if site.callee in targets:
                    hit = site.callee
                    break
                queue.append(site.callee)
        if hit is None:
            return []
        out = []
        cur: Optional[str] = hit
        while cur is not None:
            out.append(cur)
            cur = parent[cur]
        return list(reversed(out))


# ---------------------------------------------------------------------------
# construction


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` expression → ``"a.b.c"`` (None for anything else)."""
    chain: List[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    chain.append(node.id)
    return ".".join(reversed(chain))


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """A plain/dotted annotation → dotted string (Optional[...] etc. ignored)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return _dotted(node)


def _collect_module(f: SourceFile, module: str) -> ModuleInfo:
    """First pass: bindings introduced at module top level."""
    info = ModuleInfo(name=module, path=f.path)
    pkg_parts = module.split(".") if module else []
    for node in f.tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                info.bindings[local] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base: Optional[str]
            if node.level:
                # Relative import: resolve against this module's package.
                up = len(pkg_parts) - node.level
                if up < 0:
                    continue
                prefix = pkg_parts[:up]
                base = ".".join(prefix + ([node.module] if node.module else []))
            else:
                base = node.module
            if not base:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.bindings[local] = f"{base}.{alias.name}"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.bindings[node.name] = f"{module}.{node.name}" if module else node.name
        elif isinstance(node, ast.ClassDef):
            info.bindings[node.name] = f"{module}.{node.name}" if module else node.name
        elif isinstance(node, ast.Assign) and isinstance(node.value, (ast.Name, ast.Attribute)):
            # Module-level alias: ``fast_lft = _lft_direct``. Resolve
            # the head through bindings collected so far, so an alias
            # of a from-import (``fast = h``) lands on the import's
            # dotted target rather than a bare local name.
            target_dotted = _dotted(node.value)
            if target_dotted is None:
                continue
            head, *rest = target_dotted.split(".")
            bound_head = info.bindings.get(head)
            if bound_head is not None and bound_head != target_dotted:
                target_dotted = ".".join([bound_head, *rest])
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    info.bindings.setdefault(tgt.id, target_dotted)
    return info


class _FunctionScanner(ast.NodeVisitor):
    """Second pass: resolve the call sites inside one function body."""

    def __init__(
        self,
        graph: CallGraph,
        mod: ModuleInfo,
        func: FuncNode,
        local_types: Dict[str, str],
    ) -> None:
        self.graph = graph
        self.mod = mod
        self.func = func
        self.local_types = local_types
        self.sites: List[CallSite] = []

    # Nested defs/lambdas are attributed to the enclosing function:
    # their bodies execute (if at all) on behalf of this node, which is
    # the sound over-approximation for reachability.

    def _resolve_expr(self, node: ast.AST) -> Optional[str]:
        """Resolve an expression to a project function/class qualname."""
        graph, mod = self.graph, self.mod
        if isinstance(node, ast.Name):
            bound = mod.bindings.get(node.id)
            if bound is None:
                return None
            sym = graph._chase(bound)
            if sym in graph.functions or sym in graph.classes:
                return sym
            return graph.resolve_symbol(bound)
        if not isinstance(node, ast.Attribute):
            return None
        # self.attr... chains.
        root = node
        chain: List[str] = []
        while isinstance(root, ast.Attribute):
            chain.append(root.attr)
            root = root.value
        chain.reverse()
        if isinstance(root, ast.Name):
            if root.id == "self" and self.func.cls is not None:
                return self._resolve_on_class(self.func.cls, chain)
            # Locally-typed variable: ``hca = Hca(...); hca.on_packet``.
            var_type = self.local_types.get(root.id)
            if var_type is not None:
                return self._resolve_on_class(var_type, chain)
            dotted = _dotted(node)
            if dotted is not None:
                bound = mod.bindings.get(dotted.split(".")[0])
                if bound is not None:
                    rest = dotted.split(".")[1:]
                    return graph.resolve_symbol(".".join([bound, *rest]))
        return None

    def _resolve_on_class(self, class_qual: str, chain: List[str]) -> Optional[str]:
        graph = self.graph
        cur = class_qual
        for i, attr in enumerate(chain):
            cls = graph.classes.get(cur)
            if cls is None:
                return None
            last = i == len(chain) - 1
            method = graph.lookup_method(cur, attr)
            if method is not None:
                return method if last else None
            attr_type = self._attr_type(cur, attr)
            if attr_type is None:
                return None
            if last:
                return attr_type if attr_type in graph.classes else None
            cur = attr_type
        return None

    def _attr_type(self, class_qual: str, attr: str) -> Optional[str]:
        seen: Set[str] = set()
        stack = [class_qual]
        while stack:
            cq = stack.pop(0)
            if cq in seen:
                continue
            seen.add(cq)
            cls = self.graph.classes.get(cq)
            if cls is None:
                continue
            if attr in cls.attr_types:
                return cls.attr_types[attr]
            stack.extend(cls.bases)
        return None

    def _add(self, callee: str, node: ast.AST, kind: str) -> None:
        self.sites.append(CallSite(
            callee=callee,
            line=int(getattr(node, "lineno", self.func.lineno)),
            col=int(getattr(node, "col_offset", 0)),
            kind=kind,
        ))

    def visit_Assign(self, node: ast.Assign) -> None:
        # Local type inference: ``v = ClassName(...)``.
        if isinstance(node.value, ast.Call):
            target = self._resolve_expr(node.value.func)
            if target in self.graph.classes:
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        self.local_types[tgt.id] = str(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        ann = _annotation_name(node.annotation)
        if ann is not None and isinstance(node.target, ast.Name):
            sym = self.graph.resolve_symbol(ann) or self.mod.bindings.get(ann)
            if sym in self.graph.classes:
                self.local_types[node.target.id] = str(sym)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        graph = self.graph
        target = self._resolve_expr(node.func)
        attr_name = node.func.attr if isinstance(node.func, ast.Attribute) else (
            node.func.id if isinstance(node.func, ast.Name) else ""
        )
        if target is not None:
            if target in graph.classes:
                init = graph.lookup_method(target, "__init__")
                if init is not None:
                    self._add(init, node, KIND_CALL)
            else:
                self._add(target, node, KIND_CALL)

        # Classify function references handed to this call.
        ref_kind = KIND_REF
        if attr_name in _SCHEDULE_NAMES:
            ref_kind = KIND_SCHEDULED
        elif attr_name in _OFFLOAD_NAMES:
            ref_kind = KIND_THREAD
        elif attr_name in _LOOP_POST_NAMES:
            ref_kind = KIND_LOOP
        elif attr_name in _THREAD_CTORS or attr_name in _PROCESS_CTORS:
            ctor_kind = (
                KIND_THREAD if attr_name in _THREAD_CTORS else KIND_PROCESS
            )
            for kw in node.keywords:
                if kw.arg == "target":
                    ref = self._resolve_expr(kw.value)
                    if ref in graph.functions:
                        self._add(str(ref), kw.value, ctor_kind)
            self.generic_visit(node)
            return

        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            ref = self._resolve_expr(arg)
            if ref in graph.functions:
                self._add(str(ref), arg, ref_kind)
        self.generic_visit(node)


def _scan_class_attr_types(
    graph: CallGraph, mod: ModuleInfo, cls: ClassNode
) -> None:
    """Infer ``self.attr`` project-class types from the class body."""
    def resolve_class(expr: ast.AST) -> Optional[str]:
        dotted = _dotted(expr)
        if dotted is None:
            return None
        parts = dotted.split(".")
        bound = mod.bindings.get(parts[0])
        if bound is None:
            return None
        sym = graph.resolve_symbol(".".join([bound, *parts[1:]]))
        return sym if sym in graph.classes else None

    for stmt in ast.walk(cls.node):
        if isinstance(stmt, ast.AnnAssign):
            target = stmt.target
            ann = _annotation_name(stmt.annotation)
            if ann is None:
                continue
            sym = graph.resolve_symbol(ann)
            if sym is None:
                bound = mod.bindings.get(ann.split(".")[0])
                if bound is not None:
                    sym = graph.resolve_symbol(
                        ".".join([bound, *ann.split(".")[1:]])
                    )
            if sym not in graph.classes:
                continue
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                cls.attr_types.setdefault(target.attr, str(sym))
            elif isinstance(target, ast.Name):
                cls.attr_types.setdefault(target.id, str(sym))
        elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
            target_cls = resolve_class(stmt.value.func)
            if target_cls is None:
                continue
            for tgt in stmt.targets:
                if (
                    isinstance(tgt, ast.Attribute)
                    and isinstance(tgt.value, ast.Name)
                    and tgt.value.id == "self"
                ):
                    cls.attr_types.setdefault(tgt.attr, target_cls)


def build_callgraph(project: Project) -> CallGraph:
    """Build the whole-program graph for one lint run."""
    graph = CallGraph()

    # Pass 1: modules, functions, classes, bindings.
    per_file_mod: Dict[str, ModuleInfo] = {}
    for f in project.files:
        module = module_name_for(f.path, getattr(f, "root", "") or "")
        info = _collect_module(f, module)
        graph.modules[module] = info
        per_file_mod[f.path] = info
        for node in f.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{module}.{node.name}" if module else node.name
                graph.functions[qual] = FuncNode(
                    qualname=qual, module=module, name=node.name, cls=None,
                    path=f.path, node=node,
                    is_async=isinstance(node, ast.AsyncFunctionDef),
                )
            elif isinstance(node, ast.ClassDef):
                cqual = f"{module}.{node.name}" if module else node.name
                cnode = ClassNode(
                    qualname=cqual, module=module, name=node.name,
                    path=f.path, node=node,
                )
                graph.classes[cqual] = cnode
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        mqual = f"{cqual}.{item.name}"
                        graph.functions[mqual] = FuncNode(
                            qualname=mqual, module=module, name=item.name,
                            cls=cqual, path=f.path, node=item,
                            is_async=isinstance(item, ast.AsyncFunctionDef),
                        )
                        cnode.methods[item.name] = mqual

    # Pass 2: class bases + instance-attribute types (needs all classes).
    for f in project.files:
        mod = per_file_mod[f.path]
        for node in f.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            cqual = f"{mod.name}.{node.name}" if mod.name else node.name
            cls = graph.classes[cqual]
            for base in node.bases:
                dotted = _dotted(base)
                if dotted is None:
                    continue
                parts = dotted.split(".")
                bound = mod.bindings.get(parts[0])
                cand = None
                if bound is not None:
                    cand = graph.resolve_symbol(".".join([bound, *parts[1:]]))
                if cand is None:
                    cand = graph.resolve_symbol(dotted)
                if cand in graph.classes:
                    cls.bases.append(str(cand))
            _scan_class_attr_types(graph, mod, cls)

    # Pass 3: call sites per function.
    for qual, func in graph.functions.items():
        mod = per_file_mod[func.path]
        local_types: Dict[str, str] = {}
        fn_node = func.node
        args = getattr(fn_node, "args", None)
        if args is not None:
            for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
                ann = _annotation_name(arg.annotation)
                if ann is None:
                    continue
                sym = graph.resolve_symbol(ann)
                if sym is None:
                    bound = mod.bindings.get(ann.split(".")[0])
                    if bound is not None:
                        sym = graph.resolve_symbol(
                            ".".join([bound, *ann.split(".")[1:]])
                        )
                if sym in graph.classes:
                    local_types[arg.arg] = str(sym)
        scanner = _FunctionScanner(graph, mod, func, local_types)
        for stmt in getattr(fn_node, "body", []):
            scanner.visit(stmt)
        graph.calls[qual] = scanner.sites
        for site in scanner.sites:
            if site.kind == KIND_THREAD:
                graph.thread_entries.add(site.callee)
            elif site.kind == KIND_PROCESS:
                graph.process_entries.add(site.callee)
            elif site.kind == KIND_LOOP:
                graph.loop_posted.add(site.callee)

    return graph

