"""Per-file order rules: DET003, DET004 and IMP001.

DET003/DET004 flag iteration and float summation whose order follows
set hashing; IMP001 flags dead imports. The raw-randomness and
wall-clock rules (DET001/DET002) read the same per-file scan as the
taint rules and live in :mod:`repro.lint.rules_taint`.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.lint.findings import SEV_INFO, SEV_WARNING, Finding
from repro.lint.project import Project
from repro.lint.registry import rule


def _calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def _set_valued(node: ast.AST) -> bool:
    """Whether an expression statically evaluates to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # Set algebra (a | b, a - b, ...) stays a set if either side is.
        return _set_valued(node.left) or _set_valued(node.right)
    return False


def _set_assigned_names(tree: ast.Module) -> Set[str]:
    """Names assigned a set-valued expression anywhere in the module."""
    out: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _set_valued(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out.add(target.id)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if _set_valued(node.value) and isinstance(node.target, ast.Name):
                out.add(node.target.id)
    return out


def _unordered_iter(node: ast.AST, set_names: Set[str]) -> Optional[str]:
    """Describe why iterating ``node`` is order-unstable, or None."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"bare {func.id}(...)"
        if isinstance(func, ast.Attribute) and func.attr == "keys":
            # Literal dicts iterate in source order — deterministic.
            if not isinstance(func.value, ast.Dict):
                return ".keys() of a non-literal dict"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Name) and node.id in set_names:
        return f"set-valued name {node.id!r}"
    return None


def _iterated(node: ast.AST) -> List[ast.expr]:
    """The expressions ``node`` iterates (a ``for`` or a comprehension)."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [node.iter]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                         ast.GeneratorExp)):
        return [gen.iter for gen in node.generators]
    return []


@rule(
    "DET003",
    severity=SEV_WARNING,
    summary=(
        "iteration over an unordered container (bare set / non-literal "
        ".keys()) in sim-critical code without sorted(...)"
    ),
)
def det003_unordered_iteration(project: Project) -> Iterator[Finding]:
    """Event handlers must not depend on set/hash iteration order.

    Set iteration order depends on hash seeds and insertion history;
    a handler that walks one unsorted feeds hash noise straight into
    the event schedule. Wrap the iterable in ``sorted(...)`` (the fix)
    or a pragma (the documented exception).
    """
    for f in project.files:
        if not project.sim_critical(f):
            continue
        set_names = _set_assigned_names(f.tree)
        for node in ast.walk(f.tree):
            for expr in _iterated(node):
                why = _unordered_iter(expr, set_names)
                if why is None:
                    continue
                yield Finding(
                    "DET003", SEV_WARNING, f.path, expr.lineno, expr.col_offset,
                    f"iterating {why} in sim-critical code; wrap in "
                    "sorted(...) to pin the order",
                )


@rule(
    "DET004",
    severity=SEV_WARNING,
    summary=(
        "float accumulation with sum() over an unordered (set-typed) "
        "iterable in metrics/core"
    ),
)
def det004_unordered_sum(project: Project) -> Iterator[Finding]:
    """``sum()`` over a set re-associates float addition per hash order."""
    for f in project.files:
        if not project.float_sum_scope(f):
            continue
        set_names = _set_assigned_names(f.tree)
        for call in _calls(f.tree):
            if not (isinstance(call.func, ast.Name) and call.func.id == "sum"):
                continue
            if not call.args:
                continue
            arg = call.args[0]
            why = _unordered_iter(arg, set_names)
            if why is None and isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                for gen in arg.generators:
                    why = _unordered_iter(gen.iter, set_names)
                    if why is not None:
                        break
            if why is not None:
                yield Finding(
                    "DET004", SEV_WARNING, f.path, call.lineno, call.col_offset,
                    f"sum() over {why}: float accumulation order follows "
                    "hash order; sort the operands first",
                )


def _used_names(tree: ast.Module) -> Set[str]:
    """Every Name referenced (loads/stores) outside import statements,
    plus string entries of ``__all__``."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            pass  # the root Name is walked separately
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "__all__" in targets and isinstance(node.value, (ast.List, ast.Tuple)):
                for elt in node.value.elts:
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                        used.add(elt.value)
    return used


@rule(
    "IMP001",
    severity=SEV_INFO,
    summary="unused module-level import (dead-code hygiene)",
)
def imp001_unused_import(project: Project) -> Iterator[Finding]:
    """Top-level imports never referenced in the module.

    ``__init__.py`` files are skipped (imports there *are* the public
    API), as are ``__future__`` imports and explicit re-export aliases
    (``import x as x``).
    """
    for f in project.files:
        if f.is_init:
            continue
        used = _used_names(f.tree)
        for node in f.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.asname == alias.name:
                        continue
                    if local not in used:
                        yield Finding(
                            "IMP001", SEV_INFO, f.path, node.lineno,
                            node.col_offset,
                            f"import {alias.name!r} is never used",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    if alias.asname == alias.name:
                        continue
                    if local not in used:
                        yield Finding(
                            "IMP001", SEV_INFO, f.path, node.lineno,
                            node.col_offset,
                            f"imported name {local!r} is never used",
                        )
