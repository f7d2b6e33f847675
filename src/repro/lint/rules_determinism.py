"""Determinism rules DET001–DET004 and DET103, and IMP001.

Every rule here reads one file at a time. DET001/DET002/DET103 flag
host-state reads — raw ``random``/``numpy.random`` draws, wall-clock
reads, ``id()`` and ``os.environ``/``os.getenv`` — anywhere in a
sim-critical file, module and class bodies included; DET003/DET004
flag iteration and float summation whose order follows set hashing;
IMP001 flags dead imports.

What a simulation reads while it runs is checked by running it: the
test suite's sentinel makes host clocks, stdlib ``random`` and
``os.environ`` raise inside ``Simulator.run``, and a hash-seed
differential replays two cells under ``PYTHONHASHSEED=0`` and ``=1``
(``tests/determinism.py``). The rules kept here are judged by that
file's mutant table (README "Static analysis" prints it); each rule's
docstring names the mutants it kills.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.lint.findings import SEV_ERROR, SEV_INFO, SEV_WARNING, Finding
from repro.lint.project import Project, SourceFile
from repro.lint.registry import rule

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

#: Host-state read kinds.
K_RANDOM = "random"
K_WALLCLOCK = "wallclock"
K_OTHER = "other"  # id() / os.environ


def _host_reads(f: SourceFile) -> Iterator[Tuple[str, str, ast.expr]]:
    """``(kind, what, node)`` for every host-state read in one file."""
    table = f.imports
    for node in ast.walk(f.tree):
        if isinstance(node, ast.Call):
            dotted = table.resolve(node.func)
            if dotted is None:
                if isinstance(node.func, ast.Name) and node.func.id == "id":
                    yield K_OTHER, "id()", node
            elif dotted.startswith("random."):
                yield K_RANDOM, f"{dotted}()", node
            elif dotted.startswith("numpy.random."):
                if dotted.split(".")[-1] not in _SAFE_NP_RANDOM:
                    yield K_RANDOM, f"{dotted}()", node
            elif dotted in _WALLCLOCK:
                yield K_WALLCLOCK, f"{dotted}()", node
            elif dotted in ("os.getenv", "os.environ.get"):
                yield K_OTHER, f"{dotted}()", node
        elif isinstance(node, ast.Subscript):
            if table.resolve(node.value) == "os.environ":
                yield K_OTHER, "os.environ[...]", node


def _sim_reads(
    project: Project, kind: str
) -> Iterator[Tuple[SourceFile, str, ast.expr]]:
    """Host-state reads of ``kind`` in sim-critical files."""
    for f in project.files:
        if project.sim_critical(f):
            for k, what, node in _host_reads(f):
                if k == kind:
                    yield f, what, node


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

    Kills mutant C, which the sentinel and the differential kill too;
    it has no kill of its own. It stays for the code of the simulated
    packages that runs outside ``Simulator.run`` — module bodies,
    network and CC setup, result reductions — where the sentinel is
    off and the differential sees only what changes its two cells.
    """
    for f, what, node in _sim_reads(project, K_RANDOM):
        if project.rng_blessed(f):
            continue
        if what.startswith("random."):
            message = (
                f"call to stdlib {what} in sim-critical code; use a "
                "seeded stream from repro.engine.rng.RngRegistry"
            )
        else:
            message = (
                f"call to {what} in sim-critical code; draw from a "
                "keyed repro.engine.rng.RngRegistry stream instead"
            )
        yield Finding(
            "DET001", SEV_ERROR, f.path, node.lineno, node.col_offset, message
        )


@rule(
    "DET002",
    severity=SEV_ERROR,
    summary=(
        "wall-clock read (time.*/datetime.now) on the event path; real "
        "time is allowed only in telemetry packages"
    ),
)
def det002_wall_clock(project: Project) -> Iterator[Finding]:
    """No host-clock reads inside sim-critical packages.

    Kills mutant A, which the sentinel kills too; like DET001 it has
    no kill of its own and stays for the simulated packages' code
    outside ``Simulator.run``.
    """
    for f, what, node in _sim_reads(project, K_WALLCLOCK):
        if project.wallclock_allowed(f):
            continue
        yield Finding(
            "DET002", SEV_ERROR, f.path, node.lineno, node.col_offset,
            f"wall-clock read {what} on the event path; virtual "
            "time comes from the simulator, telemetry belongs in "
            "parallel/experiments",
        )


@rule(
    "DET103",
    severity=SEV_ERROR,
    summary=(
        "id() or an os.environ / os.getenv read in sim-critical code: "
        "the value depends on process or launcher state"
    ),
)
def det103_process_state(project: Project) -> Iterator[Finding]:
    """Identity and environment reads in sim-critical code.

    ``id()`` values change per process (breaking any ordering or
    hashing built on them) and ``os.environ`` reads couple behavior to
    launcher state. Kills mutants D and F; D — an environment read in
    CC option defaults, made while the network is built — is killed by
    nothing else: the sentinel is off during setup, and both
    interpreters of the differential see the same environment.
    """
    for f, what, node in _sim_reads(project, K_OTHER):
        yield Finding(
            "DET103", SEV_ERROR, f.path, node.lineno, node.col_offset,
            f"{what} in sim-critical code: the value depends on "
            "process/launcher state, not simulation inputs; pass it "
            "in as explicit configuration",
        )


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

    Kills mutants E and G. G — a float sum over a set of node ids — is
    killed by no run-time check: ``int`` hashes do not depend on the
    hash seed, so the differential's two interpreters agree.
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
    """``sum()`` over a set re-associates float addition per hash order.

    Kills mutant G, which no run-time check kills (see DET003).
    """
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
