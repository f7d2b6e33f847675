"""The linted file set and its classification config.

Rules operate on a :class:`Project` — every parsed source file plus a
:class:`LintConfig` that classifies files into the zones the
determinism rules care about:

* **sim-critical** — packages whose code runs (or expands configs)
  inside the deterministic event path. Raw randomness and wall-clock
  reads here break digest stability.
* **wall-clock allowlist** — telemetry/driver packages where real time
  is the point (progress bars, wall-second reporting).
* **blessed RNG modules** — the one place allowed to construct
  generators: :mod:`repro.engine.rng`.

Classification is by path segment, not import, so the linter works on
fixture trees in tests exactly as on ``src/repro``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.lint.pragmas import PragmaIndex


@dataclass(frozen=True)
class LintConfig:
    """Zone classification for the determinism rules."""

    #: Package names whose code is on (or feeds) the event path.
    sim_critical: FrozenSet[str] = frozenset(
        {"engine", "network", "core", "traffic", "faults", "transport",
         "trace", "topology", "cc", "metrics"}
    )
    #: Packages allowed to read the wall clock (telemetry only).
    wallclock_allowed: FrozenSet[str] = frozenset(
        {"parallel", "experiments", "validation", "lint"}
    )
    #: Packages checked for float accumulation over unordered iterables.
    float_sum_packages: FrozenSet[str] = frozenset({"metrics", "core"})
    #: ``(package, module)`` files allowed to construct raw generators —
    #: the enforced randomness contract lives here.
    rng_blessed: FrozenSet[Tuple[str, str]] = frozenset({("engine", "rng")})
    #: Packages holding asyncio service code, where a dropped
    #: ``create_task`` handle means silent task loss (ERR002) and
    #: blocking calls inside ``async def`` stall the loop (CON001).
    async_packages: FrozenSet[str] = frozenset({"serve"})
    #: Known worker-process entry points by bare function name, in
    #: addition to refs auto-detected via ``Process(target=...)``
    #: (CON002 module-state discipline).
    worker_entry_names: FrozenSet[str] = frozenset({"worker_main"})


DEFAULT_CONFIG = LintConfig()


class ImportTable:
    """Local name → origin mapping for one module.

    Rules work on resolved dotted call names (``import numpy as np`` →
    ``np.random.random`` resolves to ``numpy.random.random``; ``from
    time import perf_counter as clock`` → ``clock()`` resolves to
    ``time.perf_counter``), so aliasing cannot dodge the linter.
    """

    __slots__ = ("modules", "names")

    def __init__(self, tree: ast.Module) -> None:
        # 'np' -> 'numpy'; 'random' -> 'random'
        self.modules: Dict[str, str] = {}
        # 'perf_counter' -> 'time.perf_counter'; 'datetime' -> 'datetime.datetime'
        self.names: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # 'import numpy.random' binds 'numpy'.
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.modules[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.names[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain to its imported dotted origin."""
        chain: List[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        chain.reverse()
        root = node.id
        if root in self.names:
            return ".".join([self.names[root], *chain])
        if root in self.modules:
            return ".".join([self.modules[root], *chain])
        return None


@dataclass
class SourceFile:
    """One parsed file plus everything rules need to judge it."""

    path: str
    source: str
    tree: ast.Module
    pragmas: PragmaIndex
    #: Normalized path segments, e.g. ``("repro", "engine", "rng")``.
    parts: Tuple[str, ...]
    #: The walk root this file was discovered under — the call graph
    #: derives dotted module names relative to it.
    root: str = ""

    @cached_property
    def imports(self) -> ImportTable:
        """The module's import table (built once, shared by every rule)."""
        return ImportTable(self.tree)

    @property
    def module_name(self) -> str:
        return self.parts[-1] if self.parts else ""

    @property
    def is_init(self) -> bool:
        return self.module_name == "__init__"

    def in_package(self, names: FrozenSet[str]) -> bool:
        """Whether any path segment (above the module) names a package."""
        return any(part in names for part in self.parts[:-1])


def classify_parts(path: str) -> Tuple[str, ...]:
    """Path → normalized segments with the ``.py`` suffix stripped."""
    norm = path.replace("\\", "/").strip("/")
    parts = [p for p in norm.split("/") if p not in ("", ".", "..")]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    return tuple(parts)


@dataclass
class Project:
    """Everything one lint run sees."""

    files: List[SourceFile]
    config: LintConfig = field(default_factory=LintConfig)
    #: Lazily built whole-program call graph (shared by every rule so
    #: the tree is analyzed once per run). Typed loosely to avoid a
    #: project → callgraph import cycle.
    _callgraph: Optional[object] = field(
        default=None, repr=False, compare=False
    )

    def callgraph(self) -> "object":
        """The whole-program :class:`repro.lint.callgraph.CallGraph`."""
        if self._callgraph is None:
            from repro.lint.callgraph import build_callgraph

            self._callgraph = build_callgraph(self)
        return self._callgraph

    def sim_critical(self, f: SourceFile) -> bool:
        return f.in_package(self.config.sim_critical)

    def wallclock_allowed(self, f: SourceFile) -> bool:
        return f.in_package(self.config.wallclock_allowed)

    def float_sum_scope(self, f: SourceFile) -> bool:
        return f.in_package(self.config.float_sum_packages)

    def async_scope(self, f: SourceFile) -> bool:
        return f.in_package(self.config.async_packages)

    def rng_blessed(self, f: SourceFile) -> bool:
        for pkg, mod in self.config.rng_blessed:
            if f.module_name == mod and pkg in f.parts[:-1]:
                return True
        return False

    def find_class(self, name: str) -> Optional[Tuple[SourceFile, ast.ClassDef]]:
        """The first top-level class definition named ``name``."""
        for f in self.files:
            for node in f.tree.body:
                if isinstance(node, ast.ClassDef) and node.name == name:
                    return f, node
        return None

    def find_function(
        self, name: str
    ) -> Optional[Tuple[SourceFile, ast.FunctionDef]]:
        """The first top-level function definition named ``name``."""
        for f in self.files:
            for node in f.tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == name:
                    return f, node
        return None


def dataclass_fields(cls: ast.ClassDef) -> Dict[str, int]:
    """``field name -> lineno`` for a dataclass body (AnnAssign targets).

    ``ClassVar`` annotations and underscore-private names are not
    dataclass fields and are skipped.
    """
    out: Dict[str, int] = {}
    for node in cls.body:
        if not isinstance(node, ast.AnnAssign):
            continue
        target = node.target
        if not isinstance(target, ast.Name) or target.id.startswith("_"):
            continue
        ann = ast.dump(node.annotation)
        if "ClassVar" in ann:
            continue
        out[target.id] = node.lineno
    return out


def is_dataclass(cls: ast.ClassDef) -> bool:
    """Whether the class carries a ``@dataclass`` decorator."""
    for dec in cls.decorator_list:
        node = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(node, ast.Name) and node.id == "dataclass":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "dataclass":
            return True
    return False
