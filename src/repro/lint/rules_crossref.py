"""Cross-file invariant rules: KEY001 (store-key drift) and TRC001
(trace-event coverage).

Both rules cross-reference two ASTs instead of importing anything: the
dataclass that *defines* a schema and the code that *consumes* it. The
definitions are discovered by name in the linted file set, so the
rules work unchanged on sandbox copies in tests and silently skip when
the relevant files are outside the lint scope (e.g. ``repro lint
src/repro/network``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.lint.findings import SEV_ERROR, Finding
from repro.lint.project import (
    Project,
    SourceFile,
    dataclass_fields,
    is_dataclass,
)
from repro.lint.registry import rule


def _find_method(cls: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _calls_asdict(fn: ast.FunctionDef) -> bool:
    """Whether the function calls ``asdict`` / ``dataclasses.asdict``."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "asdict":
            return True
        if isinstance(func, ast.Attribute) and func.attr == "asdict":
            return True
    return False


def _string_keys(fn: ast.FunctionDef) -> Set[str]:
    """String keys the serializer emits: dict-literal keys and
    ``out["key"] = ...`` subscript-assignment targets."""
    keys: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    keys.add(target.slice.value)
    return keys


def _popped_keys(fn: ast.FunctionDef) -> Set[str]:
    """Keys removed with ``<dict>.pop("key", ...)`` or ``del d["key"]``."""
    keys: Set[str] = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            keys.add(node.args[0].value)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    keys.add(target.slice.value)
    return keys


def _check_serializer(
    cls_file: SourceFile,
    cls: ast.ClassDef,
    ser_file: SourceFile,
    ser: ast.FunctionDef,
    ser_label: str,
) -> Iterator[Finding]:
    """Every dataclass field must survive into the serialized dict.

    Generic ``asdict`` covers every field automatically, *except* keys
    the serializer then pops without re-adding. A hand-written dict
    must name every field explicitly.
    """
    fields = dataclass_fields(cls)
    if not fields:
        return
    generic = _calls_asdict(ser)
    emitted = _string_keys(ser)
    popped = _popped_keys(ser)
    for name, lineno in sorted(fields.items()):
        if generic:
            covered = name not in popped or name in emitted
        else:
            covered = name in emitted
        if not covered:
            yield Finding(
                "KEY001", SEV_ERROR, ser_file.path, ser.lineno, ser.col_offset,
                f"{cls.name}.{name} (defined at {cls_file.path}:{lineno}) is "
                f"not reflected in {ser_label}; the store content key would "
                "alias configs that differ in this field",
            )


#: (dataclass, serializer) pairs the store key is built from. The
#: serializer is either a top-level function or ``Class.to_dict``.
_KEY_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("ExperimentConfig", "config_to_dict"),
    ("ScaleProfile", "config_to_dict"),
    ("FaultSpec", "FaultSpec.to_dict"),
    ("ChaosSpec", "ChaosSpec.to_dict"),
    ("TransportConfig", "transport_to_dict"),
    ("CCConfig", "cc_config_to_dict"),
)


@rule(
    "KEY001",
    severity=SEV_ERROR,
    summary=(
        "store-key drift: a config dataclass field is missing from the "
        "config_key serialization chain"
    ),
)
def key001_store_key_drift(project: Project) -> Iterator[Finding]:
    """Cross-reference config dataclasses with their serializers.

    A config field that never reaches :func:`config_to_dict`'s output
    silently aliases distinct experiment cells onto one cache entry —
    the exact failure the content-keyed result store exists to
    prevent. Skips pairs whose definition or serializer is outside the
    linted set.
    """
    for cls_name, ser_name in _KEY_PAIRS:
        found_cls = project.find_class(cls_name)
        if found_cls is None or not is_dataclass(found_cls[1]):
            continue
        cls_file, cls = found_cls
        ser: Optional[ast.FunctionDef]
        if "." in ser_name:
            owner_name, method_name = ser_name.split(".", 1)
            owner = project.find_class(owner_name)
            if owner is None:
                continue
            ser_file, owner_cls = owner
            ser = _find_method(owner_cls, method_name)
        else:
            found_fn = project.find_function(ser_name)
            if found_fn is None:
                continue
            ser_file, ser = found_fn
        if ser is None:
            continue
        yield from _check_serializer(cls_file, cls, ser_file, ser, ser_name)

    # config_key must hash the full config_to_dict blob, not some
    # ad-hoc subset.
    found_key = project.find_function("config_key")
    found_dict = project.find_function("config_to_dict")
    if found_key is not None and found_dict is not None:
        key_file, key_fn = found_key
        names = {
            n.id for n in ast.walk(key_fn) if isinstance(n, ast.Name)
        }
        if "config_to_dict" not in names:
            yield Finding(
                "KEY001", SEV_ERROR, key_file.path, key_fn.lineno,
                key_fn.col_offset,
                "config_key does not hash config_to_dict(cfg); the store "
                "key no longer covers the full configuration",
            )


def _ev_constants(f: SourceFile) -> Dict[str, int]:
    """Top-level ``EV_* = "tag"`` assignments → ``name -> lineno``."""
    out: Dict[str, int] = {}
    for node in f.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not (isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id.startswith("EV_"):
                out[target.id] = node.lineno
    return out


def _all_events_names(f: SourceFile) -> Optional[Set[str]]:
    """The EV_* names listed in the module's ``ALL_EVENTS`` tuple."""
    for node in f.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if "ALL_EVENTS" not in targets:
            continue
        if isinstance(node.value, (ast.Tuple, ast.List)):
            return {
                elt.id for elt in node.value.elts if isinstance(elt, ast.Name)
            }
    return None


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


@rule(
    "TRC001",
    severity=SEV_ERROR,
    summary=(
        "trace-event coverage: an EV_* constant is missing from "
        "ALL_EVENTS, the Tracer hooks, or the TraceAuditor dispatch"
    ),
)
def trc001_trace_event_coverage(project: Project) -> Iterator[Finding]:
    """Every trace event tag must be fully wired.

    A new ``EV_*`` tag that is defined but not listed in
    ``ALL_EVENTS``, never emitted by a :class:`Tracer` hook, or not
    acknowledged by the :class:`TraceAuditor` dispatch is a latent
    hole: records either can't be produced, or flow past the auditor's
    invariants unchecked. The auditor must name *every* tag, even ones
    whose only invariant is time monotonicity — that is what keeps its
    unknown-tag backstop honest.
    """
    records_file: Optional[SourceFile] = None
    ev_defs: Dict[str, int] = {}
    for f in project.files:
        consts = _ev_constants(f)
        if consts and _all_events_names(f) is not None:
            records_file, ev_defs = f, consts
            break
    if records_file is None:
        return

    listed = _all_events_names(records_file) or set()
    for name, lineno in sorted(ev_defs.items()):
        if name not in listed:
            yield Finding(
                "TRC001", SEV_ERROR, records_file.path, lineno, 0,
                f"{name} is not listed in ALL_EVENTS",
            )

    tracer = project.find_class("Tracer")
    if tracer is not None:
        tracer_file, tracer_cls = tracer
        referenced = _names_in(tracer_cls)
        for name, _ in sorted(ev_defs.items()):
            if name not in referenced:
                yield Finding(
                    "TRC001", SEV_ERROR, tracer_file.path, tracer_cls.lineno, 0,
                    f"no Tracer hook emits {name}; records with this tag "
                    "can never reach the sinks",
                )

    auditor = project.find_class("TraceAuditor")
    if auditor is not None:
        auditor_file, auditor_cls = auditor
        observe = _find_method(auditor_cls, "observe")
        handler_scope = observe if observe is not None else auditor_cls
        referenced = _names_in(handler_scope)
        for name, _ in sorted(ev_defs.items()):
            if name not in referenced:
                yield Finding(
                    "TRC001", SEV_ERROR, auditor_file.path,
                    handler_scope.lineno, 0,
                    f"TraceAuditor.observe has no handler mentioning {name}; "
                    "list it explicitly (even as a time-only event) so the "
                    "unknown-tag backstop stays meaningful",
                )
