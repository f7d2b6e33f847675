"""repro.trace — deterministic tracing, online audit, trace digests.

The paper's results hinge on closed-loop FECN/BECN dynamics that are
easy to break silently while refactoring the hot path; end metrics can
agree by accident, event streams cannot. This package provides:

* opt-in structured trace hooks across the engine/network/core layers
  (:mod:`repro.trace.tracer`, :mod:`repro.trace.records`) — packet
  injection/tx/rx, FECN marks, CNP/BECN, CCTI changes, recovery-timer
  fires — always folded into a streaming digest
  (:mod:`repro.trace.digest`) and optionally kept in a JSONL file or an
  in-memory ring buffer (:mod:`repro.trace.sinks`);
* a :class:`~repro.trace.auditor.TraceAuditor` checking invariants
  online: event-time monotonicity, credit non-negativity, per-flow
  byte conservation, CCTI bounds, notification-flag consistency;
* a stable per-run trace **digest** — the behavioral fingerprint used
  by the golden regression suite (``tests/golden/``) and recorded per
  cell in the :class:`~repro.parallel.manifest.RunManifest`, so
  ``jobs=1`` and ``jobs=N`` campaigns can be proven event-equivalent.

Tracing disabled costs one ``is not None`` branch per instrumented
event; enabled, the benchmark's ``trace.on_off_ratio``. Enable it per
run via ``run_experiment(cfg, trace=TraceSpec(...))`` or per campaign
via ``run_fn=TracedRun(...)`` / the CLI's ``--trace``/``--trace-dir``.
"""

from repro.trace.auditor import TraceAuditor, TraceViolation
from repro.trace.digest import DigestSink, digest_of_jsonl
from repro.trace.records import (
    ALL_EVENTS,
    EV_BECN,
    EV_CCTI,
    EV_CNP,
    EV_END,
    EV_FECN,
    EV_INJECT,
    EV_RX,
    EV_TIMER,
    EV_TX,
    canonical_line,
)
from repro.trace.session import TraceSession, TraceSpec
from repro.trace.sinks import JsonlSink, RingBufferSink
from repro.trace.tracer import Tracer

__all__ = [
    "ALL_EVENTS",
    "DigestSink",
    "EV_BECN",
    "EV_CCTI",
    "EV_CNP",
    "EV_END",
    "EV_FECN",
    "EV_INJECT",
    "EV_RX",
    "EV_TIMER",
    "EV_TX",
    "JsonlSink",
    "RingBufferSink",
    "TraceAuditor",
    "TraceSession",
    "TraceSpec",
    "TraceViolation",
    "Tracer",
    "canonical_line",
    "digest_of_jsonl",
]
