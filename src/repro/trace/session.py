"""Trace sessions: wiring a Tracer into a live simulation.

:class:`TraceSession` owns the sinks, the auditor, and the install/
uninstall of trace hooks across the component layers:

* ``engine`` — the :class:`~repro.engine.simulator.Simulator` carries
  the session's tracer in its ``trace`` slot (the discovery point for
  components built after install) and contributes the final ``end``
  record (clock + executed-event count) at close;
* ``network`` — every HCA (inject/rx/CNP) and every output port of
  every switch and HCA (tx with credit balance);
* ``core`` — every :class:`~repro.core.switch_cc.SwitchCC` (FECN
  marks) and :class:`~repro.core.hca_cc.HcaCC` (BECN, CCTI changes,
  recovery-timer fires).

:class:`TraceSpec` is the small picklable description of a tracing
request, used to carry trace settings into pool workers
(:class:`repro.experiments.runner.TracedRun`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.trace.auditor import TraceAuditor
from repro.trace.records import TraceRecord
from repro.trace.sinks import JsonlSink, RingBufferSink
from repro.trace.tracer import Tracer


@dataclass(frozen=True)
class TraceSpec:
    """A picklable tracing request.

    ``jsonl_dir`` — write each run's JSONL trace into this directory
    (None keeps the trace digest-only). ``ring`` — keep the last N
    records in memory (0 disables). ``audit`` — run the online
    :class:`TraceAuditor`. ``strict`` — raise
    :class:`~repro.trace.auditor.TraceViolation` at the first broken
    invariant instead of recording it.
    """

    jsonl_dir: Optional[str] = None
    ring: int = 0
    audit: bool = True
    strict: bool = False


class TraceSession:
    """One run's tracing state: sinks + auditor + installed hooks."""

    def __init__(
        self,
        *,
        jsonl_path: Optional[str] = None,
        ring: int = 0,
        audit: bool = True,
        ccti_limit: int = 127,
        strict: bool = False,
        min_retx_gap_ns: Optional[float] = None,
    ) -> None:
        self._jsonl = JsonlSink(jsonl_path) if jsonl_path else None
        self._ring = RingBufferSink(ring) if ring else None
        # min_retx_gap_ns (the run's TransportConfig.min_retx_gap_ns)
        # switches the auditor into transport mode: strict conservation
        # plus the PSN/retx-timing invariants. Derived per run from the
        # config, not part of the picklable TraceSpec.
        self.auditor = (
            TraceAuditor(
                ccti_limit=ccti_limit, strict=strict,
                min_retx_gap_ns=min_retx_gap_ns,
            )
            if audit
            else None
        )
        sinks = [s for s in (self._jsonl, self._ring) if s is not None]
        self.tracer = Tracer(sinks, auditor=self.auditor)
        # Installed components (engine/network/core layers); Any avoids
        # a trace -> network import cycle.
        self._sim: Optional[Any] = None
        self._network: Optional[Any] = None
        self._manager: Optional[Any] = None
        self._closed: bool = False

    # -- wiring --------------------------------------------------------
    def install(
        self, sim: Any, network: Any = None, manager: Any = None
    ) -> "TraceSession":
        """Attach the tracer to every instrumented component."""
        tracer = self.tracer
        self._sim = sim
        sim.trace = tracer
        if network is not None:
            self._network = network
            for hca in network.hcas:
                hca.trace = tracer
                obuf = hca.obuf
                obuf.trace = tracer
                obuf.trace_kind = "h"
                obuf.trace_node = hca.node_id
            for sw in network.switches:
                for out in sw.output_ports:
                    out.trace = tracer
                    out.trace_kind = "s"
                    out.trace_node = sw.node_id
        if manager is not None:
            self._manager = manager
            manager.attach_trace(tracer)
        return self

    def uninstall(self) -> None:
        """Detach every hook, restoring the null fast path."""
        if self._sim is not None:
            self._sim.trace = None
        if self._network is not None:
            for hca in self._network.hcas:
                hca.trace = None
                hca.obuf.trace = None
            for sw in self._network.switches:
                for out in sw.output_ports:
                    out.trace = None
        if self._manager is not None:
            self._manager.attach_trace(None)

    def close(self) -> "TraceSession":
        """Seal the trace: emit the ``end`` record and close sinks."""
        if not self._closed:
            self._closed = True
            if self._sim is not None:
                self.tracer.end(self._sim.now, self._sim.events_executed)
            self.uninstall()
            self.tracer.close()
        return self

    # -- results -------------------------------------------------------
    @property
    def digest(self) -> str:
        """The run's trace digest (stable across identical runs)."""
        return self.tracer.digest.hexdigest()

    @property
    def violations(self) -> List[str]:
        """Stored auditor violations (empty when clean or unaudited)."""
        return self.auditor.violations if self.auditor else []

    @property
    def violation_count(self) -> int:
        return self.auditor.violation_count if self.auditor else 0

    @property
    def records(self) -> List[TraceRecord]:
        """Ring-buffered records (empty when the ring is disabled)."""
        return self._ring.records if self._ring else []

    @property
    def jsonl_path(self) -> Optional[str]:
        return self._jsonl.path if self._jsonl else None

    @property
    def records_emitted(self) -> int:
        return self.tracer.records_emitted
