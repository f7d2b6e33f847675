"""The Tracer: typed emission hooks feeding the digest, auditor and sinks.

Components hold a ``trace`` attribute that is ``None`` when tracing is
off — one attribute load and ``is not None`` branch per instrumented
event. When tracing is on, it is a :class:`Tracer`; each typed hook
builds the record tuple once, and :meth:`Tracer.emit` digests it, then
hands it to the auditor and any storage sinks. The benchmark measures
that as ``trace.on_off_ratio`` (``quick_moving_cc_traced``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.trace.auditor import TraceAuditor
from repro.trace.digest import CHUNK_RECORDS, DigestSink
from repro.trace.sinks import TraceSink
from repro.trace.records import (
    EV_ACK,
    EV_BECN,
    EV_CCTI,
    EV_CNP,
    EV_DROP,
    EV_END,
    EV_FAULT,
    EV_FECN,
    EV_FLOW_FAILED,
    EV_FLOWSUM,
    EV_INJECT,
    EV_RATE,
    EV_RETX,
    EV_RX,
    EV_TIMER,
    EV_TX,
    TraceRecord,
)


class Tracer:
    """Builds records, digests them, and dispatches them."""

    __slots__ = ("sinks", "auditor", "digest", "_buf")

    def __init__(
        self, sinks: Sequence[TraceSink] = (), *, auditor: Optional[TraceAuditor] = None
    ) -> None:
        self.sinks: List[TraceSink] = list(sinks)
        self.auditor = auditor
        self.digest = DigestSink()
        self._buf = self.digest.buf

    @property
    def records_emitted(self) -> int:
        return self.digest.records_hashed

    # -- dispatch ------------------------------------------------------
    def emit(self, rec: TraceRecord) -> None:
        """Digest one built record (so it counts even if a strict
        auditor raises on it), then audit and store it."""
        buf = self._buf
        buf.append(rec)
        if len(buf) >= CHUNK_RECORDS:
            self.digest.fold()
        auditor = self.auditor
        if auditor is not None:
            auditor.observe(rec)
        for sink in self.sinks:
            sink.write(rec)

    # -- typed hooks (one per event schema) ----------------------------
    def inject(self, t: float, node: int, dst: int, vl: int, payload: int) -> None:
        self.emit((EV_INJECT, t, node, dst, vl, payload))

    def tx(
        self,
        t: float,
        kind: str,
        node: int,
        port: int,
        vl: int,
        src: int,
        dst: int,
        wire: int,
        fecn: int,
        credit: float,
    ) -> None:
        self.emit((EV_TX, t, kind, node, port, vl, src, dst, wire, fecn, credit))

    def rx(
        self,
        t: float,
        node: int,
        src: int,
        dst: int,
        vl: int,
        payload: int,
        fecn: int,
        becn: int,
        ctrl: int,
    ) -> None:
        self.emit((EV_RX, t, node, src, dst, vl, payload, fecn, becn, ctrl))

    def fecn_mark(
        self, t: float, switch: int, port: int, vl: int, src: int, dst: int, queued: int
    ) -> None:
        self.emit((EV_FECN, t, switch, port, vl, src, dst, queued))

    def cnp(self, t: float, node: int, dst: int) -> None:
        self.emit((EV_CNP, t, node, dst))

    def becn(self, t: float, node: int, src: int, dst: int, sl: int) -> None:
        self.emit((EV_BECN, t, node, src, dst, sl))

    def ccti_change(
        self, t: float, node: int, ksrc: int, kdst: int, old: int, new: int
    ) -> None:
        self.emit((EV_CCTI, t, node, ksrc, kdst, old, new))

    def rate_change(
        self, t: float, node: int, ksrc: int, kdst: int, old: float, new: float
    ) -> None:
        self.emit((EV_RATE, t, node, ksrc, kdst, old, new))

    def timer_fire(self, t: float, node: int, decremented: int) -> None:
        self.emit((EV_TIMER, t, node, decremented))

    def fault(
        self, t: float, action: str, kind: str, node: int, port: int, value: float
    ) -> None:
        self.emit((EV_FAULT, t, action, kind, node, port, value))

    def drop(
        self,
        t: float,
        kind: str,
        node: int,
        port: int,
        vl: int,
        src: int,
        dst: int,
        payload: int,
        ctrl: int,
        reason: str,
    ) -> None:
        self.emit((EV_DROP, t, kind, node, port, vl, src, dst, payload, ctrl, reason))

    def retx(
        self, t: float, node: int, dst: int, psn: int, attempt: int,
        payload: int, due: float,
    ) -> None:
        self.emit((EV_RETX, t, node, dst, psn, attempt, payload, due))

    def ack(self, t: float, node: int, src: int, psn: int) -> None:
        self.emit((EV_ACK, t, node, src, psn))

    def flow_failed(
        self, t: float, node: int, dst: int, acked: int, pending: int,
        timeouts: int,
    ) -> None:
        self.emit((EV_FLOW_FAILED, t, node, dst, acked, pending, timeouts))

    def flow_summary(
        self, t: float, node: int, dst: int, state: str, acked: int,
        next_psn: int, pending: int, retx: int, timeouts: int,
    ) -> None:
        self.emit(
            (EV_FLOWSUM, t, node, dst, state, acked, next_psn, pending, retx,
             timeouts)
        )

    def end(self, t: float, events: int) -> None:
        self.emit((EV_END, t, events))

    def close(self) -> None:
        """Close every sink (idempotent)."""
        for sink in self.sinks:
            sink.close()
