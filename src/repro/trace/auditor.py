"""Online trace auditing: invariants checked as records are emitted.

The simulator's unit tests assert invariants on *final* state; the
auditor asserts them on *every event* of a live run, so a refactor
that transiently violates flow control or CC bounds is caught at the
moment it happens, with the offending record in hand. Checked
invariants:

* **event-time monotonicity** — records are emitted in non-decreasing
  virtual time (the event loop's fundamental ordering contract);
* **credit non-negativity** — no port ever transmits past its
  link-level credit balance (lossless fabric);
* **byte conservation modulo drops** — no flow delivers more payload
  than its source injected, counting payload lost to injected faults
  (the fabric never fabricates data, even when it loses some);
* **CCTI bounds** — every CCT-index change lands in
  ``[0, CCTI_Limit]`` (also under CNP loss/duplication faults);
* **rate bounds** — every rate change of a rate-based mechanism
  (:mod:`repro.cc`) lands in ``(0, 1]`` of link rate;
* **flag consistency** — BECN rides only control packets (CNPs), CNPs
  always carry BECN, FECN never appears on control packets, and
  packets are only delivered to their addressed destination;
* **no transmission on a dead link** — between ``link_down`` and
  ``link_up`` fault records (and while a switch is paused) the affected
  output port must not begin transmitting.

With the reliable transport active (``min_retx_gap_ns`` given), the
invariant set is upgraded:

* **strict byte conservation** — conservation is checked against
  ``injected + retransmitted`` while the run progresses (lost copies
  are re-sent, so drops may transiently exceed injections), and at
  session close every non-FAILED flow's ``flowsum`` record must show
  ``delivered + pending >= injected``: every dropped byte was either
  retransmitted to delivery or explicitly attributed to a FAILED flow
  — nothing is silently lost;
* **ack PSN monotonicity** — cumulative acks of a flow never regress;
* **no retx before timeout** — a retransmission is emitted at or after
  the timeout that queued it, and consecutive timeouts of one flow are
  spaced by at least the minimum (jittered) RTO;
* ``ctrl`` packets without BECN are permitted (acks ride the control
  path), and duplicate/out-of-order receiver discards (``dup``/``ooo``
  drop reasons) are surplus copies, exempt from conservation.

Violations are recorded (and optionally raised via ``strict=True``);
``summary()`` renders them for failure messages.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

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
    canonical_line,
)

# Keep failure output bounded even if a bug floods the stream.
MAX_STORED_VIOLATIONS = 100


class TraceViolation(RuntimeError):
    """Raised in strict mode when a record breaks an invariant."""


class TraceAuditor:
    """Checks the invariant set over one record stream."""

    __slots__ = (
        "ccti_limit",
        "strict",
        "min_retx_gap_ns",
        "violations",
        "violation_count",
        "_last_t",
        "_injected",
        "_delivered",
        "_dropped",
        "_down_ports",
        "_paused_switches",
        "_retransmitted",
        "_last_ack",
        "_last_due",
        "_failed_flows",
    )

    def __init__(
        self,
        *,
        ccti_limit: int = 127,
        strict: bool = False,
        min_retx_gap_ns: Optional[float] = None,
    ) -> None:
        self.ccti_limit = ccti_limit
        self.strict = strict
        # Non-None enables transport mode: the strict-conservation /
        # PSN / retx-timing invariant set. The value is the tightest
        # legal spacing of consecutive RTO fires per flow
        # (TransportConfig.min_retx_gap_ns).
        self.min_retx_gap_ns = min_retx_gap_ns
        self.violations: List[str] = []
        self.violation_count = 0
        self._last_t = 0.0
        # Per-flow payload totals for the conservation check.
        self._injected: Dict[Tuple[int, int], int] = {}
        self._delivered: Dict[Tuple[int, int], int] = {}
        # Payload lost to injected faults, per flow (conservation is
        # checked modulo these drops).
        self._dropped: Dict[Tuple[int, int], int] = {}
        # Links currently down / switches currently paused, learned
        # from fault records.
        self._down_ports: Set[Tuple[str, int, int]] = set()
        self._paused_switches: Set[int] = set()
        # Transport mode: per-flow retransmitted payload, last ack PSN,
        # last RTO-fire time, and flows declared FAILED.
        self._retransmitted: Dict[Tuple[int, int], int] = {}
        self._last_ack: Dict[Tuple[int, int], int] = {}
        self._last_due: Dict[Tuple[int, int], float] = {}
        self._failed_flows: Set[Tuple[int, int]] = set()

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    def _check_conservation(self, flow: Tuple[int, int], rec: TraceRecord) -> None:
        """Delivered + dropped may not exceed injected (+ retransmitted).

        Retransmissions legitimately put extra copies of injected bytes
        on the wire, so in transport mode the budget includes them; the
        strict "nothing permanently lost" direction is closed by the
        per-flow ``flowsum`` check at session end.
        """
        delivered = self._delivered.get(flow, 0)
        dropped = self._dropped.get(flow, 0)
        budget = self._injected.get(flow, 0) + self._retransmitted.get(flow, 0)
        if delivered + dropped > budget:
            self._violate(
                f"byte conservation broken for flow {flow} "
                f"(delivered {delivered} + dropped {dropped} > "
                f"injected+retransmitted {budget})",
                rec,
            )

    def _violate(self, msg: str, rec: TraceRecord) -> None:
        self.violation_count += 1
        if len(self.violations) < MAX_STORED_VIOLATIONS:
            self.violations.append(f"{msg}: {canonical_line(rec)}")
        if self.strict:
            raise TraceViolation(f"{msg}: {canonical_line(rec)}")

    def observe(self, rec: TraceRecord) -> None:
        """Check one record against every applicable invariant."""
        t = rec[1]
        if t < self._last_t:
            self._violate(
                f"time went backwards ({t} < {self._last_t})", rec
            )
        else:
            self._last_t = t

        etype = rec[0]
        if etype == EV_TX:
            # (tx, t, kind, node, port, vl, src, dst, wire, fecn, credit)
            if rec[10] < 0:
                self._violate("negative credit after transmit", rec)
            # Both sets are empty on a fault-free run: test, don't build.
            if self._down_ports and rec[2:5] in self._down_ports:
                self._violate("transmission on a downed link", rec)
            paused = self._paused_switches
            if paused and rec[2] == "s" and rec[3] in paused:
                self._violate("transmission from a paused switch", rec)
        elif etype == EV_RX:
            # (rx, t, node, src, dst, vl, payload, fecn, becn, ctrl)
            node, src, dst = rec[2], rec[3], rec[4]
            payload, fecn, becn, ctrl = rec[6], rec[7], rec[8], rec[9]
            if dst != node:
                self._violate("misdelivery (dst != receiving node)", rec)
            if ctrl and fecn:
                self._violate("control packet carries FECN", rec)
            if ctrl and not becn and self.min_retx_gap_ns is None:
                # Transport mode: cumulative acks are BECN-free control.
                self._violate("control packet without BECN", rec)
            if becn and not ctrl:
                self._violate("BECN on a data packet", rec)
            if not ctrl:
                flow = (src, dst)
                delivered = self._delivered.get(flow, 0) + payload
                self._delivered[flow] = delivered
                self._check_conservation(flow, rec)
        elif etype == EV_INJECT:
            # (inj, t, node, dst, vl, payload)
            flow = (rec[2], rec[3])
            self._injected[flow] = self._injected.get(flow, 0) + rec[5]
        elif etype == EV_CCTI:
            # (ccti, t, node, ksrc, kdst, old, new)
            new = rec[6]
            if not 0 <= new <= self.ccti_limit:
                self._violate(
                    f"CCTI {new} outside [0, {self.ccti_limit}]", rec
                )
        elif etype == EV_RATE:
            # (rate, t, node, ksrc, kdst, old, new) — rate-based
            # mechanisms (repro.cc) keep injection-rate fractions in
            # (0, 1]; a rate record outside that range means a clamp
            # was bypassed.
            old, new = rec[5], rec[6]
            if not 0.0 < new <= 1.0:
                self._violate(f"injection rate {new} outside (0, 1]", rec)
            if not 0.0 < old <= 1.0:
                self._violate(f"prior injection rate {old} outside (0, 1]", rec)
        elif etype == EV_BECN:
            # (becn, t, node, src, dst, sl) — the notified node must be
            # the flow's source (BECNs throttle the injector).
            if rec[2] != rec[3]:
                self._violate("BECN applied at a non-source node", rec)
        elif etype == EV_DROP:
            # (drop, t, kind, node, port, vl, src, dst, payload, ctrl, reason)
            src, dst, payload, ctrl, reason = rec[6], rec[7], rec[8], rec[9], rec[10]
            if not ctrl and reason not in ("dup", "ooo"):
                # Receiver dup/ooo discards are surplus copies of bytes
                # already accounted — only genuine losses count.
                flow = (src, dst)
                self._dropped[flow] = self._dropped.get(flow, 0) + payload
                self._check_conservation(flow, rec)
        elif etype == EV_RETX:
            # (retx, t, node, dst, psn, attempt, payload, due)
            flow = (rec[2], rec[3])
            payload, due = rec[6], rec[7]
            self._retransmitted[flow] = (
                self._retransmitted.get(flow, 0) + payload
            )
            if t < due:
                self._violate("retransmission before its timeout fired", rec)
            last_due = self._last_due.get(flow)
            if last_due is not None and due != last_due:
                if due < last_due:
                    self._violate("retransmission deadline went backwards", rec)
                elif (
                    self.min_retx_gap_ns is not None
                    and due - last_due < self.min_retx_gap_ns
                ):
                    self._violate(
                        f"consecutive timeouts of flow {flow} only "
                        f"{due - last_due:.0f} ns apart "
                        f"(min {self.min_retx_gap_ns:.0f})",
                        rec,
                    )
            self._last_due[flow] = due
        elif etype == EV_ACK:
            # (ack, t, node, src, psn) — cumulative ack for flow
            # (src, node); the acked PSN must never regress.
            flow = (rec[3], rec[2])
            psn = rec[4]
            last = self._last_ack.get(flow)
            if last is not None and psn < last:
                self._violate(
                    f"cumulative ack regressed for flow {flow} "
                    f"({psn} < {last})",
                    rec,
                )
            else:
                self._last_ack[flow] = psn
        elif etype == EV_FLOW_FAILED:
            # (flowfail, t, node, dst, acked, pending, timeouts)
            self._failed_flows.add((rec[2], rec[3]))
        elif etype == EV_FLOWSUM:
            # (flowsum, t, node, dst, state, acked, next_psn, pending,
            #  retx, timeouts) — the strict-conservation closing check.
            flow = (rec[2], rec[3])
            state, pending = rec[4], rec[7]
            if state != "failed" and flow not in self._failed_flows:
                injected = self._injected.get(flow, 0)
                delivered = self._delivered.get(flow, 0)
                if delivered + pending < injected:
                    self._violate(
                        f"bytes permanently lost on flow {flow} "
                        f"(delivered {delivered} + pending {pending} "
                        f"< injected {injected}, flow not FAILED)",
                        rec,
                    )
        elif etype == EV_FAULT:
            # (fault, t, action, kind, node, port, value)
            action, kind, node, port = rec[2], rec[3], rec[4], rec[5]
            if action == "link_down":
                self._down_ports.add((kind, node, port))
            elif action == "link_up":
                self._down_ports.discard((kind, node, port))
            elif action == "switch_pause":
                self._paused_switches.add(node)
            elif action == "switch_resume":
                self._paused_switches.discard(node)
        elif etype in (EV_CNP, EV_FECN, EV_TIMER, EV_END):
            # Time monotonicity (checked above) is the only invariant
            # for these; named explicitly so trace-event coverage is
            # exhaustive (simlint TRC001) and the backstop below stays
            # meaningful.
            pass
        else:
            self._violate(f"unknown event type {etype!r}", rec)

    def summary(self) -> str:
        """Human-readable violation report (empty string when clean)."""
        if self.ok:
            return ""
        lines = [f"{self.violation_count} trace invariant violation(s):"]
        lines += [f"  {v}" for v in self.violations]
        if self.violation_count > len(self.violations):
            lines.append(
                f"  ... and {self.violation_count - len(self.violations)} more"
            )
        return "\n".join(lines)
