"""Per-HCA reliable-delivery state: the Reliable Connection machinery.

Send side (per destination flow): packets are stamped with consecutive
PSNs at injection and held in an in-flight deque until cumulatively
acked. One retransmission timer per flow runs an RFC6298-style
srtt/rttvar RTO estimate with Karn's rule (no samples from
retransmitted packets), exponential backoff on consecutive timeouts,
and seeded jitter. A timeout re-queues every unacked packet for
retransmission through the HCA's normal injection path (retransmits
drain ahead of fresh generator traffic). ``max_retries`` consecutive
timeouts put the flow into ``FAILED``: pending packets are charged as
permanently lost, later injections of the flow are discarded at the
source, and the run completes degraded-but-valid.

Receive side (per source flow): in-order PSNs are accepted and
acknowledged with coalesced cumulative acks on the CNP VL; duplicates
and out-of-order arrivals are discarded before the sink counts them
(go-back-N — the fabric itself never reorders, so out-of-order means a
preceding packet was lost to a fault).

Everything runs in simulated event-time; the only randomness is the
RTO jitter, drawn from a keyed per-node RNG stream
(``rng.stream("transport", node)``) so transport-enabled runs remain
deterministic and jobs-invariant.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from repro.network.packet import Packet
from repro.transport.config import TransportConfig

FLOW_OK = "ok"
FLOW_RECOVERING = "recovering"
FLOW_FAILED = "failed"


class _Entry:
    """One unacked in-flight packet."""

    __slots__ = ("psn", "payload", "vl", "sl", "msg_id", "t_sent", "retx", "queued")

    def __init__(self, psn: int, payload: int, vl: int, sl: int, msg_id: int, t_sent: float) -> None:
        self.psn = psn
        self.payload = payload
        self.vl = vl
        self.sl = sl
        self.msg_id = msg_id
        self.t_sent = t_sent
        self.retx = 0
        self.queued = False


class _TxFlow:
    """Sender-side state for one (this node -> dst) flow."""

    __slots__ = (
        "dst",
        "next_psn",
        "acked_psn",
        "unacked",
        "srtt",
        "rttvar",
        "rto_ns",
        "consecutive_timeouts",
        "timer_id",
        "deadline",
        "state",
        "retx_packets",
        "retx_bytes",
        "timeouts",
        "dup_acks",
        "failed_discards",
        "recovery_start",
        "recovery_target",
        "recovery_ns",
    )

    def __init__(self, dst: int, rto_init_ns: float) -> None:
        self.dst = dst
        self.next_psn = 0
        self.acked_psn = -1
        self.unacked: deque = deque()
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto_ns = rto_init_ns
        self.consecutive_timeouts = 0
        self.timer_id: Optional[int] = None
        self.deadline = 0.0
        self.state = FLOW_OK
        self.retx_packets = 0
        self.retx_bytes = 0
        self.timeouts = 0
        self.dup_acks = 0
        self.failed_discards = 0
        self.recovery_start = 0.0
        self.recovery_target = -1
        self.recovery_ns = 0.0

    def pending_bytes(self) -> int:
        return sum(e.payload for e in self.unacked)


class _RxFlow:
    """Receiver-side state for one (src -> this node) flow."""

    __slots__ = (
        "src",
        "expected",
        "dup_discards",
        "ooo_discards",
        "acks_sent",
        "last_ack_t",
        "ack_pending",
    )

    def __init__(self, src: int) -> None:
        self.src = src
        self.expected = 0
        self.dup_discards = 0
        self.ooo_discards = 0
        self.acks_sent = 0
        self.last_ack_t = -float("inf")
        self.ack_pending = False


class HcaTransport:
    """One HCA's reliable-delivery engine (both flow directions)."""

    __slots__ = (
        "hca",
        "sim",
        "config",
        "rng",
        "node_id",
        "tx_flows",
        "rx_flows",
        "retx_queue",
    )

    def __init__(self, hca, config: TransportConfig, rng) -> None:
        self.hca = hca
        self.sim = hca.sim
        self.config = config
        self.rng = rng
        self.node_id = hca.node_id
        self.tx_flows: Dict[int, _TxFlow] = {}
        self.rx_flows: Dict[int, _RxFlow] = {}
        # (flow, entry, due) triples awaiting retransmission; drained by
        # Hca.pull ahead of fresh generator traffic.
        self.retx_queue: deque = deque()

    # -- send side -----------------------------------------------------
    def can_send(self, dst: int) -> bool:
        """Whether the flow to ``dst`` has in-flight window left.

        FAILED flows report True: their packets are accepted and
        discarded at registration, so a generator never wedges on a
        dead destination.
        """
        flow = self.tx_flows.get(dst)
        if flow is None or flow.state == FLOW_FAILED:
            return True
        return len(flow.unacked) < self.config.window_packets

    def register(self, pkt: Packet) -> bool:
        """Sequence a freshly injected data packet; False = discard.

        Called by :meth:`Hca.pull` before the packet reaches metrics,
        tracing, or the output buffer. A FAILED flow blackholes its
        traffic here (counted in ``failed_discards``).
        """
        flow = self.tx_flows.get(pkt.dst)
        if flow is None:
            flow = _TxFlow(pkt.dst, self.config.rto_init_ns)
            self.tx_flows[pkt.dst] = flow
        if flow.state == FLOW_FAILED:
            flow.failed_discards += 1
            return False
        psn = flow.next_psn
        flow.next_psn = psn + 1
        pkt.psn = psn
        flow.unacked.append(
            _Entry(psn, pkt.payload, pkt.vl, pkt.sl, pkt.msg_id, self.sim.now)
        )
        if flow.timer_id is None:
            self._arm_timer(flow)
        return True

    def next_retx(self) -> Optional[Packet]:
        """Build the next pending retransmission, or None when drained.

        Entries acked (or failed) after queueing are skipped — the
        queue holds references, not copies, so a late ack cancels the
        resend for free.
        """
        queue = self.retx_queue
        while queue:
            flow, entry, due = queue.popleft()
            entry.queued = False
            if flow.state == FLOW_FAILED or entry.psn <= flow.acked_psn:
                continue
            now = self.sim.now
            pkt = Packet(
                self.node_id,
                flow.dst,
                entry.payload,
                header=self.hca.config.header_bytes,
                vl=entry.vl,
                sl=entry.sl,
                msg_id=entry.msg_id,
            )
            pkt.psn = entry.psn
            pkt.t_inject = now
            entry.retx += 1
            entry.t_sent = now
            flow.retx_packets += 1
            flow.retx_bytes += entry.payload
            trace = self.hca.trace
            if trace is not None:
                trace.retx(
                    now, self.node_id, flow.dst, entry.psn, entry.retx,
                    entry.payload, due,
                )
            return pkt
        return None

    def on_ack(self, pkt: Packet) -> None:
        """Cumulative ack from ``pkt.src`` covering PSNs <= ``pkt.psn``."""
        flow = self.tx_flows.get(pkt.src)
        if flow is None or flow.state == FLOW_FAILED:
            return
        psn = pkt.psn
        if psn <= flow.acked_psn:
            flow.dup_acks += 1
            return
        now = self.sim.now
        sample = None
        unacked = flow.unacked
        while unacked and unacked[0].psn <= psn:
            entry = unacked.popleft()
            if entry.retx == 0:
                sample = now - entry.t_sent
        flow.acked_psn = psn
        flow.consecutive_timeouts = 0
        if sample is not None:
            # Karn's rule: only never-retransmitted packets sample RTT.
            self._update_rtt(flow, sample)
        flow.rto_ns = self._estimated_rto(flow)
        if unacked:
            # Lazy timer: push the deadline out; the already-scheduled
            # fire re-checks it instead of paying a heap cancel+push
            # per ack.
            self._arm_timer(flow)
        else:
            self._cancel_timer(flow)
        if flow.state == FLOW_RECOVERING and psn >= flow.recovery_target:
            flow.recovery_ns += now - flow.recovery_start
            flow.state = FLOW_OK
        # The window moved: window-blocked generator streams re-evaluate.
        self.hca.kick()

    def _update_rtt(self, flow: _TxFlow, sample: float) -> None:
        if flow.srtt is None:
            flow.srtt = sample
            flow.rttvar = sample / 2.0
        else:
            flow.rttvar = 0.75 * flow.rttvar + 0.25 * abs(flow.srtt - sample)
            flow.srtt = 0.875 * flow.srtt + 0.125 * sample

    def _estimated_rto(self, flow: _TxFlow) -> float:
        cfg = self.config
        if flow.srtt is None:
            base = cfg.rto_init_ns
        else:
            base = flow.srtt + 4.0 * flow.rttvar
        return min(max(base, cfg.rto_min_ns), cfg.rto_max_ns)

    def _arm_timer(self, flow: _TxFlow) -> None:
        """Set the flow's RTO deadline; schedule a fire only if none is.

        The physical event is scheduled at most once per quiet period:
        acks merely advance ``flow.deadline``, and a fire that lands
        before the (moved) deadline reschedules itself for the rest.
        """
        jitter = 1.0 + self.config.jitter_frac * (2.0 * self.rng.random() - 1.0)
        delay = flow.rto_ns * jitter
        flow.deadline = self.sim.now + delay
        if flow.timer_id is None:
            flow.timer_id = self.sim.schedule(delay, self._on_timeout, flow)

    def _cancel_timer(self, flow: _TxFlow) -> None:
        if flow.timer_id is not None:
            self.sim.cancel(flow.timer_id)
            flow.timer_id = None

    def _on_timeout(self, flow: _TxFlow) -> None:
        flow.timer_id = None
        if not flow.unacked or flow.state == FLOW_FAILED:
            return
        now = self.sim.now
        if now < flow.deadline:
            # Acks moved the deadline since this fire was queued: this
            # is not a timeout, just the lazy timer catching up.
            flow.timer_id = self.sim.schedule(
                flow.deadline - now, self._on_timeout, flow
            )
            return
        flow.consecutive_timeouts += 1
        flow.timeouts += 1
        if flow.consecutive_timeouts > self.config.max_retries:
            self._fail(flow)
            return
        if flow.state == FLOW_OK:
            flow.state = FLOW_RECOVERING
            flow.recovery_start = now
            flow.recovery_target = flow.next_psn - 1
        # Exponential backoff for the next deadline, then go-back-N:
        # everything unacked goes back on the wire.
        flow.rto_ns = min(flow.rto_ns * 2.0, self.config.rto_max_ns)
        for entry in flow.unacked:
            if not entry.queued:
                entry.queued = True
                self.retx_queue.append((flow, entry, now))
        self._arm_timer(flow)
        self.hca.kick()

    def _fail(self, flow: _TxFlow) -> None:
        """Retry budget exhausted: structured FAILED state, run goes on."""
        now = self.sim.now
        pending = flow.pending_bytes()
        trace = self.hca.trace
        if trace is not None:
            trace.flow_failed(
                now, self.node_id, flow.dst, flow.acked_psn, pending,
                flow.consecutive_timeouts,
            )
        flow.state = FLOW_FAILED
        # Unacked entries stay for the final flow summary; the retx
        # queue skips FAILED flows, and can_send/register blackhole
        # further traffic. The kick un-wedges a window-blocked source.
        self.hca.kick()

    # -- receive side --------------------------------------------------
    def on_data(self, pkt: Packet) -> bool:
        """Accept or discard an arriving data packet; False = discard."""
        st = self.rx_flows.get(pkt.src)
        if st is None:
            st = _RxFlow(pkt.src)
            self.rx_flows[pkt.src] = st
        psn = pkt.psn
        if psn == st.expected:
            st.expected = psn + 1
            self._note_ack(st)
            return True
        # Go-back-N: anything not exactly in order is a surplus copy
        # (dup) or implies a lost predecessor (ooo) — discard, and
        # re-ack so a sender whose acks were lost in flight advances.
        if psn < st.expected:
            st.dup_discards += 1
            reason = "dup"
        else:
            st.ooo_discards += 1
            reason = "ooo"
        trace = self.hca.trace
        if trace is not None:
            trace.drop(
                self.sim.now, "h", self.node_id, 0, pkt.vl, pkt.src, pkt.dst,
                pkt.payload, 0, reason,
            )
        self._note_ack(st)
        return False

    def _note_ack(self, st: _RxFlow) -> None:
        """Send a cumulative ack now, or coalesce into a trailing one."""
        if st.ack_pending:
            return
        now = self.sim.now
        wait = st.last_ack_t + self.config.ack_coalesce_ns - now
        if wait <= 0:
            self._send_ack(st)
        else:
            st.ack_pending = True
            self.sim.schedule(wait, self._flush_ack, st)

    def _flush_ack(self, st: _RxFlow) -> None:
        st.ack_pending = False
        self._send_ack(st)

    def _send_ack(self, st: _RxFlow) -> None:
        psn = st.expected - 1
        if psn < 0:
            return
        now = self.sim.now
        st.last_ack_t = now
        st.acks_sent += 1
        pkt = Packet.ack(self.node_id, st.src, psn, vl=self.hca.config.cnp_vl)
        pkt.t_inject = now
        trace = self.hca.trace
        if trace is not None:
            trace.ack(now, self.node_id, st.src, psn)
        self.hca.obuf.enqueue(pkt)

    # -- introspection -------------------------------------------------
    def failed_flows(self) -> int:
        return sum(1 for f in self.tx_flows.values() if f.state == FLOW_FAILED)


class TransportLayer:
    """Run-wide transport wiring: one :class:`HcaTransport` per HCA."""

    def __init__(self, network, config: TransportConfig, rng) -> None:
        self.network = network
        self.config = config
        self.transports: List[HcaTransport] = []
        self._rng = rng
        self._finalized = False

    def install(self) -> "TransportLayer":
        for hca in self.network.hcas:
            tr = HcaTransport(
                hca, self.config, self._rng.stream("transport", hca.node_id)
            )
            hca.transport = tr
            self.transports.append(tr)
        return self

    def finalize(self) -> "TransportLayer":
        """Seal the run: one ``flowsum`` trace record per sender flow.

        The auditor's strict conservation closes over these records —
        for every non-FAILED flow, delivered + still-pending payload
        must cover everything injected (no bytes permanently lost).
        Call after ``network.run`` returns, before the trace session
        closes. Idempotent.
        """
        if self._finalized:
            return self
        self._finalized = True
        for tr in self.transports:
            trace = tr.hca.trace
            if trace is None:
                continue
            now = tr.sim.now
            for dst, flow in tr.tx_flows.items():
                trace.flow_summary(
                    now, tr.node_id, dst, flow.state, flow.acked_psn,
                    flow.next_psn, flow.pending_bytes(), flow.retx_packets,
                    flow.timeouts,
                )
        return self

    def summary(self) -> dict:
        """The run's transport fields of ``ExperimentResult``, as kwargs.

        Totals over every sender flow, plus ``flow_health``: one dict per
        flow that needed the recovery path (retransmitted, timed out, or
        not OK now) — at paper scale the healthy majority stays implicit.
        A recovery still open counts up to now.
        """
        retx_packets = retx_bytes = timeouts = failed = 0
        recovery_total = 0.0
        degraded: List[dict] = []
        for tr in self.transports:
            now = tr.sim.now
            for flow in tr.tx_flows.values():
                retx_packets += flow.retx_packets
                retx_bytes += flow.retx_bytes
                timeouts += flow.timeouts
                recovery = flow.recovery_ns
                if flow.state == FLOW_RECOVERING:
                    recovery += now - flow.recovery_start
                elif flow.state == FLOW_FAILED:
                    failed += 1
                recovery_total += recovery
                if flow.state != FLOW_OK or flow.retx_packets or flow.timeouts:
                    degraded.append({
                        "src": tr.node_id,
                        "dst": flow.dst,
                        "state": flow.state,
                        "acked_psn": flow.acked_psn,
                        "next_psn": flow.next_psn,
                        "pending_bytes": flow.pending_bytes(),
                        "retx_packets": flow.retx_packets,
                        "retx_bytes": flow.retx_bytes,
                        "timeouts": flow.timeouts,
                        "rto_ns": flow.rto_ns,
                        "recovery_ns": recovery,
                        "failed_discards": flow.failed_discards,
                    })
        return {
            "retx_packets": retx_packets,
            "retx_bytes": retx_bytes,
            "transport_timeouts": timeouts,
            "failed_flows": failed,
            "recovery_ns_total": recovery_total,
            "flow_health": degraded,
        }
