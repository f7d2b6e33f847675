"""Congestion-control statistics snapshots.

Real InfiniBand exposes CC state through management datagrams
(CongestionInfo, CongestionLog, per-port counters); operators tune the
parameters against those counters. This module provides the simulated
equivalent: a structured snapshot of a network's CC state, per switch
port and per HCA, suitable for printing or for driving tuning loops
(see ``examples/parameter_tuning.py``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional


@dataclass
class HcaCcStats:
    node_id: int
    becns_applied: int
    cnps_sent: int
    throttled_flows: int
    #: Severity of the deepest throttle on the mechanism's own integer
    #: scale: the CCT index for ``"ib"``, percent slowdown for the
    #: rate-based mechanisms (see ``CongestionControl.deepest_level``).
    deepest_ccti: int
    timer_fires: int


@dataclass
class CcSnapshot:
    """Network-wide CC state at one instant."""

    time_ns: float
    total_marks: int
    total_eligible: int
    total_becns: int
    total_cnps: int
    throttled_flows: int
    per_switch_marks: Dict[int, int] = field(default_factory=dict)
    hcas: List[HcaCcStats] = field(default_factory=list)

    @property
    def marking_ratio(self) -> float:
        """Marked / eligible packets (1.0 when Marking_Rate = 0)."""
        if self.total_eligible == 0:
            return 0.0
        return self.total_marks / self.total_eligible

    def hottest_hcas(self, k: int = 5) -> List[HcaCcStats]:
        """HCAs with the deepest current throttles."""
        return sorted(self.hcas, key=lambda h: -h.deepest_ccti)[:k]

    def format(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"CC snapshot @ {self.time_ns / 1e6:.3f} ms",
            f"  FECN marks      {self.total_marks} "
            f"({self.marking_ratio:.0%} of eligible)",
            f"  BECNs applied   {self.total_becns}",
            f"  CNPs sent       {self.total_cnps}",
            f"  throttled flows {self.throttled_flows}",
        ]
        hot = [h for h in self.hottest_hcas() if h.deepest_ccti > 0]
        if hot:
            lines.append("  deepest throttles:")
            for h in hot:
                lines.append(
                    f"    node {h.node_id:4d}: CCTI {h.deepest_ccti}, "
                    f"{h.throttled_flows} flows"
                )
        return "\n".join(lines)


@dataclass
class FlowHealth:
    """Per-flow reliable-transport health (sender-side view)."""

    src: int
    dst: int
    state: str  # "ok" | "recovering" | "failed"
    acked_psn: int
    next_psn: int
    pending_bytes: int
    retx_packets: int
    retx_bytes: int
    timeouts: int
    rto_ns: float
    recovery_ns: float
    failed_discards: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TransportSnapshot:
    """Network-wide reliable-transport state at one instant.

    ``degraded`` lists only the flows that needed the recovery path
    (retransmitted, timed out, discarded post-failure, or currently
    not OK) — at paper scale the healthy majority stays implicit.
    """

    time_ns: float
    flows_tracked: int
    retx_packets: int
    retx_bytes: int
    timeouts: int
    failed_flows: int
    recovering_flows: int
    acks_sent: int
    dup_discards: int
    ooo_discards: int
    recovery_ns_total: float
    degraded: List[FlowHealth] = field(default_factory=list)

    def format(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"transport snapshot @ {self.time_ns / 1e6:.3f} ms",
            f"  flows tracked   {self.flows_tracked} "
            f"({self.failed_flows} failed, {self.recovering_flows} recovering)",
            f"  retransmissions {self.retx_packets} pkts / {self.retx_bytes} B "
            f"({self.timeouts} timeouts)",
            f"  acks sent       {self.acks_sent} "
            f"(discards: {self.dup_discards} dup, {self.ooo_discards} ooo)",
            f"  recovery time   {self.recovery_ns_total / 1e6:.3f} ms total",
        ]
        for fh in self.degraded[:8]:
            lines.append(
                f"    flow {fh.src}->{fh.dst}: {fh.state}, "
                f"{fh.retx_packets} retx, {fh.timeouts} timeouts, "
                f"{fh.pending_bytes} B pending"
            )
        if len(self.degraded) > 8:
            lines.append(f"    ... and {len(self.degraded) - 8} more degraded flows")
        return "\n".join(lines)


def snapshot_transport(network) -> Optional[TransportSnapshot]:
    """Collect a :class:`TransportSnapshot`; None if transport is off."""
    from repro.transport.reliability import FLOW_FAILED, FLOW_OK, FLOW_RECOVERING

    hcas = network.hcas
    if not hcas or hcas[0].transport is None:
        return None
    now = network.sim.now
    snap = TransportSnapshot(
        time_ns=now,
        flows_tracked=0,
        retx_packets=0,
        retx_bytes=0,
        timeouts=0,
        failed_flows=0,
        recovering_flows=0,
        acks_sent=0,
        dup_discards=0,
        ooo_discards=0,
        recovery_ns_total=0.0,
    )
    for hca in hcas:
        tr = hca.transport
        if tr is None:
            continue
        for st in tr.rx_flows.values():
            snap.acks_sent += st.acks_sent
            snap.dup_discards += st.dup_discards
            snap.ooo_discards += st.ooo_discards
        for flow in tr.tx_flows.values():
            snap.flows_tracked += 1
            snap.retx_packets += flow.retx_packets
            snap.retx_bytes += flow.retx_bytes
            snap.timeouts += flow.timeouts
            recovery = flow.recovery_ns
            if flow.state == FLOW_RECOVERING:
                snap.recovering_flows += 1
                recovery += now - flow.recovery_start
            elif flow.state == FLOW_FAILED:
                snap.failed_flows += 1
            snap.recovery_ns_total += recovery
            if flow.state != FLOW_OK or flow.retx_packets or flow.timeouts:
                snap.degraded.append(
                    FlowHealth(
                        src=tr.node_id,
                        dst=flow.dst,
                        state=flow.state,
                        acked_psn=flow.acked_psn,
                        next_psn=flow.next_psn,
                        pending_bytes=flow.pending_bytes(),
                        retx_packets=flow.retx_packets,
                        retx_bytes=flow.retx_bytes,
                        timeouts=flow.timeouts,
                        rto_ns=flow.rto_ns,
                        recovery_ns=recovery,
                        failed_discards=flow.failed_discards,
                    )
                )
    return snap


def snapshot_cc(network, manager) -> CcSnapshot:
    """Collect a :class:`CcSnapshot` from a live network + CC manager."""
    hcas = []
    for hca, hcc in zip(network.hcas, manager.hca_cc):
        hcas.append(
            HcaCcStats(
                node_id=hca.node_id,
                becns_applied=hcc.becns_applied,
                cnps_sent=hca.cnps_sent,
                throttled_flows=hcc.throttled_flows(),
                deepest_ccti=hcc.deepest_level(),
                timer_fires=hcc.timer_fires,
            )
        )
    return CcSnapshot(
        time_ns=network.sim.now,
        total_marks=manager.total_marks(),
        total_eligible=sum(scc.eligible for scc in manager.switch_cc),
        total_becns=manager.total_becns(),
        total_cnps=sum(h.cnps_sent for h in network.hcas),
        throttled_flows=manager.throttled_flows(),
        per_switch_marks={
            scc.switch.node_id: scc.marks for scc in manager.switch_cc
        },
        hcas=hcas,
    )
