"""The Host Channel Adapter: traffic generator, sink, and CC reaction point.

An :class:`Hca` injects packets produced by a pluggable traffic source
(*gen*, see :mod:`repro.traffic`) into its output buffer and consumes
arriving packets in its sink at the hardware receive rate. Two rate
caps from the paper's testbed are modelled explicitly:

* injection is limited to 13.5 Gbit/s (PCIe v1.1 ceiling) — enforced by
  the traffic source's token budgets;
* the sink drains at 13.6 Gbit/s — enforced here by serial service of
  arriving packets, so a hotspot that is offered more than 13.6 Gbit/s
  backs up into the fabric and roots a congestion tree.

CC hooks: on receiving a FECN-marked packet the sink immediately
returns a CNP (BECN) to the source; on receiving a BECN the HCA-side
reaction point (``self.cc``, any :class:`repro.cc.CongestionControl` —
the paper's :class:`repro.core.hca_cc.HcaCC` CCT table by default,
installed per the experiment's :class:`repro.cc.CCConfig`) deepens the
flow's throttle so subsequent injections of that flow are spaced
further apart (the CCT's IRD for ``"ib"``, ``ser / rate`` for the
rate-based mechanisms). The dispatch here is mechanism-agnostic: the
HCA only ever calls ``on_inject`` / ``on_becn`` / ``next_allowed``.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from repro.engine.simulator import Simulator
from repro.network.packet import (
    FLAG_ACK,
    FLAG_BECN,
    FLAG_CONTROL,
    FLAG_FECN,
    Packet,
)
from repro.network.ports import LinkConfig, OutputPort


class HcaConfig:
    """Per-HCA configuration (paper section IV defaults)."""

    __slots__ = (
        "inj_rate_gbps",
        "sink_rate_gbps",
        "mtu",
        "msg_packets",
        "header_bytes",
        "obuf_capacity",
        "ibuf_capacity",
        "n_vls",
        "cnp_vl",
        "cnp_coalesce_ns",
    )

    def __init__(
        self,
        *,
        inj_rate_gbps: float = 13.5,
        sink_rate_gbps: float = 13.6,
        mtu: int = 2048,
        msg_packets: int = 2,
        header_bytes: int = 30,
        obuf_capacity: int = 8192,
        ibuf_capacity: int = 16384,
        n_vls: int = 2,
        cnp_vl: int = 1,
        cnp_coalesce_ns: float = 1_000.0,
    ) -> None:
        if inj_rate_gbps <= 0 or sink_rate_gbps <= 0:
            raise ValueError("rates must be positive")
        if mtu <= 0 or msg_packets <= 0:
            raise ValueError("mtu and msg_packets must be positive")
        self.inj_rate_gbps = inj_rate_gbps
        self.sink_rate_gbps = sink_rate_gbps
        self.mtu = mtu
        self.msg_packets = msg_packets
        self.header_bytes = header_bytes
        self.obuf_capacity = obuf_capacity
        self.ibuf_capacity = ibuf_capacity
        self.n_vls = n_vls
        if not 0 <= cnp_vl < n_vls:
            raise ValueError("cnp_vl must be a valid VL index")
        self.cnp_vl = cnp_vl
        if cnp_coalesce_ns < 0:
            raise ValueError("cnp_coalesce_ns must be >= 0")
        self.cnp_coalesce_ns = cnp_coalesce_ns


class HcaInputPort:
    """HCA receive side: input buffer + serial sink service."""

    __slots__ = (
        "sim",
        "hca",
        "capacity",
        "occupancy",
        "queue",
        "busy",
        "sink_byte_time",
        "_upstream",
        "_upstream_credit",
        "credit_delay_ns",
        "_schedule",
        "_on_service_done",
    )

    def __init__(self, sim: Simulator, hca: "Hca", capacity: int, sink_rate_gbps: float, n_vls: int) -> None:
        self.sim = sim
        self.hca = hca
        self.capacity = capacity
        self.occupancy: List[int] = [0] * n_vls
        self.queue: deque = deque()
        self.busy = False
        self.sink_byte_time = 8.0 / sink_rate_gbps
        self._upstream: Optional[OutputPort] = None
        self._upstream_credit = None
        self.credit_delay_ns = 0.0
        self._schedule = sim.schedule
        self._on_service_done = self._service_done

    @property
    def upstream(self) -> Optional[OutputPort]:
        """The output port feeding this sink (credit-return target)."""
        return self._upstream

    @upstream.setter
    def upstream(self, port: Optional[OutputPort]) -> None:
        self._upstream = port
        self._upstream_credit = None if port is None else port.on_credit

    def deliver(self, pkt: Packet) -> None:
        """Accept a packet from the wire into the receive buffer."""
        occ = self.occupancy[pkt.vl] + pkt.wire_size
        if occ > self.capacity:
            raise RuntimeError(
                f"flow-control violation: HCA {self.hca.node_id} ibuf overflow"
            )
        self.occupancy[pkt.vl] = occ
        self.queue.append(pkt)
        if not self.busy:
            self._start_service()

    def _start_service(self) -> None:
        pkt = self.queue[0]
        self.busy = True
        self._schedule(pkt.wire_size * self.sink_byte_time, self._on_service_done)

    def _service_done(self) -> None:
        pkt = self.queue.popleft()
        wire = pkt.wire_size
        vl = pkt.vl
        self.occupancy[vl] -= wire
        if self._upstream_credit is not None:
            self._schedule(self.credit_delay_ns, self._upstream_credit, (vl, wire))
        self.hca.on_packet_received(pkt)
        if self.queue:
            self._start_service()
        else:
            self.busy = False


class Hca:
    """Host Channel Adapter compound module (gen + sink + CC hooks)."""

    __slots__ = (
        "sim",
        "node_id",
        "config",
        "obuf",
        "input_port",
        "gen",
        "cc",
        "metrics",
        "trace",
        "cnp_fault",
        "transport",
        "_wake_id",
        "_on_wake",
        "_pulling",
        "_max_wire",
        "_last_cnp",
        "cnps_sent",
        "becns_received",
    )

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        *,
        link: Optional[LinkConfig] = None,
        config: Optional[HcaConfig] = None,
    ) -> None:
        link = link or LinkConfig()
        config = config or HcaConfig()
        self.sim = sim
        self.node_id = node_id
        self.config = config
        self.obuf = OutputPort(
            sim, link, capacity=config.obuf_capacity, n_vls=config.n_vls, port_index=0
        )
        self.obuf.on_space = self.pull
        self.input_port = HcaInputPort(
            sim, self, config.ibuf_capacity, config.sink_rate_gbps, config.n_vls
        )
        self.gen = None  # pluggable traffic source (repro.traffic)
        self.cc = None  # CongestionControl (repro.cc), installed by CCManager
        self.metrics = None  # collector (repro.metrics), or None
        self.trace = None  # tracer (repro.trace), or None
        self.cnp_fault = None  # CnpFaultFilter (repro.faults), or None
        self.transport = None  # HcaTransport (repro.transport), or None
        self._wake_id: Optional[int] = None
        self._on_wake = self._wake
        self._pulling = False
        self._max_wire = config.mtu + config.header_bytes
        self._last_cnp: dict = {}
        self.cnps_sent = 0
        self.becns_received = 0

    # -- injection side ---------------------------------------------------
    def attach_generator(self, gen) -> None:
        """Install a traffic source and prime the injection loop."""
        self.gen = gen
        self.sim.schedule(0.0, self.pull)

    def pull(self) -> None:
        """Fill the output buffer from the generator while work is ready.

        The generator either returns a packet eligible *now* or the
        earliest time one may become eligible, in which case a single
        wake-up is scheduled. Re-entrant calls (obuf space freeing while
        we are already pulling) are coalesced. With the reliable
        transport installed, pending retransmissions drain ahead of
        fresh generator traffic, and fresh packets are PSN-sequenced
        (or discarded, for a FAILED flow) before they cost anything.
        """
        if self._pulling or self.gen is None:
            tr = self.transport
            if self._pulling or tr is None or not tr.retx_queue:
                return
        self._pulling = True
        try:
            sim = self.sim
            if self._wake_id is not None:
                sim.cancel(self._wake_id)
                self._wake_id = None
            # One event, one instant: nothing below advances the clock
            # or swaps a hook, so each is read once per call.
            now = sim.now
            obuf = self.obuf
            gen = self.gen
            tr = self.transport
            cc = self.cc
            metrics = self.metrics
            trace = self.trace
            # Fill level up to which one more full-size packet fits.
            room = obuf.capacity - self._max_wire
            while obuf.queue_bytes <= room:
                if tr is not None and tr.retx_queue:
                    pkt = tr.next_retx()
                    if pkt is not None:
                        # Retransmissions re-occupy the wire but are not
                        # new injections: no CC charge, no goodput tx,
                        # no inject record (the retx record covers them).
                        obuf.enqueue(pkt)
                        continue
                if gen is None:
                    return
                pkt, t_next = gen.next_packet(now)
                if pkt is None:
                    if t_next is not None:
                        self._wake_id = sim.schedule_at(t_next, self._on_wake)
                    return
                if tr is not None and not tr.register(pkt):
                    continue  # FAILED flow: discarded at the source
                pkt.t_inject = now
                if cc is not None and not (pkt.flags & FLAG_CONTROL):
                    cc.on_inject(pkt)
                if metrics is not None:
                    metrics.record_tx(self.node_id, pkt, now)
                if trace is not None:
                    trace.inject(now, self.node_id, pkt.dst, pkt.vl, pkt.payload)
                obuf.enqueue(pkt)
        finally:
            self._pulling = False

    def _wake(self) -> None:
        self._wake_id = None
        self.pull()

    def kick(self) -> None:
        """Force the generator to re-evaluate (e.g. after a hotspot move)."""
        if self._wake_id is not None:
            self.sim.cancel(self._wake_id)
            self._wake_id = None
        self.pull()

    # -- receive side -------------------------------------------------
    def on_packet_received(self, pkt: Packet) -> None:
        """Sink completion: transport, metrics, BECN handling, FECN -> CNP."""
        flags = pkt.flags
        tr = self.transport
        if tr is not None and not (flags & FLAG_CONTROL) and not tr.on_data(pkt):
            # Duplicate/out-of-order under the reliable transport:
            # discarded before the sink counts it as goodput.
            return
        if self.metrics is not None:
            self.metrics.record_rx(self.node_id, pkt, self.sim.now)
        if self.trace is not None:
            self.trace.rx(
                self.sim.now, self.node_id, pkt.src, pkt.dst, pkt.vl,
                pkt.payload, 1 if flags & FLAG_FECN else 0,
                1 if flags & FLAG_BECN else 0,
                1 if flags & FLAG_CONTROL else 0,
            )
        if tr is not None and flags & FLAG_ACK:
            tr.on_ack(pkt)
            return
        if flags & FLAG_BECN:
            self.becns_received += 1
            if self.cc is not None:
                self.cc.on_becn(pkt.flow, pkt.sl)
                # Throttled flows may now be schedulable at a new time.
                self.kick()
        if flags & FLAG_FECN and not flags & FLAG_CONTROL and self.cc is not None:
            # BECNs ride acknowledgements in hardware, and ACKs are
            # coalesced: a burst of FECN-marked packets of one flow
            # yields far fewer notifications than marks. We model this
            # by rate-limiting CNPs per source to one per coalescing
            # window, which also damps the CCTI overshoot the raw
            # mark-per-packet feedback would cause (see DESIGN.md §3.7).
            src = pkt.src
            last = self._last_cnp.get(src)
            if last is None or self.sim.now - last >= self.config.cnp_coalesce_ns:
                self._last_cnp[src] = self.sim.now
                self.send_cnp(src)

    def send_cnp(self, dst: int) -> None:
        """Return a BECN-carrying notification packet to ``dst``.

        CNPs bypass generator budgets and CC throttling and jump the
        output queue, per the spec's requirement that notifications be
        returned "as quickly as possible". An installed fault filter
        (:mod:`repro.faults`) may drop, delay, or duplicate the
        notification instead.
        """
        if self.cnp_fault is not None:
            self.cnp_fault.on_cnp(self, dst)
            return
        self._emit_cnp(dst)

    def _emit_cnp(self, dst: int) -> None:
        """Build and expedite the CNP itself (past any fault filter)."""
        pkt = Packet.cnp(self.node_id, dst, vl=self.config.cnp_vl)
        pkt.t_inject = self.sim.now
        self.cnps_sent += 1
        if self.trace is not None:
            self.trace.cnp(self.sim.now, self.node_id, dst)
        self.obuf.enqueue(pkt, front=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Hca(id={self.node_id})"
