"""Output ports (obuf) and switch input ports (ibuf).

The credit-based link-level flow control of InfiniBand lives here:

* an :class:`OutputPort` may start transmitting a packet only when it
  holds enough credits (bytes of downstream buffer space on the
  packet's VL);
* a :class:`SwitchInputPort` returns credits to its upstream output
  port when a packet leaves the input buffer through the crossbar.

Because credits can never go negative and the downstream buffer is
sized exactly to the credits handed out, packets are **never dropped**
— blocking propagates upstream instead (backpressure), which is what
grows congestion trees.

Virtual lanes are kept separate end to end: the output buffer holds one
FIFO per VL and round-robins over the VLs whose head packet is covered
by credits, so a congested data VL can never head-of-line block the
(e.g.) CNP VL — matching real IB egress behaviour where the VL
arbitration happens at the transmit stage.

A virtual output queue exists exactly while it holds a packet:
:meth:`SwitchInputPort.deliver` creates the FIFO for the first packet of
an (output, VL), :meth:`SwitchInputPort.grant` drops it with the last;
an empty slot holds ``None``. Credits cap an input buffer at
``capacity`` bytes per VL (7 MTU packets by default), so few of an
input's queues can be live at once — and none outgrows ``capacity`` /
smallest packet entries, which is why the FIFO is a plain list: cheap
to make once per hop, and ``pop(0)`` on it stays tens of nanoseconds.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

from repro.engine.simulator import Simulator
from repro.network.packet import FLAG_CONTROL, FLAG_FECN, Packet


@lru_cache(maxsize=None)
def vl_rotations(n_vls: int) -> Tuple[Tuple[int, ...], ...]:
    """``vl_rotations(n)[r]``: the VLs in round-robin scan order from ``r``."""
    return tuple(
        tuple(range(r, n_vls)) + tuple(range(r)) for r in range(n_vls)
    )


class LinkConfig:
    """Physical link parameters.

    Parameters
    ----------
    rate_gbps:
        Raw signalling rate in Gbit/s. The paper uses 20 Gbit/s
        (4x DDR).
    prop_delay_ns:
        One-way propagation delay; also used as the latency of credit
        (flow-control) updates travelling on the reverse channel.
    """

    __slots__ = ("rate_gbps", "prop_delay_ns", "byte_time_ns")

    def __init__(self, rate_gbps: float = 20.0, prop_delay_ns: float = 50.0) -> None:
        if rate_gbps <= 0:
            raise ValueError("link rate must be positive")
        if prop_delay_ns < 0:
            raise ValueError("propagation delay must be non-negative")
        self.rate_gbps = rate_gbps
        self.prop_delay_ns = prop_delay_ns
        # Gbit/s -> bytes/ns is rate/8; byte time is its reciprocal.
        self.byte_time_ns = 8.0 / rate_gbps


class OutputPort:
    """An *obuf*: per-VL transmit queues driving one link.

    The port serializes one packet at a time at the link rate. Among
    the VLs whose head packet is covered by downstream credits, VLs are
    served round-robin. CC marking is invoked through the ``cc`` hook
    when a packet begins transmission (i.e. when it passes through the
    Port VL), matching where the IB spec performs FECN marking.
    """

    __slots__ = (
        "sim",
        "_link",
        "capacity",
        "queues",
        "queue_bytes",
        "credits",
        "busy",
        "_peer",
        "_peer_deliver",
        "_on_tx_done",
        "cc",
        "port_index",
        "on_space",
        "bytes_sent",
        "packets_sent",
        "vlarb",
        "trace",
        "trace_kind",
        "trace_node",
        "halted",
        "lossy",
        "dropped_packets",
        "dropped_bytes",
        "_lost_credits",
        "_rr_vl",
        "_n_vls",
        "_vl_order",
        "_byte_time",
        "_prop_delay",
        "_schedule",
    )

    def __init__(
        self,
        sim: Simulator,
        link: LinkConfig,
        *,
        capacity: int = 8192,
        n_vls: int = 1,
        port_index: int = 0,
    ) -> None:
        self.sim = sim
        self._link = link
        self.capacity = capacity
        self.queues: List[deque] = [deque() for _ in range(n_vls)]
        self.queue_bytes = 0
        # Filled in when the downstream input buffer is attached.
        self.credits: List[float] = [0.0] * n_vls
        self.busy = False
        self._peer = None  # downstream object exposing .deliver(pkt)
        self._peer_deliver = None
        self._on_tx_done = self._tx_done  # avoids rebinding per packet
        self.cc = None  # SwitchCC hook or None
        self.port_index = port_index
        self.on_space: Optional[Callable[[], None]] = None
        self.bytes_sent = 0
        self.packets_sent = 0
        # Optional richer egress scheduler (repro.network.vlarb); None
        # means plain round robin over credit-covered VLs.
        self.vlarb = None
        # Tracing hook (repro.trace), set by TraceSession.install along
        # with the owning node's identity; None costs one branch per tx.
        self.trace = None
        self.trace_kind = ""
        self.trace_node = -1
        # Fault state (repro.faults): ``halted`` blocks new
        # transmissions (link down or switch pause); ``lossy``
        # additionally loses the packet on the wire when its
        # serialization completes (link down only).
        self.halted = False
        self.lossy = False
        self.dropped_packets = 0
        self.dropped_bytes = 0
        # Credits consumed by packets lost while the link was down;
        # refunded on recovery, modelling the retrain's credit re-sync.
        self._lost_credits: List[float] = [0.0] * n_vls
        self._rr_vl = 0
        self._n_vls = n_vls
        self._vl_order = vl_rotations(n_vls)
        # Hot-path caches: the transmit loop runs once per packet per
        # hop, so the link timings are flattened to port attributes and
        # refreshed by the ``link`` setter (runtime degradation).
        self._byte_time = link.byte_time_ns
        self._prop_delay = link.prop_delay_ns
        self._schedule = sim.schedule

    @property
    def peer(self):
        """Downstream object exposing ``deliver(pkt)``."""
        return self._peer

    @peer.setter
    def peer(self, peer) -> None:
        self._peer = peer
        self._peer_deliver = None if peer is None else peer.deliver

    @property
    def link(self) -> LinkConfig:
        """Physical link parameters driving this port."""
        return self._link

    @link.setter
    def link(self, link: LinkConfig) -> None:
        # repro.network.degrade swaps the LinkConfig mid-run to model
        # frequency/voltage scaling; keep the hot-path caches in step.
        self._link = link
        self._byte_time = link.byte_time_ns
        self._prop_delay = link.prop_delay_ns

    # -- capacity -------------------------------------------------------
    def has_space(self, wire_size: int) -> bool:
        """Whether ``wire_size`` more bytes fit in the transmit queue."""
        return self.queue_bytes + wire_size <= self.capacity

    @property
    def free_space(self) -> int:
        return self.capacity - self.queue_bytes

    def queued_packets(self) -> int:
        """Packets currently waiting across all VL queues."""
        return sum(len(q) for q in self.queues)

    # -- enqueue/dequeue --------------------------------------------------
    def enqueue(self, pkt: Packet, *, front: bool = False) -> None:
        """Add a packet to its VL's transmit queue.

        ``front=True`` gives head-of-queue priority within the VL (used
        only for CNPs at the source HCA, mirroring hardware that
        expedites notifications). Packets occupy wire (``wire_size > 0``):
        a non-zero ``queue_bytes`` is how the port knows a queue is not
        empty.
        """
        q = self.queues[pkt.vl]
        if front:
            q.appendleft(pkt)
        else:
            q.append(pkt)
        self.queue_bytes += pkt.wire_size
        if not (self.busy or self.halted):
            self.try_send()

    def on_credit(self, arg) -> None:
        """Credit return from downstream: ``arg = (vl, nbytes)``."""
        vl, nbytes = arg
        self.credits[vl] += nbytes
        if self.queue_bytes and not (self.busy or self.halted):
            self.try_send()

    def try_send(self) -> None:
        """Start transmitting an eligible head packet, if any.

        Picks the next VL (round robin from the last served VL) whose
        head packet fits its credits; a credit-starved VL never blocks
        the others. The port's own callers (:meth:`enqueue`,
        :meth:`on_credit`, ``_tx_done``) ask only when the port is idle,
        up, and holds bytes, so nearly every entry transmits.
        """
        if self.busy or self.halted:
            return
        queues = self.queues
        credits = self.credits
        if self.vlarb is not None:
            vl = self.vlarb.select(queues, credits)
            if vl is None:
                return
            pkt = queues[vl].popleft()
        else:
            for vl in self._vl_order[self._rr_vl]:
                q = queues[vl]
                if q and credits[vl] >= q[0].wire_size:
                    pkt = q.popleft()
                    self._rr_vl = vl + 1 if vl + 1 < self._n_vls else 0
                    break
            else:
                return
        wire = pkt.wire_size
        self.queue_bytes -= wire
        cr = credits[vl] - wire
        credits[vl] = cr
        self.busy = True
        if self.cc is not None and not (pkt.flags & FLAG_CONTROL):
            self.cc.on_transmit(self.port_index, pkt, cr)
        self.bytes_sent += wire
        self.packets_sent += 1
        trace = self.trace
        if trace is not None:
            # After the CC hook so the record sees the FECN decision.
            trace.tx(
                self.sim.now, self.trace_kind, self.trace_node,
                self.port_index, vl, pkt.src, pkt.dst, wire,
                1 if pkt.flags & FLAG_FECN else 0, cr,
            )
        self._schedule(wire * self._byte_time, self._on_tx_done, pkt)
        if self.on_space is not None:
            self.on_space()

    def _tx_done(self, pkt: Packet) -> None:
        self.busy = False
        if self.lossy:
            self._drop(pkt)
        else:
            self._schedule(self._prop_delay, self._peer_deliver, pkt)
        if self.queue_bytes and not self.halted:
            self.try_send()

    # -- fault injection (repro.faults) ---------------------------------
    def _drop(self, pkt: Packet) -> None:
        """Lose ``pkt`` on the wire (its credits refund on recovery)."""
        wire = pkt.wire_size
        self.dropped_packets += 1
        self.dropped_bytes += wire
        self._lost_credits[pkt.vl] += wire
        trace = self.trace
        if trace is not None:
            trace.drop(
                self.sim.now, self.trace_kind, self.trace_node,
                self.port_index, pkt.vl, pkt.src, pkt.dst, pkt.payload,
                1 if pkt.is_control else 0, "link",
            )

    def fail(self) -> None:
        """Take the link down: no new transmissions, in-flight tx lost."""
        self.halted = True
        self.lossy = True

    def pause(self) -> None:
        """Stop transmitting without loss (in-flight packets deliver)."""
        self.halted = True

    def recover(self) -> None:
        """Bring the link back: refund lost credits, resume transmit.

        A real link retrain re-initializes link-level flow control; we
        model that exactly by refunding the credits consumed by packets
        that were lost while the link was down — never more, so the
        downstream buffer can never be over-committed.
        """
        self.halted = False
        self.lossy = False
        lost = self._lost_credits
        credits = self.credits
        for vl, nbytes in enumerate(lost):
            if nbytes:
                credits[vl] += nbytes
                lost[vl] = 0.0
        self.try_send()


class SwitchInputPort:
    """An *ibuf*: per-VL shared buffer with virtual output queues.

    The buffer space on each VL is shared by all virtual output queues
    — that sharing is precisely what lets a saturated hot-spot output
    exhaust the credits of the upstream link and HOL-block flows headed
    elsewhere (congestion spreading). Packets are sorted into a VoQ per
    (output port, VL) on arrival; the per-output :class:`VLArbiter`
    drains them.
    """

    __slots__ = (
        "sim",
        "switch",
        "arbiters",
        "port_id",
        "capacity",
        "occupancy",
        "voqs",
        "_n_vls",
        "_upstream",
        "_upstream_credit",
        "credit_delay_ns",
        "packets_received",
        "fast_lft",
        "_schedule",
    )

    def __init__(
        self,
        sim: Simulator,
        switch,
        port_id: int,
        *,
        capacity: int = 16384,
        n_vls: int = 1,
    ) -> None:
        self.sim = sim
        self.switch = switch
        # The switch's per-output arbiter list, set by Switch once built.
        self.arbiters: Sequence = ()
        self.port_id = port_id
        self.capacity = capacity
        self.occupancy: List[int] = [0] * n_vls
        # voqs[out_port * n_vls + vl] -> FIFO (list, head first) or None
        self.voqs: List[Optional[List[Packet]]] = [None] * (switch.n_ports * n_vls)
        self._n_vls = n_vls
        self._upstream: Optional[OutputPort] = None
        self._upstream_credit = None
        self.credit_delay_ns = 0.0
        self.packets_received = 0
        # Per-destination routing fast path: a direct reference to the
        # switch's LFT when plain table routing is active (kept in sync
        # by Switch._sync_route_cache), else None -> full route() call.
        self.fast_lft: Optional[Sequence[int]] = None
        self._schedule = sim.schedule

    @property
    def upstream(self) -> Optional["OutputPort"]:
        """The output port feeding this buffer (credit-return target)."""
        return self._upstream

    @upstream.setter
    def upstream(self, port: Optional["OutputPort"]) -> None:
        self._upstream = port
        self._upstream_credit = None if port is None else port.on_credit

    def deliver(self, pkt: Packet) -> None:
        """Accept a packet from the wire: route it and queue in its VoQ."""
        vl = pkt.vl
        occ = self.occupancy[vl] + pkt.wire_size
        if occ > self.capacity:
            raise RuntimeError(
                f"flow-control violation: ibuf overflow at switch "
                f"{self.switch.node_id} port {self.port_id} vl {vl} "
                f"({occ} > {self.capacity})"
            )
        self.occupancy[vl] = occ
        self.packets_received += 1
        lft = self.fast_lft
        if lft is not None:
            out = lft[pkt.dst]
            if out < 0:
                raise RuntimeError(
                    f"switch {self.switch.node_id} has no route to node {pkt.dst}"
                )
        else:
            out = self.switch.route(pkt)
        if out == self.port_id:
            raise RuntimeError(
                f"routing loop: packet for node {pkt.dst} routed back out "
                f"port {out} of switch {self.switch.node_id}"
            )
        voqs = self.voqs
        slot = out * self._n_vls + vl
        voq = voqs[slot]
        opened = voq is None
        if opened:
            voqs[slot] = [pkt]
        else:
            voq.append(pkt)
        self.arbiters[out].on_packet_queued(self.port_id, vl, pkt, opened)

    def grant(self, out_port: int, vl: int) -> Packet:
        """Arbiter callback: move the VoQ head into the crossbar.

        Frees the buffer space (and the VoQ once drained) and schedules
        the credit return to the upstream output port after the
        reverse-channel delay.
        """
        voqs = self.voqs
        slot = out_port * self._n_vls + vl
        voq = voqs[slot]
        pkt = voq.pop(0)
        if not voq:
            voqs[slot] = None
        wire = pkt.wire_size
        self.occupancy[vl] -= wire
        if self._upstream_credit is not None:
            self._schedule(self.credit_delay_ns, self._upstream_credit, (vl, wire))
        return pkt
