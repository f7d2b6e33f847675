"""Switch-side congestion control: detection and FECN marking.

A switch output Port VL is *in the congestion state* when the bytes
queued for it (summed over all input VoQs) exceed the configured
threshold **and** the Port VL is the root of the congestion — it still
holds credits to output data. A Port VL without credits is itself a
victim of downstream congestion and must not mark (footnote 2 of the
paper); the exception is ports with the ``Victim_Mask`` set, which is
standard practice for ports cabled to HCAs because an HCA never
detects congestion itself — without the mask, the true root of an
end-node congestion tree would go unmarked.

While in the congestion state, packets transiting the Port VL are
FECN-marked subject to ``Packet_Size`` (minimum payload) and
``Marking_Rate`` (eligible packets skipped between marks).
"""

from __future__ import annotations

from typing import List

from repro.core.parameters import CCParams
from repro.network.packet import FLAG_FECN, Packet


class SwitchCC:
    """Per-switch CC state; installed as each output port's ``cc`` hook."""

    __slots__ = (
        "switch",
        "params",
        "threshold_bytes",
        "victim_mask",
        "_skip",
        "marks",
        "eligible",
        "trace",
    )

    def __init__(self, switch, params: CCParams) -> None:
        self.switch = switch
        self.params = params
        # The threshold is defined against input-buffer capacity; all
        # input ports of one switch share a capacity setting.
        ibuf_cap = switch.input_ports[0].capacity if switch.input_ports else 0
        self.threshold_bytes = params.threshold_bytes(ibuf_cap)
        self.victim_mask: List[bool] = [False] * switch.n_ports
        # Remaining eligible packets to skip before the next mark,
        # per (port, vl).
        self._skip: List[List[int]] = [
            [0] * switch.n_vls for _ in range(switch.n_ports)
        ]
        self.marks = 0
        self.eligible = 0
        self.trace = None  # tracer (repro.trace), or None

    def attach(self) -> None:
        """Register as the marking hook on every output port."""
        for port in self.switch.output_ports:
            port.cc = self

    def set_victim_mask(self, port_index: int, value: bool = True) -> None:
        """Set/clear the Victim Mask bit of one port."""
        self.victim_mask[port_index] = value

    def in_congestion_state(
        self, port_index: int, vl: int, credits_after: float, wire_size: int
    ) -> bool:
        """The spec's Port VL congestion-state predicate.

        Root of congestion = "the Port VL has available credits to
        output data": after reserving the current packet there is still
        room to send another one (``credits_after >= wire_size``). A
        strictly-positive-bytes test would misclassify starved ports as
        roots whenever the downstream buffer size is not a multiple of
        the packet size, because the remainder never reaches zero.
        """
        if self.switch.arbiters[port_index].queued_bytes[vl] <= self.threshold_bytes:
            return False
        return self.victim_mask[port_index] or credits_after >= wire_size

    def on_transmit(self, port_index: int, pkt: Packet, credits_after: float) -> None:
        """Called by the output port as ``pkt`` begins transmission."""
        params = self.params
        if params.threshold == 0:
            return
        vl = pkt.vl
        # in_congestion_state(), inline: over threshold, and root or masked.
        if self.switch.arbiters[port_index].queued_bytes[vl] <= self.threshold_bytes:
            return
        if not self.victim_mask[port_index] and credits_after < pkt.wire_size:
            return
        if pkt.payload < params.packet_size:
            return
        self.eligible += 1
        skip = self._skip[port_index]
        if skip[vl] > 0:
            skip[vl] -= 1
            return
        pkt.flags |= FLAG_FECN
        self.marks += 1
        skip[vl] = params.marking_rate
        if self.trace is not None:
            self.trace.fecn_mark(
                self.switch.sim.now, self.switch.node_id, port_index, vl,
                pkt.src, pkt.dst,
                self.switch.arbiters[port_index].queued_bytes[vl],
            )
