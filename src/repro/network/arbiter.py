"""The *vlarb*: per-output-port round-robin arbitration.

One :class:`VLArbiter` exists per switch output port. It round-robins
over virtual lanes and, within a VL, over the input ports whose VoQ for
this output is non-empty. Round-robin over inputs is what produces the
per-port fair sharing of a saturated output that the paper's Table II
numbers rely on (see also the authors' companion work on switch
arbitration and fairness, CCGRID'11).

The input ports own the VoQs (:mod:`repro.network.ports`): ``deliver``
creates one with its first packet and tells :meth:`on_packet_queued`
so, ``grant`` drops it with its last. A VoQ's existence is therefore
the arbiter's activity flag — the rotation holds exactly the inputs
that have one, and :meth:`feeders` is the read accessor for that set.

The arbiter also maintains ``queued_bytes[vl]`` — the total bytes
queued across all input VoQs destined to this output Port VL — which is
the quantity the switch-side CC threshold (section II.1 of the paper)
is evaluated against.
"""

from __future__ import annotations

from collections import deque
from typing import List

from repro.network.packet import Packet


class VLArbiter:
    """Round-robin arbiter for one switch output port (see module doc)."""

    __slots__ = (
        "switch",
        "out_index",
        "n_vls",
        "queued_bytes",
        "_active",
        "_rr_vl",
        "_kicking",
        "grants",
    )

    def __init__(self, switch, out_index: int, n_vls: int = 1) -> None:
        self.switch = switch
        self.out_index = out_index
        self.n_vls = n_vls
        self.queued_bytes: List[int] = [0] * n_vls
        # Per VL: rotation order of the input ports that hold a VoQ for
        # this output (VoQs exist only while non-empty: module doc).
        self._active: List[deque] = [deque() for _ in range(n_vls)]
        self._rr_vl = 0
        self._kicking = False
        self.grants = 0

    def on_packet_queued(
        self, in_port: int, vl: int, pkt: Packet, opened: bool
    ) -> None:
        """Register a newly queued packet and try to grant; ``opened``
        says it created its VoQ, i.e. ``in_port`` joins the rotation."""
        self.queued_bytes[vl] += pkt.wire_size
        if opened:
            self._active[vl].append(in_port)
        self.kick()

    def kick(self) -> None:
        """Grant as many packets as output-buffer space allows.

        Re-entrant calls (the output port's ``on_space`` firing while a
        grant is in progress) are coalesced into the running loop.
        """
        if self._kicking:
            return
        self._kicking = True
        try:
            out_index = self.out_index
            out = self.switch.output_ports[out_index]
            inputs = self.switch.input_ports
            n_vls = self.n_vls
            base = out_index * n_vls
            active = self._active
            queued_bytes = self.queued_bytes
            capacity = out.capacity
            while True:
                granted = False
                for _ in range(n_vls):
                    vl = self._rr_vl
                    self._rr_vl = vl + 1 if vl + 1 < n_vls else 0
                    act = active[vl]
                    if not act:
                        continue
                    inp = inputs[act[0]]
                    voq = inp.voqs[base + vl]
                    wire = voq[0].wire_size
                    if out.queue_bytes + wire > capacity:
                        continue
                    pkt = inp.grant(out_index, vl)
                    queued_bytes[vl] -= wire
                    self.grants += 1
                    if voq:
                        act.rotate(-1)  # fair round robin
                    else:
                        act.popleft()  # drained: grant() dropped the VoQ
                    out.enqueue(pkt)
                    granted = True
                    break
                if not granted:
                    return
        finally:
            self._kicking = False

    def feeders(self, vl: int) -> List[int]:
        """Input ports holding packets for this output Port VL, ascending."""
        return sorted(self._active[vl])

    def total_queued(self, vl: int) -> int:
        """Bytes waiting in input VoQs for this output Port VL."""
        return self.queued_bytes[vl]
