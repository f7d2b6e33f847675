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
from repro.network.ports import vl_rotations


class VLArbiter:
    """Round-robin arbiter for one switch output port (see module doc)."""

    __slots__ = (
        "switch",
        "out_index",
        "n_vls",
        "queued_bytes",
        "_out",
        "_inputs",
        "_active",
        "_live",
        "_vl_order",
        "_rr_vl",
        "_kicking",
        "grants",
    )

    def __init__(self, switch, out_index: int, n_vls: int = 1) -> None:
        self.switch = switch
        self.out_index = out_index
        self.n_vls = n_vls
        self.queued_bytes: List[int] = [0] * n_vls
        # The switch builds its ports first and never replaces them
        # (degradation swaps a port's LinkConfig, not the port).
        self._out = switch.output_ports[out_index]
        self._inputs = switch.input_ports
        # Per VL: rotation order of the input ports that hold a VoQ for
        # this output (VoQs exist only while non-empty: module doc).
        self._active: List[deque] = [deque() for _ in range(n_vls)]
        # Entries across all rotations: kick() has work only while > 0.
        self._live = 0
        self._vl_order = vl_rotations(n_vls)
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
            self._live += 1
        if not self._kicking:
            self.kick()

    def kick(self) -> None:
        """Grant as many packets as output-buffer space allows.

        Re-entrant calls (the output port's ``on_space`` firing while a
        grant is in progress) are coalesced into the running loop. Each
        pass scans the VLs round-robin from ``_rr_vl``, which moves to
        the granted VL + 1 and stays put when nothing can be granted.
        """
        if self._kicking or not self._live:
            return
        # No try/finally around the flag: an exception below leaves a
        # granted packet in neither queue, so the fabric is unusable
        # either way and the error propagates out of Simulator.run.
        self._kicking = True
        out_index = self.out_index
        out = self._out
        inputs = self._inputs
        n_vls = self.n_vls
        base = out_index * n_vls
        active = self._active
        queued_bytes = self.queued_bytes
        capacity = out.capacity
        vl_order = self._vl_order
        while self._live:
            for vl in vl_order[self._rr_vl]:
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
                    self._live -= 1
                self._rr_vl = vl + 1 if vl + 1 < n_vls else 0
                out.enqueue(pkt)
                break
            else:
                break  # no head packet fits the output buffer now
        self._kicking = False

    def feeders(self, vl: int) -> List[int]:
        """Input ports holding packets for this output Port VL, ascending."""
        return sorted(self._active[vl])

    def total_queued(self, vl: int) -> int:
        """Bytes waiting in input VoQs for this output Port VL."""
        return self.queued_bytes[vl]
