"""Traffic sources implementing the paper's Frame I generator.

A :class:`BNodeSource` produces messages of ``msg_packets`` MTU packets
(4096 B total in the paper) from two independently budgeted streams:

* the *hotspot stream* at ``p x inj_rate`` toward the node's current
  hotspot;
* the *uniform stream* at ``(1-p) x inj_rate`` toward uniformly random
  destinations (all nodes except self — including hotspots, per the
  paper).

Eligibility of the next packet of a stream is the later of its fluid
budget time and the CC throttle horizon of its destination flow
(``HcaCC.next_allowed``), so a throttled hotspot stream never blocks
the uniform stream — Frame I's key requirement — while the uniform
stream still cannot exceed its ``(1-p)`` share when the hotspot stream
is held back. When both streams are eligible the choice is random with
probability ``p`` for the hotspot stream, which produces the random
trains of consecutive hotspot messages illustrated in Frame I.

C nodes are ``p = 1``; V nodes are ``p = 0``.
"""

from __future__ import annotations

from math import inf
from typing import Callable, Optional, Tuple

from repro.engine.rng import RngStream
from repro.network.packet import Packet
from repro.traffic.budgets import TokenBudget

_HS = 0
_UNI = 1


class BNodeSource:
    """Frame-I traffic generator (covers B, C and V node roles)."""

    __slots__ = (
        "node_id",
        "n_nodes",
        "p",
        "rng",
        "mtu",
        "header",
        "msg_packets",
        "sl",
        "hotspot",
        "hca",
        "budgets",
        "_pending_dst",
        "_msg_dst",
        "_msg_remaining",
        "_msg_seq",
        "messages_started",
        "packets_emitted",
    )

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        p: float,
        rng: RngStream,
        *,
        inj_rate_gbps: float = 13.5,
        mtu: int = 2048,
        header: int = 30,
        msg_packets: int = 2,
        hotspot: Optional[Callable[[], int]] = None,
        sl: int = 0,
        start_ns: float = 0.0,
    ) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if n_nodes < 2:
            raise ValueError("need at least two nodes to generate traffic")
        if p > 0.0 and hotspot is None:
            raise ValueError("p > 0 requires a hotspot provider")
        self.node_id = node_id
        self.n_nodes = n_nodes
        self.p = p
        self.rng = rng
        self.mtu = mtu
        self.header = header
        self.msg_packets = msg_packets
        self.sl = sl
        self.hotspot = hotspot
        self.hca = None
        burst = mtu * msg_packets
        self.budgets = (
            TokenBudget(p * inj_rate_gbps, burst, start_ns),
            TokenBudget((1.0 - p) * inj_rate_gbps, burst, start_ns),
        )
        self._pending_dst: list = [None, None]
        self._msg_dst = [0, 0]
        self._msg_remaining = [0, 0]
        self._msg_seq = 0
        self.messages_started = 0
        self.packets_emitted = 0

    def bind(self, hca) -> None:
        """Associate with the HCA whose CC state gates injections."""
        self.hca = hca

    # -- destination selection --------------------------------------------
    def _draw_uniform_dst(self) -> int:
        # Uniform over all nodes except self (paper Frame I).
        d = int(self.rng.integers(self.n_nodes - 1))
        return d if d < self.node_id else d + 1

    def _resolve_dst(self, stream: int) -> Optional[int]:
        """Destination of the stream's next message, None if unavailable."""
        if stream == _HS:
            hs = self.hotspot()
            # Stale pre-draws after a hotspot move are replaced; a node
            # that momentarily is its own hotspot pauses the stream.
            if hs == self.node_id:
                return None
            self._pending_dst[_HS] = hs
            return hs
        if self._pending_dst[_UNI] is None:
            self._pending_dst[_UNI] = self._draw_uniform_dst()
        return self._pending_dst[_UNI]

    # -- the generator protocol ----------------------------------------
    def next_packet(self, now: float) -> Tuple[Optional[Packet], Optional[float]]:
        """Return (packet eligible now, None) or (None, earliest retry).

        ``(None, None)`` means nothing will become eligible without an
        external kick (e.g. both streams disabled or hotspot == self).
        """
        hca = self.hca
        if hca is not None:
            cc = hca.cc
            tr = hca.transport
        else:
            cc = tr = None
        best_t = inf
        ready_hs = ready_uni = False
        for stream in (_HS, _UNI):
            budget = self.budgets[stream]
            if budget.rate <= 0.0:  # stream disabled (TokenBudget.enabled)
                continue
            if self._msg_remaining[stream]:
                dst = self._msg_dst[stream]  # mid-message: destination fixed
            else:
                dst = self._resolve_dst(stream)
                if dst is None:
                    continue
            if tr is not None and not tr.can_send(dst):
                # In-flight window full: the stream resumes on the kick
                # the next cumulative ack (or flow failure) delivers.
                continue
            t = budget.eligible_time(now, self.mtu)
            if cc is not None:
                t_cc = cc.next_allowed((self.node_id, dst), self.sl)
                if t_cc > t:
                    t = t_cc
            if t <= now:
                if stream == _HS:
                    ready_hs = True
                else:
                    ready_uni = True
            elif t < best_t:
                best_t = t

        if ready_hs and ready_uni:
            stream = _HS if self.rng.random() < self.p else _UNI
        elif ready_hs:
            stream = _HS
        elif ready_uni:
            stream = _UNI
        else:
            return (None, best_t if best_t != inf else None)
        return (self._emit(stream, now), None)

    def _emit(self, stream: int, now: float) -> Packet:
        if self._msg_remaining[stream] == 0:
            self._msg_dst[stream] = self._pending_dst[stream]
            self._pending_dst[stream] = None
            self._msg_remaining[stream] = self.msg_packets
            self._msg_seq += 1
            self.messages_started += 1
        pkt = Packet(
            self.node_id,
            self._msg_dst[stream],
            self.mtu,
            header=self.header,
            sl=self.sl,
            msg_id=self._msg_seq,
        )
        self._msg_remaining[stream] -= 1
        self.budgets[stream].charge(now, pkt.payload)
        self.packets_emitted += 1
        return pkt


class FixedRateSource(BNodeSource):
    """A single-destination constant-rate stream (tests and validation).

    Equivalent to a C node whose hotspot never moves.
    """

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        dst: int,
        rate_gbps: float,
        rng: RngStream,
        **kwargs,
    ) -> None:
        if dst == node_id:
            raise ValueError("destination must differ from source")
        super().__init__(
            node_id,
            n_nodes,
            1.0,
            rng,
            inj_rate_gbps=rate_gbps,
            hotspot=lambda: dst,
            **kwargs,
        )
