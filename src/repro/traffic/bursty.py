"""Bursty (on/off) traffic.

"Network burstiness" is one of the congestion causes the paper's
introduction lists. :class:`BurstySource` wraps the Frame-I generator
with an on/off modulation: exponentially distributed burst and idle
periods, with the configured rates applying *within* a burst. Long-run
offered load is ``duty x inj_rate``; the instantaneous load during a
burst is the full injection rate — exactly the short-lived congestion
trees the paper's "diverse and stormy forest" discussion mentions.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.engine.rng import RngStream
from repro.network.packet import Packet
from repro.traffic.generators import BNodeSource


class BurstySource(BNodeSource):
    """A B-node generator gated by an on/off (burst/idle) process.

    Parameters
    ----------
    burst_ns / idle_ns:
        Mean burst and idle durations (exponentially distributed).
    Everything else as :class:`BNodeSource`.
    """

    __slots__ = ("burst_ns", "idle_ns", "_phase_end", "_in_burst", "bursts")

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        p: float,
        rng: RngStream,
        *,
        burst_ns: float = 100_000.0,
        idle_ns: float = 100_000.0,
        **kwargs,
    ) -> None:
        if burst_ns <= 0 or idle_ns <= 0:
            raise ValueError("burst and idle means must be positive")
        super().__init__(node_id, n_nodes, p, rng, **kwargs)
        self.burst_ns = burst_ns
        self.idle_ns = idle_ns
        self._in_burst = True
        self._phase_end = float(rng.exponential(burst_ns))
        self.bursts = 1

    def _advance_phase(self, now: float) -> None:
        while now >= self._phase_end:
            if self._in_burst:
                self._in_burst = False
                self._phase_end += float(self.rng.exponential(self.idle_ns))
            else:
                self._in_burst = True
                self.bursts += 1
                self._phase_end += float(self.rng.exponential(self.burst_ns))

    def next_packet(self, now: float) -> Tuple[Optional[Packet], Optional[float]]:
        self._advance_phase(now)
        if not self._in_burst:
            return (None, self._phase_end)
        pkt, t_next = super().next_packet(now)
        if pkt is not None:
            return (pkt, None)
        if t_next is None:
            return (None, None)
        # Clamp the retry inside the current burst; if the budget frees
        # only after the burst ends, the next opportunity is the next
        # burst (handled by _advance_phase on the retry).
        return (None, t_next)
