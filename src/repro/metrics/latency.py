"""Packet latency statistics.

Throughput is the paper's headline metric, but congestion trees are
felt first as latency: a packet crossing a saturated tree waits in
every buffer along a branch. :class:`LatencyTracker` records
injection-to-delivery times (using ``Packet.t_inject``, stamped by the
source HCA) and reports percentiles per node group — handy for showing
*victim* latency collapsing when CC prunes the tree.

Implementation note: samples are kept in plain lists and reduced on
demand in pure Python — percentiles by numpy's default ``linear``
interpolation over one sort, the mean by :func:`math.fsum`; at the
bench scales used here (1e5..1e6 packets) this is cheaper than
maintaining online quantile sketches and exact rather than approximate.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

from repro.network.packet import Packet


class LatencyTracker:
    """A metrics collector add-on recording per-packet latencies.

    Wraps (and forwards to) an inner collector so it can be installed
    wherever a :class:`~repro.metrics.collector.Collector` is expected::

        col = LatencyTracker(Collector(n, warmup_ns=...), warmup_ns=...)
        net = Network(sim, topo, cfg, collector=col)
    """

    __slots__ = ("inner", "warmup_ns", "samples_ns")

    def __init__(self, inner, *, warmup_ns: float = 0.0) -> None:
        self.inner = inner
        self.warmup_ns = warmup_ns
        self.samples_ns: Dict[int, List[float]] = {}

    # -- collector protocol ------------------------------------------------
    def record_rx(self, node: int, pkt: Packet, now: float) -> None:
        """Forward to the inner collector and record the packet's latency."""
        if self.inner is not None:
            self.inner.record_rx(node, pkt, now)
        if pkt.is_control or now < self.warmup_ns or pkt.t_inject < 0:
            return
        self.samples_ns.setdefault(node, []).append(now - pkt.t_inject)

    def record_tx(self, node: int, pkt: Packet, now: float) -> None:
        """Forward to the inner collector."""
        if self.inner is not None:
            self.inner.record_tx(node, pkt, now)

    # -- reductions -----------------------------------------------------
    def _merged(self, nodes: Optional[Iterable[int]]) -> List[float]:
        if nodes is None:
            pools = self.samples_ns.values()
        else:
            pools = (self.samples_ns.get(n, []) for n in nodes)
        merged = [v for pool in pools for v in pool]
        if not merged:
            raise ValueError("no latency samples recorded")
        return merged

    def percentiles(
        self,
        nodes: Optional[Iterable[int]] = None,
        qs: Sequence[float] = (50.0, 99.0),
    ) -> Dict[float, float]:
        """Latency percentiles (ns) over the given destination nodes."""
        ordered = sorted(self._merged(nodes))
        return {q: _percentile(ordered, q) for q in qs}

    def mean_ns(self, nodes: Optional[Iterable[int]] = None) -> float:
        """Mean latency (ns) over the given destination nodes."""
        merged = self._merged(nodes)
        return math.fsum(merged) / len(merged)

    def count(self) -> int:
        """Total latency samples recorded."""
        return sum(len(v) for v in self.samples_ns.values())

    # -- passthrough convenience --------------------------------------
    def __getattr__(self, name):
        # Delegate everything else (rx_bytes, rx_rate_gbps, ...) to the
        # wrapped collector so drivers work unchanged.
        return getattr(self.inner, name)


def _percentile(ordered: List[float], q: float) -> float:
    """``numpy.percentile(ordered, q)`` of an ascending list (``linear``)."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} is outside [0, 100]")
    index = (len(ordered) - 1) * (q / 100)
    lo = math.floor(index)
    if lo >= len(ordered) - 1:
        return ordered[-1]
    a, b = ordered[lo], ordered[lo + 1]
    t = index - lo
    # numpy's _lerp: interpolate from whichever end is nearer.
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
