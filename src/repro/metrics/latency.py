"""Packet latency statistics.

Throughput is the paper's headline metric, but congestion trees are
felt first as latency: a packet crossing a saturated tree waits in
every buffer along a branch. :class:`LatencyTracker` records
injection-to-delivery times (using ``Packet.t_inject``, stamped by the
source HCA) and reports percentiles per node group — handy for showing
*victim* latency collapsing when CC prunes the tree.

Implementation note: samples are kept in plain lists and reduced with
numpy on demand (imported there, so recording needs no numpy); at the
bench scales used here (1e5..1e6 packets) this is cheaper than
maintaining online quantile sketches and exact rather than approximate.
"""

from __future__ import annotations

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
    def percentiles(
        self,
        nodes: Optional[Iterable[int]] = None,
        qs: Sequence[float] = (50.0, 99.0),
    ) -> Dict[float, float]:
        """Latency percentiles (ns) over the given destination nodes."""
        if nodes is None:
            pools = self.samples_ns.values()
        else:
            pools = (self.samples_ns.get(n, []) for n in nodes)
        merged: List[float] = []
        for pool in pools:
            merged.extend(pool)
        if not merged:
            raise ValueError("no latency samples recorded")
        import numpy as np
        arr = np.asarray(merged)
        return {q: float(np.percentile(arr, q)) for q in qs}

    def mean_ns(self, nodes: Optional[Iterable[int]] = None) -> float:
        """Mean latency (ns) over the given destination nodes."""
        out = self.percentiles(nodes, qs=(50.0,))  # validate non-empty
        if nodes is None:
            pools = self.samples_ns.values()
        else:
            pools = (self.samples_ns.get(n, []) for n in nodes)
        merged = [v for pool in pools for v in pool]
        import numpy as np
        return float(np.mean(merged))

    def count(self) -> int:
        """Total latency samples recorded."""
        return sum(len(v) for v in self.samples_ns.values())

    # -- passthrough convenience --------------------------------------
    def __getattr__(self, name):
        # Delegate everything else (rx_bytes, rx_rate_gbps, ...) to the
        # wrapped collector so drivers work unchanged.
        return getattr(self.inner, name)
