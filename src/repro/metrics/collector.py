"""Byte counters with a warmup window.

The paper measures steady-state receive rates; transients while queues
fill and the CC loop converges are excluded by only counting bytes
after ``warmup_ns``. Control packets (CNPs) are tallied separately and
never count toward goodput.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.network.packet import FLAG_CONTROL, FLAG_FECN, Packet


class Collector:
    """Per-node TX/RX accounting.

    Parameters
    ----------
    n_nodes:
        Number of end nodes (indexes the counter arrays).
    warmup_ns:
        Bytes moved strictly before this virtual time are ignored.
    """

    __slots__ = (
        "n_nodes",
        "warmup_ns",
        "rx_bytes",
        "tx_bytes",
        "rx_packets",
        "tx_packets",
        "rx_by_src",
        "control_rx",
        "fecn_rx",
        "track_pairs",
    )

    def __init__(self, n_nodes: int, *, warmup_ns: float = 0.0, track_pairs: bool = False) -> None:
        self.n_nodes = n_nodes
        self.warmup_ns = warmup_ns
        self.rx_bytes: List[int] = [0] * n_nodes
        self.tx_bytes: List[int] = [0] * n_nodes
        self.rx_packets: List[int] = [0] * n_nodes
        self.tx_packets: List[int] = [0] * n_nodes
        self.control_rx = 0
        self.fecn_rx = 0
        self.track_pairs = track_pairs
        self.rx_by_src: Optional[Dict[tuple, int]] = {} if track_pairs else None

    # -- hooks called by HCAs ------------------------------------------
    def record_rx(self, node: int, pkt: Packet, now: float) -> None:
        """Account one delivered packet at ``node``."""
        if pkt.flags & FLAG_CONTROL:
            if now >= self.warmup_ns:
                self.control_rx += 1
            return
        if now < self.warmup_ns:
            return
        self.rx_bytes[node] += pkt.payload
        self.rx_packets[node] += 1
        if pkt.flags & FLAG_FECN:
            self.fecn_rx += 1
        if self.track_pairs:
            key = (pkt.src, node)
            self.rx_by_src[key] = self.rx_by_src.get(key, 0) + pkt.payload

    def record_tx(self, node: int, pkt: Packet, now: float) -> None:
        """Account one injected packet at ``node``."""
        if pkt.flags & FLAG_CONTROL or now < self.warmup_ns:
            return
        self.tx_bytes[node] += pkt.payload
        self.tx_packets[node] += 1

    # -- reductions -----------------------------------------------------
    def measurement_window(self, t_end: float) -> float:
        """Length of the counted window in ns (raises if not started)."""
        window = t_end - self.warmup_ns
        if window <= 0:
            raise ValueError(
                f"measurement window empty: t_end={t_end} <= warmup={self.warmup_ns}"
            )
        return window

    def rx_rate_gbps(self, node: int, t_end: float) -> float:
        """Average receive goodput of ``node`` over the window, Gbit/s."""
        return self.rx_bytes[node] * 8.0 / self.measurement_window(t_end)

    def all_rx_rates_gbps(self, t_end: float) -> List[float]:
        """Per-node receive rates over the measurement window."""
        window = self.measurement_window(t_end)
        return [b * 8.0 / window for b in self.rx_bytes]

    def total_rx_rate_gbps(self, t_end: float) -> float:
        """Total network throughput (sum of node receive rates), Gbit/s."""
        return sum(self.rx_bytes) * 8.0 / self.measurement_window(t_end)
