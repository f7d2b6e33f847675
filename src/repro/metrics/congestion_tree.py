"""Congestion-tree observation.

Section III of the paper classifies congestion trees (silent / windy /
moving) by how their branches develop. These helpers take a live
:class:`~repro.network.network.Network` and extract the instantaneous
tree structure from buffer state: a (switch, output-port) is congested
when the bytes queued for it exceed a fraction of the input-buffer
capacity; edges follow the backpressure direction (from a congested
port upstream toward contributing inputs).
"""

from __future__ import annotations

from typing import Dict, List, Tuple


def congested_ports(
    network, *, vl: int = 0, fraction: float = 0.25
) -> List[Tuple[int, int]]:
    """(switch_id, out_port) pairs whose VoQ backlog exceeds ``fraction``
    of one input buffer's capacity."""
    result = []
    threshold = network.config.switch_ibuf_capacity * fraction
    for sw in network.switches:
        for out in range(sw.n_ports):
            if sw.arbiters[out].queued_bytes[vl] > threshold:
                result.append((sw.node_id, out))
    return result


def congestion_snapshot(network, *, vl: int = 0) -> Dict[str, object]:
    """A structural snapshot of current congestion.

    Returns the per-switch buffered bytes, the congested ports, and the
    set of (switch, input-port) feeding each congested output — i.e.
    the first level of branches of each congestion tree.
    """
    ports = congested_ports(network, vl=vl)
    branches: Dict[Tuple[int, int], List[int]] = {}
    for sw_id, out in ports:
        branches[(sw_id, out)] = network.switches[sw_id].arbiters[out].feeders(vl)
    return {
        "time_ns": network.sim.now,
        "buffered_bytes": {
            sw.node_id: sw.total_buffered() for sw in network.switches
        },
        "congested_ports": ports,
        "branches": branches,
    }
