"""Link degradation (frequency/voltage scaling, faulty cables).

The paper's introduction lists "conducting link frequency/voltage
scaling (lowering the link speed in order to save power)" among the
causes of congestion. A degraded link creates a congestion root *inside
the fabric* — at a switch-to-switch port rather than an HCA-facing one
— which exercises the credit-based root-detection rule without the
Victim Mask: the slow port keeps receiving credits from its healthy
downstream neighbour, so it correctly classifies as a root and marks,
while the ports feeding it starve and stay victims.
"""

from __future__ import annotations

from typing import Tuple

from repro.network.ports import LinkConfig


def degrade_link(network, switch_id: int, port: int, factor: float) -> float:
    """Scale one directed link's rate by ``factor`` (0 < factor <= 1).

    Affects the serialization time of everything transmitted by
    ``switch_id``'s output ``port`` from now on (in-flight packets keep
    their old timing). Returns the new rate in Gbit/s.
    """
    if not 0.0 < factor <= 1.0:
        raise ValueError("factor must be in (0, 1]")
    out = network.switches[switch_id].output_ports[port]
    old = out.link
    new_rate = old.rate_gbps * factor
    out.link = LinkConfig(new_rate, old.prop_delay_ns)
    return new_rate


def degrade_uplink_between(network, leaf: int, spine: int, factor: float) -> Tuple[int, int]:
    """Degrade the leaf->spine direction of a folded-Clos uplink.

    Returns the (switch, port) whose link was degraded.
    """
    meta = network.topology.meta
    for key in ("hosts_per_leaf", "n_leaves"):
        if key not in meta:
            raise ValueError("requires a folded-Clos topology")
    hpl = meta["hosts_per_leaf"]
    if not 0 <= leaf < meta["n_leaves"]:
        raise ValueError("leaf out of range")
    port = hpl + spine
    degrade_link(network, leaf, port, factor)
    return (leaf, port)
