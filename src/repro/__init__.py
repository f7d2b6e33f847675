"""repro — InfiniBand congestion control, reproduced.

A packet-level discrete-event simulator of InfiniBand fat-tree
networks with the full IB congestion control mechanism (FECN/BECN
closed-loop rate throttling), built to reproduce Gran et al.,
*Exploring the Scope of the InfiniBand Congestion Control Mechanism*,
IPDPS 2012.

Quick start::

    from repro import quick_simulation

    result = quick_simulation(radix=4, cc=True, sim_time_ns=2e6)
    print(result["rates_gbps"])

or assemble the pieces yourself — see ``examples/quickstart.py``.
"""

from repro.engine import Simulator, RngRegistry
from repro.network import Network, NetworkConfig, Hca, HcaConfig, LinkConfig, Switch
from repro.core import CCParams, CCManager, build_cct
from repro.cc import CCConfig
from repro.topology import (
    three_stage_fat_tree,
    sun_dcs_648,
    folded_clos,
    Topology,
)
from repro.traffic import BNodeSource, FixedRateSource, HotspotSchedule, assign_roles
from repro.metrics import Collector, group_rates, tmax_gbps, jain_fairness
from repro.trace import TraceAuditor, TraceSession, TraceSpec
from repro.transport import TransportConfig, TransportLayer

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "RngRegistry",
    "Network",
    "NetworkConfig",
    "Hca",
    "HcaConfig",
    "LinkConfig",
    "Switch",
    "CCParams",
    "CCManager",
    "CCConfig",
    "build_cct",
    "three_stage_fat_tree",
    "sun_dcs_648",
    "folded_clos",
    "Topology",
    "BNodeSource",
    "FixedRateSource",
    "HotspotSchedule",
    "assign_roles",
    "Collector",
    "group_rates",
    "tmax_gbps",
    "jain_fairness",
    "TraceAuditor",
    "TraceSession",
    "TraceSpec",
    "TransportConfig",
    "TransportLayer",
    "quick_simulation",
]


def quick_simulation(
    *,
    radix: int = 4,
    cc: bool = True,
    sim_time_ns: float = 2_000_000.0,
    warmup_ns: float = 200_000.0,
    n_hotspots: int = 1,
    seed: int = 1,
):
    """One-call demo: contributors saturate hotspots on a small fat-tree.

    Returns a dict with per-node receive rates and CC statistics. For
    real experiments use :mod:`repro.experiments`.
    """
    topo = three_stage_fat_tree(radix)
    sim = Simulator()
    rng = RngRegistry(seed)
    collector = Collector(topo.n_hosts, warmup_ns=warmup_ns)
    net = Network(sim, topo, NetworkConfig(), collector=collector)

    manager = None
    if cc:
        manager = CCManager(CCParams.paper_table1()).install(net)

    hotspots = list(range(n_hotspots))
    schedule = HotspotSchedule(hotspots)
    for node in range(topo.n_hosts):
        if node in hotspots:
            continue
        src = BNodeSource(
            node,
            topo.n_hosts,
            1.0,
            rng.stream("gen", node),
            hotspot=(lambda s=schedule: s.target(0)),
        )
        src.bind(net.hcas[node])
        net.hcas[node].attach_generator(src)
    net.run(until=sim_time_ns)

    return {
        "rates_gbps": collector.all_rx_rates_gbps(sim_time_ns),
        "total_gbps": collector.total_rx_rate_gbps(sim_time_ns),
        "fecn_marks": manager.total_marks() if manager else 0,
        "becns": manager.total_becns() if manager else 0,
        "events": sim.events_executed,
    }
