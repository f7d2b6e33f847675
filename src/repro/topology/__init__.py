"""Topologies, linear forwarding tables and routing.

The paper's testbed topology is the three-stage fat-tree of the Sun
Datacenter InfiniBand Switch 648: 648 end nodes on 54 36-port
crossbars (36 leaves with 18 hosts + 18 uplinks each, 18 spines with
one link to every leaf). :func:`three_stage_fat_tree` builds the same
family at any even radix; :func:`sun_dcs_648` is the radix-36 paper
instance.

Routing is deterministic destination-mod-k ("d-mod-k") up-routing with
single-path down-routing, expressed as per-switch linear forwarding
tables — the routing the paper uses ("routing using linear forwarding
tables"). :mod:`repro.topology.generic` builds LFTs for arbitrary
networkx graphs for experimentation beyond fat-trees; networkx itself
is loaded by the first :func:`topology_from_graph` call, not by
importing this package.
"""

from repro.topology.spec import Topology, SwitchSpec, HostLink, SwitchLink
from repro.topology.fattree import folded_clos, three_stage_fat_tree, sun_dcs_648
from repro.topology.generic import topology_from_graph
from repro.topology.torus import torus, mesh
from repro.topology.analysis import (
    path_ports,
    host_path,
    validate_lfts,
    link_load_for_pattern,
)

__all__ = [
    "Topology",
    "SwitchSpec",
    "HostLink",
    "SwitchLink",
    "folded_clos",
    "three_stage_fat_tree",
    "sun_dcs_648",
    "topology_from_graph",
    "torus",
    "mesh",
    "path_ports",
    "host_path",
    "validate_lfts",
    "link_load_for_pattern",
]
