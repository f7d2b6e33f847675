"""Build topologies and LFTs from arbitrary networkx graphs.

This lets the simulator run on topologies other than fat-trees (the
paper's conclusion explicitly flags tori/meshes as open questions).
Graph conventions:

* host nodes: ``("h", i)`` with ``i`` in ``0..n_hosts-1``;
* switch nodes: ``("s", j)``;
* every host has exactly one edge, to a switch.

Ports are assigned per switch in sorted-neighbour order; routing uses
deterministic shortest paths (ties broken by neighbour order), encoded
into linear forwarding tables.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from repro.topology.spec import HostLink, SwitchLink, SwitchSpec, Topology

if TYPE_CHECKING:
    import networkx as nx


def topology_from_graph(graph: nx.Graph, *, name: str = "graph") -> Topology:
    """Convert a host/switch graph into a :class:`Topology` with LFTs."""
    import networkx as nx  # here: a third of ``import repro`` otherwise

    hosts = sorted(n for n in graph.nodes if n[0] == "h")
    switches = sorted(n for n in graph.nodes if n[0] == "s")
    if not hosts or not switches:
        raise ValueError("graph needs at least one host and one switch")
    n_hosts = len(hosts)
    if [h[1] for h in hosts] != list(range(n_hosts)):
        raise ValueError("host ids must be contiguous from 0")

    # Port assignment: neighbours of each switch in sorted order.
    ports: Dict[Tuple, Dict[Tuple, int]] = {}
    for s in switches:
        nbrs = sorted(graph.neighbors(s))
        ports[s] = {nbr: i for i, nbr in enumerate(nbrs)}

    switch_specs = [SwitchSpec(i, len(ports[s])) for i, s in enumerate(switches)]
    sw_index = {s: i for i, s in enumerate(switches)}

    host_links = []
    for h in hosts:
        nbrs = list(graph.neighbors(h))
        if len(nbrs) != 1 or nbrs[0][0] != "s":
            raise ValueError(f"host {h} must connect to exactly one switch")
        s = nbrs[0]
        host_links.append(HostLink(h[1], sw_index[s], ports[s][h]))

    switch_links = []
    seen = set()
    for s in switches:
        for nbr in graph.neighbors(s):
            if nbr[0] != "s":
                continue
            key = tuple(sorted((s, nbr)))
            if key in seen:
                continue
            seen.add(key)
            switch_links.append(
                SwitchLink(sw_index[s], ports[s][nbr], sw_index[nbr], ports[nbr][s])
            )

    # Deterministic shortest-path next hops from every switch to every host.
    lfts = []
    for s in switches:
        lft = []
        for h in hosts:
            try:
                path = nx.shortest_path(graph, s, h)
            except nx.NetworkXNoPath:
                lft.append(-1)
                continue
            lft.append(ports[s][path[1]])
        lfts.append(lft)

    topo = Topology(
        n_hosts=n_hosts,
        switches=switch_specs,
        host_links=host_links,
        switch_links=switch_links,
        lfts=lfts,
        name=name,
    )
    topo.validate()
    return topo
