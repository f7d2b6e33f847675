"""Static topology/routing analysis helpers.

These operate purely on the :class:`~repro.topology.spec.Topology`
blueprint — no simulation — and are used by tests (routing
correctness), by experiment configs (predicting which links a
congestion tree will occupy) and by the congestion-tree analysis in
:mod:`repro.metrics`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.topology.spec import Topology


def _neighbour_maps(topo: Topology):
    """Map (switch, port) -> neighbour as ("host", id) or ("switch", id)."""
    out: Dict[Tuple[int, int], Tuple[str, int]] = {}
    for hl in topo.host_links:
        out[(hl.switch_id, hl.switch_port)] = ("host", hl.host_id)
    for sl in topo.switch_links:
        out[(sl.switch_a, sl.port_a)] = ("switch", sl.switch_b)
        out[(sl.switch_b, sl.port_b)] = ("switch", sl.switch_a)
    return out


def host_path(topo: Topology, src: int, dst: int) -> List[Tuple[str, int]]:
    """The routed node sequence from ``src`` host to ``dst`` host.

    Returns ``[("host", src), ("switch", s1), ..., ("host", dst)]``.
    Raises RuntimeError on forwarding loops or dead ends.
    """
    if src == dst:
        return [("host", src)]
    nbr = _neighbour_maps(topo)
    path: List[Tuple[str, int]] = [("host", src)]
    attach = topo.host_attachment(src)
    node = ("switch", attach.switch_id)
    for _hop in range(2 * topo.n_switches + 2):
        path.append(node)
        sw = node[1]
        port = topo.lfts[sw][dst]
        if port == -1:
            raise RuntimeError(f"switch {sw} has no route to host {dst}")
        nxt = nbr.get((sw, port))
        if nxt is None:
            raise RuntimeError(f"switch {sw} port {port} is not cabled")
        if nxt == ("host", dst):
            path.append(nxt)
            return path
        if nxt[0] == "host":
            raise RuntimeError(
                f"route to {dst} delivered to wrong host {nxt[1]} at switch {sw}"
            )
        node = nxt
    raise RuntimeError(f"forwarding loop routing {src}->{dst}")


def path_ports(topo: Topology, src: int, dst: int) -> List[Tuple[int, int]]:
    """The (switch, output-port) hops a ``src``->``dst`` packet takes."""
    hops = []
    for node in host_path(topo, src, dst)[1:-1]:
        sw = node[1]
        hops.append((sw, topo.lfts[sw][dst]))
    return hops
