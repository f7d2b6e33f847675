"""The Switch compound module: ports around a crossbar, routed by LFT.

Mirrors the paper's OMNeT++ switch: each SwitchPort is an
(input buffer, output buffer) pair; the input buffers do the routing
decision and sort packets into virtual output queues; per-output
:class:`~repro.network.arbiter.VLArbiter` instances drain the VoQs into
the output buffers. Routing uses a linear forwarding table (LFT):
``lft[dst] -> output port``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.engine.simulator import Simulator
from repro.network.arbiter import VLArbiter
from repro.network.packet import Packet
from repro.network.ports import LinkConfig, OutputPort, SwitchInputPort


class Switch:
    """A crossbar switch with ``n_ports`` bidirectional ports.

    Parameters
    ----------
    sim:
        The simulation kernel.
    node_id:
        Switch identifier (unique among switches).
    n_ports:
        Number of bidirectional ports (36 for the paper's crossbars).
    link:
        Link parameters used by all output ports.
    ibuf_capacity / obuf_capacity:
        Buffer sizes in bytes per VL (input) and total (output).
    """

    __slots__ = (
        "sim",
        "node_id",
        "n_ports",
        "n_vls",
        "input_ports",
        "output_ports",
        "arbiters",
        "lft",
        "cc",
        "_router",
    )

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        n_ports: int,
        *,
        link: Optional[LinkConfig] = None,
        ibuf_capacity: int = 16384,
        obuf_capacity: int = 8192,
        n_vls: int = 1,
    ) -> None:
        link = link or LinkConfig()
        self.sim = sim
        self.node_id = node_id
        self.n_ports = n_ports
        self.n_vls = n_vls
        self.output_ports: List[OutputPort] = [
            OutputPort(sim, link, capacity=obuf_capacity, n_vls=n_vls, port_index=i)
            for i in range(n_ports)
        ]
        self.input_ports: List[SwitchInputPort] = [
            SwitchInputPort(sim, self, i, capacity=ibuf_capacity, n_vls=n_vls)
            for i in range(n_ports)
        ]
        self.arbiters: List[VLArbiter] = [
            VLArbiter(self, i, n_vls) for i in range(n_ports)
        ]
        for i, out in enumerate(self.output_ports):
            out.on_space = self.arbiters[i].kick
        for ip in self.input_ports:
            ip.arbiters = self.arbiters
        self.lft: Optional[Sequence[int]] = None
        self.cc = None  # SwitchCC, installed by the CC manager
        self._router = None  # optional routing strategy (e.g. adaptive)

    def set_lft(self, lft: Sequence[int]) -> None:
        """Install the linear forwarding table (``lft[dst] -> port``)."""
        self.lft = lft
        self._sync_route_cache()

    @property
    def router(self):
        """Optional routing strategy (e.g. adaptive); None means LFT."""
        return self._router

    @router.setter
    def router(self, router) -> None:
        self._router = router
        self._sync_route_cache()

    def _sync_route_cache(self) -> None:
        # Input ports bypass route() entirely when plain-LFT routing is
        # in effect: deliver() indexes the shared table directly. Any
        # change to the table or the strategy refreshes the caches.
        fast = self.lft if self._router is None else None
        for ip in self.input_ports:
            ip.fast_lft = fast

    def route(self, pkt: Packet) -> int:
        """Output port for ``pkt`` (router strategy or LFT lookup)."""
        if self._router is not None:
            return self._router.route(pkt)
        out = self.lft[pkt.dst]
        if out < 0:
            raise RuntimeError(
                f"switch {self.node_id} has no route to node {pkt.dst}"
            )
        return out

    # -- introspection ---------------------------------------------------
    def queued_bytes(self, out_port: int, vl: int = 0) -> int:
        """Bytes queued in input VoQs for an output Port VL (CC quantity)."""
        return self.arbiters[out_port].queued_bytes[vl]

    def total_buffered(self) -> int:
        """Total bytes currently buffered in all input buffers."""
        return sum(sum(ip.occupancy) for ip in self.input_ports)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Switch(id={self.node_id}, ports={self.n_ports})"
