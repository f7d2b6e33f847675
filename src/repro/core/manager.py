"""The Congestion Control Manager.

In InfiniBand, a subnet-wide Congestion Control Manager distributes CC
parameters to every switch and channel adapter. :class:`CCManager`
plays that role for a simulated :class:`~repro.network.network.Network`:
it instantiates :class:`~repro.core.switch_cc.SwitchCC` on every
switch, sets the ``Victim_Mask`` on HCA-facing switch ports (the spec's
recommended practice — see footnote 2 of the paper), and installs one
reaction point per HCA.

Which reaction point is pluggable: ``cc_config`` names an entry of
:data:`repro.cc.MECHANISMS`; omitted, the paper's IB CCT mechanism
(:class:`~repro.core.hca_cc.HcaCC`) installs, every HCA sharing the one
table its ``build`` makes (the golden digests pin the event stream).
Switch-side marking is mechanism-independent: every mechanism consumes
the same FECN/BECN feedback the switches produce.

Running without CC (the paper's baselines) simply means never calling
``install`` — switches then never mark and HCAs never throttle.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.cc.config import CCConfig
from repro.core.parameters import CCParams
from repro.core.switch_cc import SwitchCC


class CCManager:
    """Configure congestion control across a network."""

    __slots__ = ("params", "cc_config", "build_hca_cc", "switch_cc", "hca_cc")

    def __init__(
        self,
        params: Optional[CCParams] = None,
        cc_config: Optional[CCConfig] = None,
    ) -> None:
        # Imported here: repro.cc imports this package's HcaCC.
        from repro.cc import find_mechanism

        self.params = params or CCParams.paper_table1()
        self.cc_config = (cc_config or CCConfig()).validate()
        mechanism = find_mechanism(self.cc_config.mechanism)
        # Once per network: the IB mechanism builds its one CCT here.
        self.build_hca_cc: Callable[[Any], Any] = mechanism.build(
            self.params, self.cc_config.resolved_options()
        )
        self.switch_cc: List[SwitchCC] = []
        self.hca_cc: List[Any] = []

    def install(self, network) -> "CCManager":
        """Activate CC on every switch and HCA of ``network``."""
        params = self.params
        self.switch_cc = []
        for switch in network.switches:
            scc = SwitchCC(switch, params)
            scc.attach()
            switch.cc = scc
            self.switch_cc.append(scc)
        if params.victim_mask_hca_ports:
            for hl in network.topology.host_links:
                self.switch_cc[hl.switch_id].set_victim_mask(hl.switch_port)
        self.hca_cc = []
        for hca in network.hcas:
            hcc = self.build_hca_cc(hca)
            hca.cc = hcc
            self.hca_cc.append(hcc)
        return self

    def attach_trace(self, tracer) -> "CCManager":
        """Point every installed CC component at ``tracer`` (or None).

        :class:`repro.trace.TraceSession` uses this for the core layer;
        callers doing manual wiring can use it directly.
        """
        for scc in self.switch_cc:
            scc.trace = tracer
        for hcc in self.hca_cc:
            hcc.trace = tracer
        return self

    # -- aggregate statistics for reports/tests -------------------------
    def total_marks(self) -> int:
        """FECN marks applied across all switches."""
        return sum(scc.marks for scc in self.switch_cc)

    def total_becns(self) -> int:
        """BECNs applied across all HCAs."""
        return sum(hcc.becns_applied for hcc in self.hca_cc)

    def throttled_flows(self) -> int:
        """Flows currently throttled network-wide."""
        return sum(hcc.throttled_flows() for hcc in self.hca_cc)
