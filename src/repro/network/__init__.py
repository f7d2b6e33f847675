"""InfiniBand network substrate.

Packet-level models of the components the paper's OMNeT++ simulator is
built from (section IV of the paper):

* :class:`~repro.network.packet.Packet` — the unit of transfer, with
  FECN/BECN congestion-notification bits;
* :class:`~repro.network.ports.OutputPort` — an *obuf*: link
  serialization plus credit-based link-level flow control;
* :class:`~repro.network.ports.SwitchInputPort` — an *ibuf*: per-VL
  shared buffer space with virtual output queues (VoQ);
* :class:`~repro.network.arbiter.VLArbiter` — the *vlarb*: round-robin
  arbitration over (input port, VL) pairs per output port;
* :class:`~repro.network.switch.Switch` — a crossbar of SwitchPorts
  routing by linear forwarding table;
* :class:`~repro.network.hca.Hca` — Host Channel Adapter: traffic
  generator (*gen*), sink, and the CC reaction point;
* :class:`~repro.network.network.Network` — wiring, configuration and
  simulation entry point.
"""

from repro.network.packet import Packet, FlowKey
from repro.network.ports import OutputPort, SwitchInputPort, LinkConfig
from repro.network.arbiter import VLArbiter
from repro.network.switch import Switch
from repro.network.hca import Hca, HcaConfig
from repro.network.network import Network, NetworkConfig
from repro.network.adaptive import AdaptiveUpRouter, install_adaptive_routing
from repro.network.vlarb import VlArbitrationTable, install_vl_arbitration
from repro.network.deadlock import DeadlockWatchdog, DeadlockReport, detect_deadlock
from repro.network.degrade import degrade_link, degrade_uplink_between

__all__ = [
    "Packet",
    "FlowKey",
    "OutputPort",
    "SwitchInputPort",
    "LinkConfig",
    "VLArbiter",
    "Switch",
    "Hca",
    "HcaConfig",
    "Network",
    "NetworkConfig",
    "AdaptiveUpRouter",
    "install_adaptive_routing",
    "VlArbitrationTable",
    "install_vl_arbitration",
    "DeadlockWatchdog",
    "DeadlockReport",
    "detect_deadlock",
    "degrade_link",
    "degrade_uplink_between",
]
