"""Traffic generation: the paper's C, V and B nodes.

Section III of the paper defines three node roles:

* **C nodes** — pure contributors: all traffic to a designated hotspot;
* **V nodes** — potential victims: uniform destinations only;
* **B nodes** — send fraction *p* of their traffic to their hotspot and
  *1 − p* uniformly, with the two shares accounted against simulation
  time *independently* (Frame I) so neither stream can starve or
  HOL-block the other inside the generator.

All three are one generator class, :class:`BNodeSource`, at p = 1,
p = 0 and 0 < p < 1 respectively. Hotspot targets come from a
:class:`HotspotSchedule`, which also implements the moving hotspots of
section V-C.
"""

from repro.traffic.budgets import TokenBudget
from repro.traffic.generators import BNodeSource, FixedRateSource
from repro.traffic.hotspots import HotspotSchedule
from repro.traffic.mixes import NodeMix, assign_roles

__all__ = [
    "TokenBudget",
    "BNodeSource",
    "FixedRateSource",
    "HotspotSchedule",
    "NodeMix",
    "assign_roles",
]
