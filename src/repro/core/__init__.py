"""The InfiniBand Congestion Control mechanism (IB spec 1.2.1, annex A10).

This package is the paper's subject: the closed-loop FECN/BECN rate
throttling system.

* :class:`~repro.core.parameters.CCParams` — every parameter of the
  paper's Table I plus the CCT population knobs;
* :mod:`repro.core.cct` — Congestion Control Table construction;
* :class:`~repro.core.switch_cc.SwitchCC` — switch-side congestion
  detection (threshold weight, root-vs-victim rule, ``Victim_Mask``)
  and FECN marking (``Packet_Size``, ``Marking_Rate``);
* :class:`~repro.core.hca_cc.HcaCC` — source-side reaction point:
  per-QP (or per-SL) CCT index, ``CCTI_Increase``/``Limit``/``Min``,
  ``CCTI_Timer`` recovery;
* :class:`~repro.core.manager.CCManager` — the Congestion Control
  Manager that configures a whole network with any mechanism of
  :data:`repro.cc.MECHANISMS`.
"""

from repro.core.parameters import CCParams
from repro.core.cct import build_cct
from repro.core.switch_cc import SwitchCC
from repro.core.hca_cc import HcaCC
from repro.core.manager import CCManager

__all__ = ["CCParams", "build_cct", "SwitchCC", "HcaCC", "CCManager"]
