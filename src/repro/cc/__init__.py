"""Pluggable congestion control (the ``repro arena``'s subject).

The paper studies one mechanism — InfiniBand's FECN/BECN CCT
throttling. This package turns the mechanism into an axis: a
:class:`CongestionControl` protocol extracted from the seed reaction
point, the :data:`MECHANISMS` tuple of :class:`Mechanism` entries, and
:class:`CCConfig` to select one per experiment:

* ``"dcqcn"`` — RCM-style reaction point with byte counter and
  per-VL pause interaction;
* ``"dctcp"`` — ECN-fraction EWMA scaling;
* ``"ib"`` — the paper's CCT mechanism (byte-identical default);
* ``"reno"`` — AIMD window-halving mapped to injection rate.

A new mechanism is one more entry, kept in name order.
"""

from __future__ import annotations

from typing import Any, Callable, List, Mapping

from repro.cc.base import FULL_RATE_SNAP, CongestionControl, Mechanism, RateBasedCC
from repro.cc.config import (
    DEFAULT_MECHANISM,
    CCConfig,
    cc_config_from_dict,
    cc_config_to_dict,
)
from repro.cc.dcqcn import DCQCN
from repro.cc.dctcp import DCTCP
from repro.cc.reno import RENO
from repro.core.cct import build_cct
from repro.core.hca_cc import HcaCC
from repro.core.parameters import CCParams


def _build_ib(params: CCParams, options: Mapping[str, Any]) -> Callable[..., HcaCC]:
    # One CCT for the whole network, shared by every HCA's HcaCC.
    cct: List[float] = build_cct(
        params.ccti_limit, shape=params.cct_shape, slope=params.cct_slope
    )
    return lambda hca: HcaCC(hca, params, cct)


IB = Mechanism(
    "ib",
    _build_ib,
    # Its knobs are the CCParams (Table I) every mechanism receives.
    defaults={},
    description=(
        "InfiniBand CCT throttling (the paper's mechanism): BECNs bump a "
        "per-flow CCT index, a periodic timer decays it, the table entry "
        "sets the injection-rate delay"
    ),
)

#: Every mechanism, sorted by name (the arena's column order).
MECHANISMS = (DCQCN, DCTCP, IB, RENO)


def find_mechanism(name: str) -> Mechanism:
    """The entry called ``name``; raises ``ValueError`` naming the options."""
    for mechanism in MECHANISMS:
        if mechanism.name == name:
            return mechanism
    raise ValueError(
        f"unknown CC mechanism {name!r}; registered: "
        + ", ".join(m.name for m in MECHANISMS)
    )


__all__ = [
    "FULL_RATE_SNAP",
    "CongestionControl",
    "RateBasedCC",
    "Mechanism",
    "MECHANISMS",
    "find_mechanism",
    "DEFAULT_MECHANISM",
    "CCConfig",
    "cc_config_from_dict",
    "cc_config_to_dict",
]
