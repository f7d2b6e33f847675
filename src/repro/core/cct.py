"""Congestion Control Table construction.

The CCT maps a flow's current index (CCTI) to an *injection rate
delay* (IRD): the extra gap inserted between consecutive packets of
the flow, computed relative to the packet's own length (per the spec:
"the IRD calculation being relative to the packet length"). A flow at
index ``i`` whose packets take ``ser`` ns to serialize may inject at
most one packet every ``ser * (1 + CCT[i])`` ns — i.e. it runs at
``1 / (1 + CCT[i])`` of link rate
(:meth:`repro.core.hca_cc.HcaCC.on_inject` applies it).

The spec does not prescribe table contents. We provide:

* ``linear`` — ``CCT[i] = slope * i`` (default). The slope is the
  paper's "CCT values increased to reflect the larger number of
  possible contributors" knob: the deepest throttle is
  ``1 / (1 + slope * CCTI_Limit)`` of link rate, which must cover the
  per-hotspot fair share. The default 0.5 (deepest 1/64.5) suits the
  benchmark-scale fat-trees (<= ~30 contributors per hotspot); a full
  648-node run with ~65 contributors per hotspot should use slope 2-4;
* ``exponential`` — ``CCT[i] = 2^(i * slope / 16) - 1``, a
  doubling-style table some firmware uses.
"""

from __future__ import annotations

from typing import List


def build_cct(
    limit: int, *, shape: str = "linear", slope: float = 4.0
) -> List[float]:
    """Build a CCT with ``limit + 1`` entries (indices 0..limit).

    ``CCT[0]`` is always 0: a flow at index zero experiences no IRD.
    Entries are non-negative and non-decreasing.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if slope < 0:
        raise ValueError("slope must be >= 0")
    if shape == "linear":
        table = [slope * i for i in range(limit + 1)]
    elif shape == "exponential":
        table = [2.0 ** (i * slope / 16.0) - 1.0 for i in range(limit + 1)]
    else:
        raise ValueError(f"unknown CCT shape: {shape!r}")
    return table

