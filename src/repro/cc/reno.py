"""Reno-style AIMD (mechanism ``"reno"``).

The classic TCP-Reno congestion response mapped from a window onto the
injection-rate fraction (the exemplar ``Flow.on_ack`` dispatch in the
cloudcomputing congestion-sim does the same mapping at cwnd level):

* **multiplicative decrease** — every congestion notification halves
  the flow's rate (``md``, default 0.5), floored at ``min_rate``;
* **additive increase** — every recovery-timer period adds a fixed
  fraction of link rate (``ai``) until the flow is back at full rate.

Compared with the IB CCT the response to one notification is far
blunter (one BECN costs half the rate; one CCTI bump costs one table
step), which is exactly the contrast the arena is built to measure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.cc.base import Mechanism, RateBasedCC, _RateState
from repro.core.parameters import CCParams

if TYPE_CHECKING:
    from repro.network.hca import Hca


class RenoCC(RateBasedCC):
    """AIMD reaction point: halve on feedback, creep back on timer."""

    name = "reno"

    __slots__ = ("md", "ai")

    def __init__(
        self, hca: "Hca", params: CCParams, options: Mapping[str, Any]
    ) -> None:
        super().__init__(hca, params, options)
        self.md = float(self.options["md"])
        if not 0.0 < self.md < 1.0:
            raise ValueError("md (multiplicative decrease) must be in (0, 1)")
        self.ai = float(self.options["ai"])
        if self.ai <= 0.0:
            raise ValueError("ai (additive increase) must be positive")

    def _on_feedback(self, state: _RateState) -> None:
        state.rate = self._clamp(state.rate * self.md)

    def _on_timer(self, state: _RateState) -> None:
        if state.rate < 1.0:
            state.rate = self._clamp(state.rate + self.ai)


RENO = Mechanism(
    "reno",
    RenoCC.build,
    defaults={
        "md": 0.5,  # rate multiplier per congestion notification
        "ai": 0.05,  # link-rate fraction regained per timer period
        "min_rate": 1.0 / 256.0,
        # timer_period_ns defaults to the CCParams CCTI timer period.
    },
    description=(
        "Reno-style AIMD mapped to injection rate: halve on every "
        "notification, additively recover each timer period"
    ),
)
