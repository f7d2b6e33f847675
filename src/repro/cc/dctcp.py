"""DCTCP-style ECN-fraction EWMA scaling (mechanism ``"dctcp"``).

DCTCP's insight is to scale the congestion response to the *extent* of
congestion: maintain an EWMA ``alpha`` of the fraction of packets that
came back marked and cut by ``alpha / 2`` instead of a blunt half.
Mapped onto this simulator's reaction point:

* per flow, packets injected and notifications received are counted
  over each recovery-timer period (one "observation window" — the
  closest analogue of DCTCP's per-RTT accounting that exists at the
  injection side of a fabric without acks);
* at every timer fire the window closes: ``F = marked / sent``,
  ``alpha = (1 - g) * alpha + g * F`` with gain ``g``;
* a window that saw congestion cuts ``rate *= 1 - alpha / 2``; a clean
  window recovers additively (``ai``) toward full rate.

All rate changes therefore happen on the timer (window close) or not
at all — feedback only marks the window — which satisfies the arena's
no-spontaneous-rate-change invariant by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.cc.base import Mechanism, RateBasedCC, _RateState
from repro.core.parameters import CCParams
from repro.network.packet import Packet

if TYPE_CHECKING:
    from repro.network.hca import Hca


class DctcpCC(RateBasedCC):
    """ECN-fraction EWMA reaction point."""

    name = "dctcp"

    __slots__ = ("gain", "ai")

    def __init__(
        self, hca: "Hca", params: CCParams, options: Mapping[str, Any]
    ) -> None:
        super().__init__(hca, params, options)
        self.gain = float(self.options["gain"])
        if not 0.0 < self.gain <= 1.0:
            raise ValueError("gain must be in (0, 1]")
        self.ai = float(self.options["ai"])
        if self.ai <= 0.0:
            raise ValueError("ai (additive increase) must be positive")

    def _on_feedback(self, state: _RateState) -> None:
        # Feedback only marks the current observation window; the rate
        # moves when the window closes at the next timer fire.
        state.extra["marked"] = state.extra.get("marked", 0.0) + 1.0

    def _count_inject(self, state: _RateState, pkt: Packet) -> None:
        state.extra["sent"] = state.extra.get("sent", 0.0) + 1.0

    def _on_timer(self, state: _RateState) -> None:
        marked = state.extra.get("marked", 0.0)
        sent = state.extra.get("sent", 0.0)
        alpha = state.extra.get("alpha", 0.0)
        # Notifications are CNP-coalesced (one may stand for a burst of
        # marks), so the fraction saturates at 1 rather than dividing
        # marked packets by marked notifications.
        fraction = min(1.0, marked / sent) if sent > 0.0 else (1.0 if marked else 0.0)
        alpha = (1.0 - self.gain) * alpha + self.gain * fraction
        state.extra["alpha"] = alpha
        state.extra["marked"] = 0.0
        state.extra["sent"] = 0.0
        if marked > 0.0:
            state.rate = self._clamp(state.rate * (1.0 - alpha / 2.0))
        elif state.rate < 1.0:
            state.rate = self._clamp(state.rate + self.ai)

    def _keeps_timer(self, state: _RateState) -> bool:
        # Keep serving a full-rate flow while its window still has
        # unprocessed marks (a notification may land between fires).
        return state.extra.get("marked", 0.0) > 0.0


DCTCP = Mechanism(
    "dctcp",
    DctcpCC.build,
    defaults={
        "gain": 1.0 / 16.0,  # DCTCP's g: EWMA weight of the new window
        "ai": 0.05,  # link-rate fraction regained per clean window
        "min_rate": 1.0 / 256.0,
    },
    description=(
        "DCTCP-style scaling: EWMA of the per-window notification "
        "fraction sets the cut depth (rate *= 1 - alpha/2); clean "
        "windows recover additively"
    ),
)
