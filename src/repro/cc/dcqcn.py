"""DCQCN/RCM-style reaction point (mechanism ``"dcqcn"``).

The RoCEv2 Rate-based Congestion Management reaction point (Liu et
al.'s PFC/RCM model, PAPERS.md), adapted to this simulator's feedback
plumbing (switch FECN marks → destination CNPs → source BECNs):

* **cut** — every CNP updates ``alpha = (1 - g) * alpha + g`` and cuts
  ``rate *= 1 - alpha / 2``, remembering the pre-cut rate as the
  *target rate*;
* **recovery** — increase events average the rate halfway back toward
  the target: the first ``fast_recovery_rounds`` events are *fast
  recovery* (target unchanged); subsequent events are *active
  increase* (target itself climbs by ``rai`` of link rate). Increase
  events come from the rate-increase **timer** and from the **byte
  counter** (every ``byte_counter`` injected bytes earns one extra
  event, folded in at the next timer fire so all rate changes stay on
  the feedback/timer clock and the no-spontaneous-change invariant
  holds); ``alpha`` also decays by ``g`` per timer period when no CNP
  arrived;
* **per-VL pause interaction** — a reaction point whose local output
  buffer VL is backed up past ``pause_threshold`` (fraction of obuf
  capacity, the PFC XOFF analogue) skips its increase events: ramping
  into a paused/backpressured VL only grows the head-of-line queue the
  pause exists to bound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.cc.base import Mechanism, RateBasedCC, _RateState
from repro.core.parameters import CCParams
from repro.network.packet import Packet

if TYPE_CHECKING:
    from repro.network.hca import Hca


class DcqcnCC(RateBasedCC):
    """RCM reaction point: alpha-scaled cuts, staged recovery."""

    name = "dcqcn"

    __slots__ = ("gain", "rai", "fast_rounds", "byte_counter", "pause_threshold")

    def __init__(
        self, hca: "Hca", params: CCParams, options: Mapping[str, Any]
    ) -> None:
        super().__init__(hca, params, options)
        self.gain = float(self.options["gain"])
        if not 0.0 < self.gain <= 1.0:
            raise ValueError("gain must be in (0, 1]")
        self.rai = float(self.options["rai"])
        if self.rai <= 0.0:
            raise ValueError("rai (active-increase step) must be positive")
        self.fast_rounds = int(self.options["fast_recovery_rounds"])
        if self.fast_rounds < 0:
            raise ValueError("fast_recovery_rounds must be >= 0")
        self.byte_counter = int(self.options["byte_counter"])
        if self.byte_counter <= 0:
            raise ValueError("byte_counter must be positive")
        self.pause_threshold = float(self.options["pause_threshold"])
        if not 0.0 < self.pause_threshold <= 1.0:
            raise ValueError("pause_threshold must be in (0, 1]")

    # -- cut ---------------------------------------------------------------
    def _on_feedback(self, state: _RateState) -> None:
        alpha = (1.0 - self.gain) * state.extra.get("alpha", 0.0) + self.gain
        state.extra["alpha"] = alpha
        state.extra["target"] = max(state.rate, self.min_rate)
        state.extra["rounds"] = 0.0
        state.extra["cnp_seen"] = 1.0
        state.rate = self._clamp_no_snap(state.rate * (1.0 - alpha / 2.0))

    # -- recovery ----------------------------------------------------------
    def _count_inject(self, state: _RateState, pkt: Packet) -> None:
        state.extra["bytes"] = state.extra.get("bytes", 0.0) + pkt.wire_size

    def _on_timer(self, state: _RateState) -> None:
        if not state.extra.get("cnp_seen"):
            # Quiet period: alpha keeps decaying toward zero.
            state.extra["alpha"] = (1.0 - self.gain) * state.extra.get("alpha", 0.0)
        state.extra["cnp_seen"] = 0.0
        if state.rate >= 1.0:
            return
        if self._vl_paused():
            # PFC-style pause interaction: hold increase events while
            # the local VL is backpressured past the XOFF threshold.
            return
        # One timer event plus one per byte_counter bytes sent since
        # the last fire (the RCM byte counter, folded into timer time).
        events = 1 + int(state.extra.get("bytes", 0.0) // self.byte_counter)
        state.extra["bytes"] = 0.0
        for _ in range(events):
            self._increase(state)
            if state.rate >= 1.0:
                break

    def _increase(self, state: _RateState) -> None:
        target = state.extra.get("target", 1.0)
        rounds = state.extra.get("rounds", 0.0)
        if rounds >= self.fast_rounds:
            target = min(1.0, target + self.rai)
        state.extra["target"] = target
        state.extra["rounds"] = rounds + 1.0
        # Halfway toward target; the base clamp snaps ~1 to exactly 1.
        state.rate = self._clamp(max(state.rate, (target + state.rate) / 2.0))

    def _vl_paused(self) -> bool:
        """Whether any HCA output-buffer VL queue is past XOFF."""
        obuf = self.hca.obuf
        threshold = self.pause_threshold * obuf.capacity
        return any(
            sum(p.wire_size for p in q) >= threshold for q in obuf.queues
        )

    def _keeps_timer(self, state: _RateState) -> bool:
        # Alpha decay continues after full recovery until negligible.
        return state.extra.get("alpha", 0.0) > 1e-6

    def _clamp_no_snap(self, rate: float) -> float:
        """Cut-side clamp: floor only (a cut must never snap up to 1)."""
        return rate if rate >= self.min_rate else self.min_rate


DCQCN = Mechanism(
    "dcqcn",
    DcqcnCC.build,
    defaults={
        "gain": 1.0 / 16.0,  # g: alpha EWMA weight per CNP / decay per period
        "rai": 0.05,  # active-increase target step (link-rate fraction)
        "fast_recovery_rounds": 5,
        "byte_counter": 150_000,  # bytes per extra increase event
        "pause_threshold": 0.5,  # obuf VL fraction acting as PFC XOFF
        "min_rate": 1.0 / 256.0,
    },
    description=(
        "DCQCN/RCM reaction point: alpha-scaled multiplicative cuts per "
        "CNP, fast-recovery then active-increase ramp driven by the "
        "rate-increase timer and byte counter, holding increases while "
        "the local VL is pause-backpressured"
    ),
)
