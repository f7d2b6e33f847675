"""HCA-side congestion control: the reaction point.

Each BECN received for a flow bumps the flow's index into the
Congestion Control Table by ``CCTI_Increase`` (saturating at
``CCTI_Limit``); the table entry then dictates the injection rate
delay between that flow's packets. A per-HCA recovery timer
(``CCTI_Timer``, maintained per SL in the spec) decrements every
flow's index each period, restoring the injection rate once congestion
notifications stop.

Operation modes (paper section II.2):

* ``"qp"`` — state is kept per flow (queue pair). Only the flow that
  contributed to congestion is throttled. This is what the paper uses.
* ``"sl"`` — state is kept per service level: one BECN throttles every
  flow of that SL at this HCA, including innocent ones. Implemented
  for the ablation benchmarks quantifying the paper's claim that SL
  mode hurts fairness and performance.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

from repro.core.parameters import CCParams
from repro.network.packet import FlowKey, Packet


class _FlowState:
    __slots__ = ("ccti", "next_time")

    def __init__(self) -> None:
        self.ccti = 0
        self.next_time = 0.0


class HcaCC:
    """CC reaction-point state for one HCA."""

    __slots__ = (
        "hca",
        "params",
        "cct",
        "_states",
        "_timer_pending",
        "_byte_time",
        "becns_applied",
        "timer_fires",
        "frozen",
        "trace",
    )

    def __init__(self, hca, params: CCParams, cct: List[float]) -> None:
        self.hca = hca
        self.params = params
        self.cct = cct  # repro.core.cct.build_cct, one table per network
        if len(self.cct) < params.ccti_limit + 1:
            raise ValueError("CCT shorter than CCTI_Limit + 1")
        self._states: Dict[Hashable, _FlowState] = {}
        self._timer_pending = False
        self._byte_time = hca.obuf.link.byte_time_ns
        self.becns_applied = 0
        self.timer_fires = 0
        self.frozen = False  # fault injection: recovery timer held
        self.trace = None  # tracer (repro.trace), or None

    # -- keying ----------------------------------------------------------
    def _key(self, flow: FlowKey, sl: int = 0) -> Hashable:
        return flow if self.params.cc_mode == "qp" else sl

    # -- queries used by traffic generators -----------------------------
    def next_allowed(self, flow: FlowKey, sl: int = 0) -> float:
        """Earliest virtual time the next packet of ``flow`` may inject."""
        states = self._states
        if not states:  # no BECN yet: nothing to look up
            return 0.0
        state = states.get(self._key(flow, sl))
        if state is None or state.ccti <= 0:
            return 0.0
        return state.next_time

    def ccti_of(self, flow: FlowKey, sl: int = 0) -> int:
        """Current CCT index of ``flow`` (0 when unthrottled)."""
        state = self._states.get(self._key(flow, sl))
        return 0 if state is None else state.ccti

    def rate_of(self, flow: FlowKey, sl: int = 0) -> float:
        """Injection-rate fraction implied by the flow's CCT entry.

        ``1 / (1 + CCT[i])``: the IRD spaces packets ``ser * (1 + CCT[i])``
        apart, i.e. the flow runs at that fraction of link rate. This is
        the :class:`repro.cc.base.CongestionControl` view of the same
        state :meth:`ccti_of` exposes natively.
        """
        state = self._states.get(self._key(flow, sl))
        if state is None or state.ccti <= 0:
            return 1.0
        return 1.0 / (1.0 + self.cct[state.ccti])

    # -- event hooks -------------------------------------------------
    def on_inject(self, pkt: Packet) -> None:
        """Track the flow's IRD horizon as a packet enters the obuf."""
        states = self._states
        if not states:  # no BECN yet: nothing to look up
            return
        state = states.get(self._key(pkt.flow, pkt.sl))
        if state is None or state.ccti <= 0:
            return
        ser = pkt.wire_size * self._byte_time
        state.next_time = self.hca.sim.now + ser * (1.0 + self.cct[state.ccti])

    def on_becn(self, flow: FlowKey, sl: int = 0) -> None:
        """A BECN arrived for ``flow``: deepen its throttle."""
        key = self._key(flow, sl)
        state = self._states.get(key)
        if state is None:
            state = _FlowState()
            self._states[key] = state
        old = state.ccti
        state.ccti = min(state.ccti + self.params.ccti_increase, self.params.ccti_limit)
        self.becns_applied += 1
        if self.trace is not None:
            now = self.hca.sim.now
            node = self.hca.node_id
            self.trace.becn(now, node, flow[0], flow[1], sl)
            ksrc, kdst = key if self.params.cc_mode == "qp" else (-1, sl)
            self.trace.ccti_change(now, node, ksrc, kdst, old, state.ccti)
        self._ensure_timer()

    # -- recovery timer ----------------------------------------------
    def _ensure_timer(self) -> None:
        if not self._timer_pending:
            self._timer_pending = True
            self.hca.sim.schedule(self.params.timer_period_ns, self._timer_fire)

    def _timer_fire(self) -> None:
        self._timer_pending = False
        if self.frozen:
            # Fault injection: a frozen timer neither decrements nor
            # rearms; thaw() restarts recovery.
            return
        self.timer_fires += 1
        floor = self.params.ccti_min
        any_active = False
        decremented = 0
        for state in self._states.values():
            if state.ccti > floor:
                state.ccti -= 1
                decremented += 1
                if state.ccti > floor:
                    any_active = True
        if self.trace is not None:
            self.trace.timer_fire(self.hca.sim.now, self.hca.node_id, decremented)
        if any_active:
            self._ensure_timer()
        # A flow may now be allowed earlier than the generator planned.
        self.hca.kick()

    # -- fault injection (repro.faults) --------------------------------
    def freeze(self) -> None:
        """Hold the recovery timer: CCT indices stop decaying."""
        self.frozen = True

    def thaw(self) -> None:
        """Resume recovery; rearms the timer if any flow is throttled."""
        if not self.frozen:
            return
        self.frozen = False
        floor = self.params.ccti_min
        if any(s.ccti > floor for s in self._states.values()):
            self._ensure_timer()

    # -- introspection -------------------------------------------------
    def throttled_flows(self) -> int:
        """Number of flows currently holding a non-zero CCTI."""
        return sum(1 for s in self._states.values() if s.ccti > 0)

    def deepest_level(self) -> int:
        """Deepest current CCT index (the mechanism's severity scale)."""
        deepest = 0
        for state in self._states.values():
            if state.ccti > deepest:
                deepest = state.ccti
        return deepest
