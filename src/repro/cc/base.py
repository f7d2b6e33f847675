"""The congestion-control protocol and the shared rate-based scaffold.

:class:`CongestionControl` is the contract every mechanism satisfies —
it is exactly the surface the rest of the simulator already consumes
(:meth:`~repro.network.hca.Hca.pull` calls ``on_inject``,
:meth:`~repro.network.hca.Hca.on_packet_received` calls ``on_becn``,
:class:`~repro.traffic.generators.BNodeSource` gates eligibility on
``next_allowed``, :mod:`repro.faults` drives ``freeze``/``thaw``, and
:class:`~repro.core.manager.CCManager` sums the counters).

:class:`Mechanism` is one entry of :data:`repro.cc.MECHANISMS`: a name,
the ``build(params, options)`` callable that runs once per network and
returns the per-HCA constructor, the tunable options with their
defaults, and a one-line description.

:class:`RateBasedCC` is the scaffold the non-IB mechanisms share: a
per-flow *injection-rate fraction* ``r`` in ``(0, 1]`` replaces the IB
CCT index. A flow at fraction ``r`` whose packets serialize in ``ser``
ns may start its next packet no earlier than ``ser / r`` after the
previous one — the same inter-packet-gap semantics as the IB CCT's
``ser * (1 + CCT[i])`` with ``r = 1 / (1 + CCT[i])``, so every
mechanism is throttling the very same injection path. Subclasses only
implement how feedback and the periodic timer move ``r``:

* rate changes happen **only** inside ``_on_feedback`` (a BECN/CNP
  arrived) or ``_on_timer`` (the recovery timer fired) — the property
  the hypothesis suite pins;
* with no feedback, successive timer fires must never decrease ``r``
  and must eventually restore ``r = 1`` (monotone recovery).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Mapping,
    Optional,
    Protocol,
    runtime_checkable,
)

from repro.core.parameters import CCParams
from repro.network.packet import FlowKey, Packet

if TYPE_CHECKING:
    from repro.network.hca import Hca

#: Rates are snapped to exactly 1.0 once within this distance, so a
#: geometric recovery (e.g. DCQCN's (target+rate)/2) terminates and the
#: timer can stop rearming on a fully recovered flow.
FULL_RATE_SNAP = 1e-3


@dataclass(frozen=True)
class Mechanism:
    """One congestion-control mechanism the arena can install.

    ``defaults`` is the universe of tunable options that
    :meth:`repro.cc.config.CCConfig.validate` checks overrides against.
    """

    name: str
    build: Callable[[CCParams, Mapping[str, Any]], Callable[["Hca"], Any]]
    defaults: Mapping[str, Any]
    description: str


@runtime_checkable
class CongestionControl(Protocol):
    """What the HCA, generators, faults and stats expect of ``hca.cc``."""

    becns_applied: int
    timer_fires: int
    frozen: bool
    trace: Optional[Any]

    def on_inject(self, pkt: Packet) -> None:
        """A data packet of a flow entered the output buffer."""

    def on_becn(self, flow: FlowKey, sl: int = 0) -> None:
        """A congestion notification arrived for ``flow``."""

    def next_allowed(self, flow: FlowKey, sl: int = 0) -> float:
        """Earliest virtual time ``flow`` may inject its next packet."""

    def rate_of(self, flow: FlowKey, sl: int = 0) -> float:
        """Current injection-rate fraction of ``flow`` in ``(0, 1]``."""

    def freeze(self) -> None:
        """Fault injection: hold the recovery timer."""

    def thaw(self) -> None:
        """Resume recovery after :meth:`freeze`."""

    def throttled_flows(self) -> int:
        """Number of flows currently below full injection rate."""

    def deepest_level(self) -> int:
        """Severity of the deepest throttle (mechanism-defined integer
        scale; 0 when nothing is throttled)."""


class _RateState:
    """Per-flow state of a rate-based mechanism.

    ``extra`` holds mechanism-specific scalars (EWMA alpha, byte
    counters, ...) so subclasses stay slot-friendly without each
    defining its own state class.
    """

    __slots__ = ("rate", "next_time", "extra")

    def __init__(self) -> None:
        self.rate = 1.0
        self.next_time = 0.0
        self.extra: Dict[str, float] = {}


class RateBasedCC:
    """Shared reaction-point scaffold for rate-based mechanisms."""

    #: Mechanism name; subclasses override.
    name = "rate"

    __slots__ = (
        "hca",
        "params",
        "options",
        "min_rate",
        "timer_period_ns",
        "_states",
        "_timer_pending",
        "_byte_time",
        "becns_applied",
        "timer_fires",
        "frozen",
        "trace",
    )

    def __init__(self, hca: "Hca", params: CCParams, options: Mapping[str, Any]) -> None:
        self.hca = hca
        self.params = params
        self.options = dict(options)
        self.min_rate = float(self.options.get("min_rate", 1.0 / 256.0))
        if not 0.0 < self.min_rate <= 1.0:
            raise ValueError("min_rate must be in (0, 1]")
        # Recovery cadence defaults to the IB CCTI timer period so the
        # mechanisms are compared under the same feedback/decay clock.
        self.timer_period_ns = float(
            self.options.get("timer_period_ns", params.timer_period_ns)
        )
        if self.timer_period_ns <= 0:
            raise ValueError("timer_period_ns must be positive")
        self._states: Dict[Hashable, _RateState] = {}
        self._timer_pending = False
        self._byte_time = hca.obuf.link.byte_time_ns
        self.becns_applied = 0
        self.timer_fires = 0
        self.frozen = False  # fault injection: recovery timer held
        self.trace = None  # tracer (repro.trace), or None

    @classmethod
    def build(
        cls, params: CCParams, options: Mapping[str, Any]
    ) -> Callable[["Hca"], "RateBasedCC"]:
        """:attr:`Mechanism.build`: no per-network state to share."""
        return lambda hca: cls(hca, params, options)

    # -- keying (same QP/SL modes as the IB reaction point) -------------
    def _key(self, flow: FlowKey, sl: int = 0) -> Hashable:
        return flow if self.params.cc_mode == "qp" else sl

    # -- queries used by traffic generators ------------------------------
    def next_allowed(self, flow: FlowKey, sl: int = 0) -> float:
        state = self._states.get(self._key(flow, sl))
        if state is None or state.rate >= 1.0:
            return 0.0
        return state.next_time

    def rate_of(self, flow: FlowKey, sl: int = 0) -> float:
        state = self._states.get(self._key(flow, sl))
        return 1.0 if state is None else state.rate

    # -- event hooks ------------------------------------------------------
    def on_inject(self, pkt: Packet) -> None:
        state = self._states.get(self._key(pkt.flow, pkt.sl))
        if state is None:
            return
        self._count_inject(state, pkt)
        if state.rate >= 1.0:
            return
        ser = pkt.wire_size * self._byte_time
        state.next_time = self.hca.sim.now + ser / state.rate

    def on_becn(self, flow: FlowKey, sl: int = 0) -> None:
        key = self._key(flow, sl)
        state = self._states.get(key)
        if state is None:
            state = _RateState()
            self._states[key] = state
        self.becns_applied += 1
        if self.trace is not None:
            self.trace.becn(self.hca.sim.now, self.hca.node_id, flow[0], flow[1], sl)
        old = state.rate
        self._on_feedback(state)
        self._note_rate_change(key, sl, old, state)
        self._ensure_timer()

    # -- recovery timer ---------------------------------------------------
    def _ensure_timer(self) -> None:
        if not self._timer_pending:
            self._timer_pending = True
            self.hca.sim.schedule(self.timer_period_ns, self._timer_fire)

    def _timer_fire(self) -> None:
        self._timer_pending = False
        if self.frozen:
            # Fault injection: a frozen timer neither recovers nor
            # rearms; thaw() restarts recovery.
            return
        self.timer_fires += 1
        any_active = False
        changed = 0
        for key, state in self._states.items():
            old = state.rate
            self._on_timer(state)
            if state.rate != old:
                changed += 1
                sl = key if isinstance(key, int) else 0
                self._note_rate_change(key, sl, old, state)
            if state.rate < 1.0 or self._keeps_timer(state):
                any_active = True
        if self.trace is not None:
            self.trace.timer_fire(self.hca.sim.now, self.hca.node_id, changed)
        if any_active:
            self._ensure_timer()
        # A flow may now be allowed earlier than the generator planned.
        self.hca.kick()

    # -- fault injection (repro.faults) -----------------------------------
    def freeze(self) -> None:
        """Hold the recovery timer: rates stop recovering."""
        self.frozen = True

    def thaw(self) -> None:
        """Resume recovery; rearms the timer if any flow is throttled."""
        if not self.frozen:
            return
        self.frozen = False
        if any(
            s.rate < 1.0 or self._keeps_timer(s) for s in self._states.values()
        ):
            self._ensure_timer()

    # -- introspection ----------------------------------------------------
    def throttled_flows(self) -> int:
        return sum(1 for s in self._states.values() if s.rate < 1.0)

    def deepest_level(self) -> int:
        """Percent slowdown of the most-throttled flow (0..99)."""
        deepest = 0
        for state in self._states.values():
            level = int(round((1.0 - state.rate) * 100.0))
            if level > deepest:
                deepest = level
        return deepest

    # -- subclass surface --------------------------------------------------
    def _on_feedback(self, state: _RateState) -> None:
        """React to one congestion notification (must only lower or
        hold ``state.rate``)."""
        raise NotImplementedError

    def _on_timer(self, state: _RateState) -> None:
        """One recovery period elapsed (must never lower ``state.rate``
        when no feedback arrived since the last fire)."""
        raise NotImplementedError

    def _count_inject(self, state: _RateState, pkt: Packet) -> None:
        """Optional per-injection accounting (byte/packet counters)."""

    def _keeps_timer(self, state: _RateState) -> bool:
        """Whether a full-rate flow still needs timer service (e.g. an
        EWMA that has not fully decayed)."""
        return False

    # -- shared helpers ----------------------------------------------------
    def _clamp(self, rate: float) -> float:
        """Clamp into ``[min_rate, 1]``, snapping near-full to 1.0."""
        if rate < self.min_rate:
            return self.min_rate
        if rate >= 1.0 - FULL_RATE_SNAP:
            return 1.0
        return rate

    def _note_rate_change(
        self, key: Hashable, sl: int, old: float, state: _RateState
    ) -> None:
        if self.trace is not None and state.rate != old:
            ksrc, kdst = key if self.params.cc_mode == "qp" else (-1, sl)
            self.trace.rate_change(
                self.hca.sim.now, self.hca.node_id, ksrc, kdst, old, state.rate
            )
