"""Single-flight deduplication of identical simulation requests.

A campaign cell is a pure function of its config, identified by
``store.config_key``. When a thundering herd of clients submits the
same config, exactly one simulation must run: the first submission
creates a :class:`Flight`, every later submission *joins* it as a
waiter, and when the flight lands its result fans out to every waiting
cell across every waiting campaign. Completed keys never take off at
all — they are served straight from the shared
:class:`~repro.experiments.store.ResultStore`.

The registry is single-threaded by construction: it is only touched
from the daemon's event loop, so membership checks and joins are
race-free without locks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: A waiter: (campaign, cell-state) — resolved together when the
#: flight lands. Typed loosely to avoid an import cycle with service.
Waiter = Tuple[Any, Any]

FLIGHT_QUEUED = "queued"
FLIGHT_RUNNING = "running"
FLIGHT_CANCELLED = "cancelled"


@dataclass
class Flight:
    """One in-flight (or queued) simulation shared by N waiting cells."""

    key: str
    config: Any
    tenant: str       # the tenant that caused the flight (accounting)
    priority: int     # best (lowest) priority among its waiters
    seq: int          # global submission order, tie-break within priority
    state: str = FLIGHT_QUEUED
    waiters: List[Waiter] = field(default_factory=list)

    def join(self, campaign: Any, cell: Any) -> None:
        self.waiters.append((campaign, cell))
        # A high-priority join pulls a still-queued shared flight
        # forward; a running flight is already past scheduling.
        if campaign.priority < self.priority and self.state == FLIGHT_QUEUED:
            self.priority = campaign.priority

    def detach(self, campaign: Any, cell: Any) -> None:
        """Remove one waiter (cancellation); the flight itself lives on
        while any other campaign still waits or the work is running."""
        try:
            self.waiters.remove((campaign, cell))
        except ValueError:  # pragma: no cover - already detached
            pass

    @property
    def abandoned(self) -> bool:
        return not self.waiters


class SingleFlight:
    """The in-flight registry: config key → :class:`Flight`."""

    def __init__(self) -> None:
        self._flights: Dict[str, Flight] = {}
        self._seq = 0
        #: Cells that joined an existing flight instead of launching
        #: their own simulation (the dedup win counter).
        self.joins = 0

    def __len__(self) -> int:
        return len(self._flights)

    def __contains__(self, key: str) -> bool:
        return key in self._flights

    def get(self, key: str) -> Optional[Flight]:
        return self._flights.get(key)

    def open(
        self, key: str, config: Any, tenant: str, priority: int
    ) -> Flight:
        """Register a new flight for ``key`` (must not already exist)."""
        if key in self._flights:
            raise ValueError(f"flight for {key} already open")
        self._seq += 1
        flight = Flight(
            key=key, config=config, tenant=tenant,
            priority=priority, seq=self._seq,
        )
        self._flights[key] = flight
        return flight

    def join(self, key: str, campaign: Any, cell: Any) -> Flight:
        """Attach a waiter to the existing flight for ``key``."""
        flight = self._flights[key]
        flight.join(campaign, cell)
        self.joins += 1
        return flight

    def land(self, key: str) -> Optional[Flight]:
        """Remove and return the flight for ``key`` (terminal)."""
        return self._flights.pop(key, None)

    def all(self) -> List[Flight]:
        return list(self._flights.values())
