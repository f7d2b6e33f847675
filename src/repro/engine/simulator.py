"""The discrete-event simulator core.

A :class:`Simulator` owns the virtual clock and the pending-event
queue. Components schedule callables at absolute or relative virtual
times; the event loop pops events in ``(time, sequence)`` order, so
simultaneous events run in their scheduling order, which keeps runs
deterministic for a fixed seed.

Design notes (hot path):

* events are plain tuples ``(time, seq, fn, arg)`` on a binary heap
  (``heapq``); ``seq`` is unique, so tuple comparison never reaches
  the callable;
* cancellation is handled with a tombstone set keyed by sequence number
  rather than queue surgery (O(1) cancel, lazily discarded on pop);
* the loop body avoids attribute lookups by binding locals.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, List, Optional, Set, Tuple

#: One pending event: ``(time, seq, fn, arg)``.
Entry = Tuple[float, int, Callable, Any]


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests or a corrupted event loop."""


class Simulator:
    """A minimal, fast discrete-event scheduler.

    Parameters
    ----------
    max_events:
        Optional safety valve — abort with :class:`SimulationError` if
        more than this many events are executed (guards against event
        storms caused by modelling bugs).

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(10.0, fired.append, "a")
    >>> sim.schedule(5.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    10.0
    """

    __slots__ = (
        "now",
        "trace",
        "_heap",
        "_seq",
        "_cancelled",
        "_events_executed",
        "_max_events",
        "_running",
    )

    def __init__(self, max_events: Optional[int] = None) -> None:
        self.now: float = 0.0
        # Tracing handle (repro.trace.Tracer) or None. Held here so any
        # component can reach the active tracer through its simulator;
        # the event loop itself never touches it. Typed Any to avoid an
        # engine -> trace import cycle.
        self.trace: Optional[Any] = None
        self._heap: List[Entry] = []
        self._seq: int = 0
        self._cancelled: Set[int] = set()
        self._events_executed: int = 0
        self._max_events: Optional[int] = max_events
        self._running: bool = False

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable, arg: Any = None) -> int:
        """Schedule ``fn(arg)`` (or ``fn()`` if ``arg is None``) after ``delay`` ns.

        Returns an event id usable with :meth:`cancel`.
        """
        if not delay >= 0:  # negative, or NaN (which would corrupt the heap)
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now + delay, seq, fn, arg))
        return seq

    def schedule_at(self, time: float, fn: Callable, arg: Any = None) -> int:
        """Schedule ``fn(arg)`` at absolute virtual time ``time`` ns."""
        if not time >= self.now:  # in the past, or NaN
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, fn, arg))
        return seq

    def cancel(self, event_id: int) -> None:
        """Cancel a pending event by id. Cancelling twice is a no-op."""
        self._cancelled.add(event_id)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue empties, or the clock passes ``until`` ns.

        When ``until`` is given, the clock is left exactly at ``until``
        even if the last executed event fired earlier, so rate
        computations over ``[0, until]`` windows are exact.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        heap = self._heap
        cancelled = self._cancelled
        max_events = self._max_events
        executed = self._events_executed
        horizon = inf if until is None else until
        try:
            if max_events is None:
                # The common case: no event budget to check per event.
                while heap and heap[0][0] <= horizon:
                    time, seq, fn, arg = heappop(heap)
                    if cancelled and seq in cancelled:
                        cancelled.discard(seq)
                        continue
                    self.now = time
                    executed += 1
                    if arg is None:
                        fn()
                    else:
                        fn(arg)
            else:
                while heap and heap[0][0] <= horizon:
                    time, seq, fn, arg = heappop(heap)
                    if cancelled and seq in cancelled:
                        cancelled.discard(seq)
                        continue
                    self.now = time
                    executed += 1
                    if executed > max_events:
                        raise SimulationError(
                            f"event budget exceeded ({max_events} events)"
                        )
                    if arg is None:
                        fn()
                    else:
                        fn(arg)
        finally:
            self._events_executed = executed
            self._running = False
        if until is not None and self.now < until:
            self.now = until

    def step(self) -> bool:
        """Execute a single pending event. Returns False if none remain."""
        heap = self._heap
        cancelled = self._cancelled
        while heap:
            time, seq, fn, arg = heappop(heap)
            if seq in cancelled:
                cancelled.discard(seq)
                continue
            self.now = time
            self._events_executed += 1
            if arg is None:
                fn()
            else:
                fn(arg)
            return True
        return False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled tombstones)."""
        return len(self._heap)

    @property
    def events_executed(self) -> int:
        """Total events executed so far — cheap profiling counter."""
        return self._events_executed

    def peek(self) -> Optional[float]:
        """Virtual time of the next live event, or None if queue empty."""
        heap = self._heap
        cancelled = self._cancelled
        while heap:
            if cancelled and heap[0][1] in cancelled:
                cancelled.discard(heappop(heap)[1])
                continue
            return heap[0][0]
        return None
