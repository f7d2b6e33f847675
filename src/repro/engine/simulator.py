"""The discrete-event simulator core.

A :class:`Simulator` owns the virtual clock and the pending-event
queue. Components schedule callables at absolute or relative virtual
times; the event loop pops events in ``(time, sequence)`` order, so
simultaneous events run in their scheduling order, which keeps runs
deterministic for a fixed seed.

Design notes (hot path):

* events are plain tuples ``(time, seq, fn, arg)`` — no Event objects;
* the pending-event structure is pluggable (:mod:`repro.engine.scheduler`):
  the ``heapq`` reference implementation or the faster calendar queue,
  selected per instance or via ``REPRO_SCHEDULER``. Both pop in the
  identical ``(time, seq)`` order, so the choice never changes behavior
  (golden digests are byte-identical — see
  ``tests/test_scheduler_differential.py``);
* cancellation is handled with a tombstone set keyed by sequence number
  rather than queue surgery (O(1) cancel, lazily discarded on pop);
* the loop body avoids attribute lookups by binding locals.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Set, Union

from repro.engine.scheduler import Entry, HeapScheduler, Scheduler, make_scheduler


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
    scheduler:
        Pending-event structure: a registry name (``"heapq"`` |
        ``"calendar"``), a prebuilt scheduler, or None to consult the
        ``REPRO_SCHEDULER`` environment variable (default ``heapq``).

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
        "_sched",
        "_push",
        "_heap",
        "_seq",
        "_cancelled",
        "_events_executed",
        "_max_events",
        "_running",
    )

    def __init__(
        self,
        max_events: Optional[int] = None,
        *,
        scheduler: Union[str, Scheduler, None] = None,
    ) -> None:
        self.now: float = 0.0
        # Tracing handle (repro.trace.Tracer) or None. Held here so any
        # component can reach the active tracer through its simulator;
        # the event loop itself never touches it. Typed Any to avoid an
        # engine -> trace import cycle.
        self.trace: Optional[Any] = None
        self._sched: Scheduler = make_scheduler(scheduler)
        # Bound once: scheduling is the second-hottest call in a run.
        self._push = self._sched.push
        # Heap fast path: when the reference scheduler backs the queue,
        # schedule()/run() use heappush/heappop on its list directly —
        # pluggability must not tax the default configuration with an
        # extra Python call per event (~1.5M per quick cell).
        self._heap: Optional[List[Entry]] = (
            self._sched._heap if type(self._sched) is HeapScheduler else None
        )
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
        heap = self._heap
        if heap is not None:
            heappush(heap, (self.now + delay, seq, fn, arg))
        else:
            self._push(self.now + delay, seq, fn, arg)
        return seq

    def schedule_at(self, time: float, fn: Callable, arg: Any = None) -> int:
        """Schedule ``fn(arg)`` at absolute virtual time ``time`` ns."""
        if not time >= self.now:  # in the past, or NaN
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heap = self._heap
        if heap is not None:
            heappush(heap, (time, seq, fn, arg))
        else:
            self._push(time, seq, fn, arg)
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
        cancelled = self._cancelled
        pop = self._sched.pop
        max_events = self._max_events
        executed = self._events_executed
        heap = self._heap
        try:
            if max_events is None and heap is not None and until is not None:
                # Hottest case: heap-backed queue, bounded horizon, no
                # event budget. The heap is popped inline — one C call
                # per event, no per-event None checks.
                while heap and heap[0][0] <= until:
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
            elif max_events is None:
                # No event budget — keep the loop minimal.
                while True:
                    entry = pop(until)
                    if entry is None:
                        break
                    time, seq, fn, arg = entry
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
                while True:
                    entry = pop(until)
                    if entry is None:
                        break
                    time, seq, fn, arg = entry
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
        cancelled = self._cancelled
        pop = self._sched.pop
        while True:
            entry = pop(None)
            if entry is None:
                return False
            time, seq, fn, arg = entry
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

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def scheduler_name(self) -> str:
        """Name of the active pending-event structure."""
        return self._sched.name

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled tombstones)."""
        return len(self._sched)

    @property
    def events_executed(self) -> int:
        """Total events executed so far — cheap profiling counter."""
        return self._events_executed

    def peek(self) -> Optional[float]:
        """Virtual time of the next live event, or None if queue empty."""
        sched = self._sched
        cancelled = self._cancelled
        while True:
            entry = sched.peek()
            if entry is None:
                return None
            if cancelled and entry[1] in cancelled:
                cancelled.discard(entry[1])
                sched.pop(None)
                continue
            return entry[0]
