"""The daemon's execution backend: a service-mode supervised fleet.

:class:`~repro.parallel.supervisor.Supervisor` was built to run one
campaign's pending deque to exhaustion and tear its workers down. The
daemon needs the same machinery — persistent workers, heartbeats,
liveness deadlines, per-cell budgets, the poison circuit breaker and
the ``crash|oom|timeout|config|sim|poisoned`` taxonomy — but running
*forever* over a queue that grows as campaigns arrive. Rather than
fork the runtime, :class:`_ServiceSupervisor` subclasses it with a
service loop: workers spawn lazily when work exists, idle through
quiet periods, and the loop only exits once a stop event is set *and*
the backlog has drained (graceful drain keeps executing cells).

:class:`CampaignExecutor` owns that loop on a dedicated thread. The
threading contract with the rest of the daemon:

* the event loop thread *only* appends jobs to the shared deque and
  then wakes the supervisor (``submit``), and reads counters for stats.
  The supervisor thread sleeps in one ``wait`` over its worker pipes
  and its wake channel (:meth:`Supervisor.wake
  <repro.parallel.supervisor.Supervisor.wake>`), so a queued cell is
  dispatched when it is queued, not at the next heartbeat tick;
  ``stop`` wakes it the same way;
* the executor thread runs every supervisor callback — it writes
  results to the :class:`~repro.experiments.store.ResultStore` there
  (disk I/O stays off the event loop), then posts one terminal
  :class:`CellDone` back via ``loop.call_soon_threadsafe``;
* all campaign/flight state mutation happens on the event loop when
  that callback fires.

:class:`SimRunner` is the picklable per-cell function shipped to the
workers. Before simulating it appends the cell's config key to an
optional *sim log* with a single ``O_APPEND`` write — an append-only
ledger of **simulations actually started**, which is how the restart
tests prove that replay + single-flight never re-simulate a completed
key.
"""

from __future__ import annotations

import asyncio
import logging
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.experiments.runner import run_experiment
from repro.parallel.retry import RetryPolicy
from repro.parallel.supervisor import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_POISON_THRESHOLD,
    Supervisor,
)

if TYPE_CHECKING:
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.store import ResultStore

log = logging.getLogger("repro.serve")


class SimRunner:
    """Picklable cell function: ledger append, then the simulation."""

    def __init__(self, sim_log: Optional[str] = None) -> None:
        self.sim_log = sim_log

    def __call__(self, config: "ExperimentConfig") -> Any:
        if self.sim_log:
            from repro.experiments.store import config_key

            line = (config_key(config) + "\n").encode()
            # One O_APPEND write is atomic on POSIX, so concurrent
            # workers never interleave partial lines.
            fd = os.open(self.sim_log, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                os.write(fd, line)
            finally:
                os.close(fd)
        return run_experiment(config)


@dataclass
class CellJob:
    """Supervisor-side mutable state of one dispatched flight."""

    index: int
    config: Any
    key: str
    #: ``time.monotonic()`` when ``submit`` queued the job; ``started``
    #: is the supervisor's stamp of its (latest) dispatch to a worker,
    #: on the same clock, and stays 0.0 for a job that never got one.
    queued_at: float = 0.0
    attempts: int = 0
    started: float = 0.0
    not_before: float = 0.0
    seq: int = -1
    worker_restarts: int = 0
    peak_rss_mb: Optional[float] = None


@dataclass
class CellDone:
    """One terminal outcome, posted from the executor thread."""

    key: str
    status: str  # "ok" | "failed" | "interrupted"
    wall_seconds: float
    attempts: int
    worker_restarts: int
    error: Optional[str] = None
    error_kind: Optional[str] = None
    stored_path: Optional[str] = None
    #: The job's ``queued_at`` / ``started`` stamps (``time.monotonic``);
    #: ``dispatched_at`` is None when no worker ever took the cell.
    queued_at: float = 0.0
    dispatched_at: Optional[float] = None
    #: The worker's RSS high-water mark (MB) when the cell ended.
    peak_rss_mb: Optional[float] = None


class _ServiceReporter:
    """Supervisor telemetry sink for daemon mode: log lines + counters."""

    def __init__(self) -> None:
        self.retries = 0
        self.worker_restarts = 0

    def note(self, message: str) -> None:
        log.info("%s", message)

    def on_retry(self, index: int, attempts: int, error: str) -> None:
        self.retries += 1
        log.warning("cell %d retry %d: %s", index, attempts, error)

    def on_worker_restart(self, worker_id: int, message: str) -> None:
        self.worker_restarts += 1
        log.warning("%s", message)


class _ServiceSupervisor(Supervisor):
    """The campaign supervisor, re-aimed at an unbounded queue.

    Differences from the one-campaign :meth:`Supervisor.run`:

    * the queue is external and long-lived — the daemon appends to it
      from another thread (``deque`` appends are atomic) and then
      calls :meth:`wake`;
    * workers spawn lazily, sized to the backlog, instead of all at
      start-up, and idle workers stay warm between campaigns;
    * the loop exits only when ``stop_event`` is set and every
      dispatched cell has reached a terminal record — that *is* the
      graceful-drain semantic (the daemon stops feeding the queue and
      re-queues what never started).
    """

    def run_service(
        self, queue: "deque[CellJob]", stop_event: threading.Event
    ) -> None:
        self._queue = queue
        try:
            while self._queue or self._busy() or not stop_event.is_set():
                now = time.monotonic()
                self._ensure_workers()
                self._dispatch(now)
                self._poll(self._poll_timeout(now))
                self._enforce_deadlines()
        finally:
            self._shutdown()

    def _ensure_workers(self) -> None:
        want = min(self.n_workers, len(self._queue) + self._busy())
        while len(self._workers) < want:
            self._spawn()


class CampaignExecutor:
    """Owns the service supervisor's thread and its terminal callbacks."""

    def __init__(
        self,
        *,
        loop: asyncio.AbstractEventLoop,
        store: "ResultStore",
        on_done: Callable[[CellDone], None],
        workers: int,
        retry: RetryPolicy,
        timeout_s: Optional[float] = None,
        max_rss_mb: Optional[float] = None,
        sim_log: Optional[str] = None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        poison_threshold: int = DEFAULT_POISON_THRESHOLD,
    ) -> None:
        self._loop = loop
        self._store = store
        self._on_done = on_done
        self._queue: "deque[CellJob]" = deque()
        self._stop = threading.Event()
        self._next_index = 0
        self.reporter = _ServiceReporter()
        self.workers = workers
        self._supervisor = _ServiceSupervisor(
            SimRunner(sim_log),
            workers=workers,
            retry=retry,
            reporter=self.reporter,
            record_ok=self._record_ok,
            record_failed=self._record_failed,
            record_interrupted=self._record_interrupted,
            timeout_s=timeout_s,
            max_rss_mb=max_rss_mb,
            heartbeat_s=heartbeat_s,
            poison_threshold=poison_threshold,
        )
        self._thread = threading.Thread(
            target=self._supervisor.run_service,
            args=(self._queue, self._stop),
            name="repro-serve-executor",
            daemon=True,
        )

    def start(self) -> None:
        self._thread.start()

    # -- event-loop-side API -------------------------------------------

    def submit(self, config: "ExperimentConfig", key: str) -> None:
        """Queue one flight for execution (event loop thread)."""
        self._next_index += 1
        self._queue.append(CellJob(
            index=self._next_index, config=config, key=key,
            queued_at=time.monotonic(),
        ))
        self._supervisor.wake()

    def inflight(self) -> int:
        """Dispatched-but-not-terminal cells (queued here + executing)."""
        return len(self._queue) + self._supervisor._busy()

    def executing(self) -> int:
        return self._supervisor._busy()

    def stop(self, timeout_s: float = 30.0) -> bool:
        """Drain: no new dispatches, executing cells finish; True if done."""
        self._stop.set()
        self._supervisor.wake()
        if not self._thread.is_alive():
            return True
        self._thread.join(timeout_s)
        return not self._thread.is_alive()

    # -- executor-thread callbacks -------------------------------------
    # These run on the supervisor thread. Store writes happen HERE so
    # result serialization/fsync never blocks the event loop; only the
    # small CellDone record crosses the thread boundary.

    def _record_ok(self, job: CellJob, result: Any, wall: float) -> None:
        try:
            path = self._store.save(result)
        except Exception as exc:
            # A result we cannot persist is a failed cell as far as the
            # waiters are concerned: nothing durable exists to serve.
            self._post(
                job, "failed", wall, attempts=job.attempts + 1,
                error=f"result could not be stored: {exc!r}", error_kind="sim",
            )
            return
        self._post(
            job, "ok", wall, attempts=job.attempts + 1, stored_path=path
        )

    def _record_failed(
        self, job: CellJob, error: str, wall: float, error_kind: str = "sim"
    ) -> None:
        self._post(
            job, "failed", wall, attempts=job.attempts,
            error=error, error_kind=error_kind,
        )

    def _record_interrupted(
        self, job: CellJob, error: str, wall: float = 0.0
    ) -> None:
        self._post(
            job, "interrupted", wall, attempts=job.attempts, error=error
        )

    def _post(
        self, job: CellJob, status: str, wall: float, *, attempts: int,
        **outcome: Any,
    ) -> None:
        done = CellDone(
            key=job.key, status=status, wall_seconds=wall, attempts=attempts,
            worker_restarts=job.worker_restarts, queued_at=job.queued_at,
            dispatched_at=job.started or None,
            peak_rss_mb=job.peak_rss_mb, **outcome,
        )
        try:
            self._loop.call_soon_threadsafe(self._on_done, done)
        except RuntimeError:  # pragma: no cover - loop already closed
            log.warning("dropping terminal event for %s: loop closed", done.key)
