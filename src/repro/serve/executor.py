"""The daemon's execution backend: the campaign supervisor on a thread.

:class:`CampaignExecutor` runs one
:class:`~repro.parallel.supervisor.Supervisor` in serve mode
(``run(queue, stop)``) on a dedicated thread: workers spawn lazily when
work exists, stay warm through quiet periods, and the loop exits once
``stop`` is set and the backlog has drained. The threading contract
with the rest of the daemon:

* the event loop thread *only* appends jobs to the shared deque and
  then wakes the supervisor (``submit``), and reads counters for stats.
  The supervisor sleeps in one ``wait`` over its worker pipes and its
  wake channel, so a queued cell is dispatched when it is queued, not
  at the next heartbeat tick; ``stop`` wakes it the same way;
* the supervisor writes each result to the
  :class:`~repro.experiments.store.ResultStore` on the executor thread
  (disk I/O stays off the event loop), then the executor posts the
  terminal ``(job, outcome)`` pair back via
  ``loop.call_soon_threadsafe``;
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
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.experiments.runner import run_experiment
from repro.parallel.retry import RetryPolicy
from repro.parallel.supervisor import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_POISON_THRESHOLD,
    CellJob,
    CellOutcome,
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


class CampaignExecutor:
    """Owns the supervisor's thread and posts its outcomes to the loop."""

    def __init__(
        self,
        *,
        loop: asyncio.AbstractEventLoop,
        store: "ResultStore",
        on_done: Callable[[CellJob, CellOutcome], None],
        workers: int,
        retry: RetryPolicy,
        timeout_s: Optional[float] = None,
        max_rss_mb: Optional[float] = None,
        sim_log: Optional[str] = None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        poison_threshold: int = DEFAULT_POISON_THRESHOLD,
    ) -> None:
        self._loop = loop
        self._on_done = on_done
        self._queue: "deque[CellJob]" = deque()
        self._stop = threading.Event()
        self._next_index = 0
        self.reporter = _ServiceReporter()
        self._supervisor = Supervisor(
            SimRunner(sim_log),
            workers=workers,
            retry=retry,
            reporter=self.reporter,
            on_done=self._post,
            store=store,
            timeout_s=timeout_s,
            max_rss_mb=max_rss_mb,
            heartbeat_s=heartbeat_s,
            poison_threshold=poison_threshold,
        )
        self._thread = threading.Thread(
            target=self._supervisor.run,
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

    def _post(self, job: CellJob, outcome: CellOutcome) -> None:
        """Supervisor thread: hand one terminal outcome to the loop."""
        try:
            self._loop.call_soon_threadsafe(self._on_done, job, outcome)
        except RuntimeError:  # pragma: no cover - loop already closed
            log.warning("dropping terminal event for %s: loop closed", job.key)
