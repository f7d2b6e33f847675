"""The one execution loop: cells in, one terminal outcome per cell out.

Every cell this package runs goes through :meth:`Supervisor.run`, whether
it belongs to a :func:`~repro.parallel.pool.run_campaign` grid or was
dispatched by the ``repro serve`` daemon. The loop takes
:class:`CellJob` items off a deque and reports each cell exactly once,
through ``on_done(job, outcome)`` with a :class:`CellOutcome`. A
successful result is written through to the store first, on the
supervisor's own thread; a write that raises turns the cell into a
``failed`` record (``error_kind="sim"``). ``run(queue)`` drains the
queue and returns. ``run(queue, stop)`` keeps serving a queue that
other threads append to, until ``stop`` is set and nothing is queued
or executing.

With zero workers the loop calls the cell function inline, in queue
order. Otherwise it runs cells on worker processes:

* **persistent workers** — spawned lazily, up to ``min(n_workers,
  queued + executing)`` on every pass; each executes many cells over a
  ``multiprocessing`` pipe, so process start-up is paid once per
  worker;
* **heartbeats + liveness deadlines** — every worker runs a heartbeat
  thread; a worker that stops beating while its process is still alive
  (wedged in a C extension, livelocked) is killed and replaced;
* **crash isolation** — a worker that dies hard (SIGKILL, segfault,
  kernel OOM-kill) loses only its own in-flight cell, which is retried
  while every other worker keeps executing;
* **poisoned-cell circuit breaker** — a cell that kills
  ``poison_threshold`` workers is quarantined as a ``failed`` record
  with ``error_kind="poisoned"``;
* **resource budgets** — per-cell wall clock is enforced by the
  supervisor (``error_kind="timeout"``); RSS is enforced inside the
  worker via ``resource.setrlimit(RLIMIT_AS)`` so a runaway allocation
  fails with ``MemoryError`` (``error_kind="oom"``) while the worker
  survives;
* **a wake channel** — the supervisor blocks in one ``wait`` over the
  worker pipes, the process sentinels and a pipe of its own;
  :meth:`Supervisor.wake` (thread-safe) writes to that pipe, so a
  thread that queues work or asks for a stop is served at once;
* **no orphans** — a worker whose supervisor process is gone (SIGKILL
  leaves no chance to send ``stop``) exits from its heartbeat thread.

An inline result and a worker's ``"done"`` message reach the same
completion and retry/backoff code, so retries, the store write and the
failure taxonomy do not depend on the worker count. On
``KeyboardInterrupt`` (``run_campaign`` maps SIGTERM onto it too) the
queued cells are recorded ``interrupted before start``, executing
cells drain to completion (a second interrupt, or an interrupt of an
inline cell, records them ``interrupted while executing``), and the
interrupt is re-raised.

The wire protocol is deliberately tiny. Supervisor → worker::

    ("run", seq, config)     execute one cell
    ("stop",)                exit the worker loop

Worker → supervisor::

    ("ready",)                             the worker loop is up
    ("hb",)                                heartbeat (every ``heartbeat_s``)
    ("done", seq, "ok", result, wall, rss) cell finished
    ("done", seq, kind, error, wall, rss)  cell raised; *kind* is a
                                           taxonomy error kind
                                           (oom/config/sim)

*rss* is :func:`peak_rss_mb` read when the cell ended. A worker is
persistent, so it is the worker's high-water mark so far — monotone
across the cells one worker runs, not this cell's own footprint — which
is exactly the number ``max_rss_mb`` has to clear.

Everything else — crash, stall, timeout, poison — is inferred by the
supervisor from process sentinels and deadlines, because a dead or
wedged worker by definition cannot report its own failure.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.parallel.errors import (
    ERR_CRASH,
    ERR_POISONED,
    ERR_SIM,
    ERR_TIMEOUT,
    NO_RETRY_KINDS,
    classify_exception,
    format_error,
)
from repro.parallel.retry import RetryPolicy

#: Default seconds between worker heartbeats.
DEFAULT_HEARTBEAT_S = 0.25

#: Default worker kills a single cell may cause before quarantine.
DEFAULT_POISON_THRESHOLD = 2


@dataclass
class CellJob:
    """Supervisor-side mutable state of one queued or executing cell."""

    index: int
    config: Any
    key: str
    #: ``time.monotonic()`` when the cell was queued; ``started`` is the
    #: stamp of its latest dispatch, on the same clock, and stays 0.0
    #: for a cell that never got one.
    queued_at: float = 0.0
    attempts: int = 0
    started: float = 0.0
    not_before: float = 0.0
    # Sequence number of the dispatch currently executing this cell on
    # a worker (stale replies are matched against it).
    seq: int = -1
    worker_restarts: int = 0
    peak_rss_mb: Optional[float] = None


@dataclass
class CellOutcome:
    """Terminal state of one cell."""

    index: int
    config: Any
    key: str
    status: str  # "ok" | "cached" | "failed" | "interrupted"
    attempts: int
    wall_seconds: float
    result: Any = None
    error: Optional[str] = None
    # Structured failure taxonomy (repro.parallel.errors); set only for
    # status == "failed".
    error_kind: Optional[str] = None
    # Worker processes this cell killed or had preempted while it was
    # in flight (crash / stall / timeout kills attributed to the cell).
    worker_restarts: int = 0
    # RSS high-water mark (MB) of the process that ran the cell, read
    # when the cell ended; None when nothing ran (cached, replayed).
    peak_rss_mb: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")


def _mp_context():
    """``fork`` where available (cheap start, no re-import), else spawn."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


def _apply_rss_budget(max_rss_mb: Optional[float]) -> None:
    """Cap the worker's address space; a breach raises ``MemoryError``.

    ``RLIMIT_AS`` is the only portable way to make Python allocations
    fail softly instead of inviting the kernel OOM killer. On platforms
    without ``resource`` (or where the limit cannot be lowered) the
    budget silently degrades to wall-clock-only enforcement — the
    supervisor still bounds the cell, just less precisely.
    """
    if max_rss_mb is None:
        return
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return
    limit = int(max_rss_mb * 1024 * 1024)
    try:
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ValueError, OSError):  # pragma: no cover - exotic rlimit state
        return


def peak_rss_mb() -> Optional[float]:
    """This process's resident-set high-water mark in MB (None off POSIX)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return rss / (1 << 20) if sys.platform == "darwin" else rss / 1024.0


def worker_main(
    conn,
    fn: Callable[[Any], Any],
    heartbeat_s: float,
    max_rss_mb: Optional[float],
) -> None:
    """The persistent worker loop (runs in the child process).

    Public so spawn-method platforms can pickle it by qualified name.
    SIGINT is ignored (a terminal Ctrl-C hits the whole process group;
    draining is the supervisor's decision), SIGTERM is reset to the
    default so supervisor shutdown terminates promptly.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _apply_rss_budget(max_rss_mb)

    parent = multiprocessing.parent_process()
    send_lock = threading.Lock()
    stop_beating = threading.Event()

    def send(msg) -> bool:
        try:
            with send_lock:
                conn.send(msg)
            return True
        except (OSError, ValueError):
            # The supervisor went away (or the payload cannot cross the
            # pipe); the caller decides whether that is fatal.
            return False

    def beat() -> None:
        while not stop_beating.wait(heartbeat_s):
            if parent is not None and os.getppid() != parent.pid:
                # The supervisor was killed outright. EOF on the pipe
                # cannot be relied on to say so: a forked worker holds
                # a copy of the supervisor's end of its own pipe (and
                # of every older sibling's), so ``recv`` blocks forever.
                os._exit(1)
            if not send(("hb",)):
                return

    heartbeat = threading.Thread(target=beat, name="heartbeat", daemon=True)
    heartbeat.start()
    send(("ready",))

    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break  # supervisor died; no point outliving it
            if msg[0] == "stop":
                break
            _, seq, cfg = msg
            started = time.perf_counter()
            try:
                result = fn(cfg)
            except KeyboardInterrupt:  # SIG_IGN should prevent this
                break
            except BaseException as exc:
                wall = time.perf_counter() - started
                reply = ("done", seq, classify_exception(exc),
                         format_error(exc), wall, peak_rss_mb())
            else:
                wall = time.perf_counter() - started
                reply = ("done", seq, "ok", result, wall, peak_rss_mb())
            if not send(reply):
                if reply[2] == "ok":
                    # The result itself may be unpicklable/oversized —
                    # degrade to a structured sim error rather than
                    # dying with an opaque pipe failure.
                    if not send(("done", seq, "sim",
                                 "result could not be sent to the "
                                 "supervisor (unpicklable or pipe closed)",
                                 *reply[4:])):
                        break
                else:
                    break
    finally:
        stop_beating.set()




class _WorkerHandle:
    """Supervisor-side state of one worker process."""

    __slots__ = (
        "id", "proc", "conn", "job", "dispatched_at", "last_seen",
        "expected_death",
    )

    def __init__(self, worker_id: int, proc, conn) -> None:
        self.id = worker_id
        self.proc = proc
        self.conn = conn
        self.job: Optional[CellJob] = None
        self.dispatched_at = 0.0
        self.last_seen = time.monotonic()
        #: True when the supervisor itself killed this worker (timeout /
        #: stall / abort) and has already accounted for its in-flight
        #: cell — the sentinel firing later must not double-count.
        self.expected_death = False


class Supervisor:
    """Runs queued cells, inline or on a worker fleet, to terminal outcomes.

    ``workers=0`` executes every cell inline on the calling thread.
    ``on_done(job, outcome)`` is called once per cell on the thread
    that called :meth:`run`. ``store`` is anything with
    ``save(result)``; None skips the write-through.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        *,
        workers: int,
        retry: RetryPolicy,
        reporter,
        on_done: Callable[[CellJob, CellOutcome], None],
        store=None,
        timeout_s: Optional[float] = None,
        max_rss_mb: Optional[float] = None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        poison_threshold: int = DEFAULT_POISON_THRESHOLD,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1")
        self.fn = fn
        self.n_workers = workers
        self.retry = retry
        self.reporter = reporter
        self.on_done = on_done
        self.store = store
        self.timeout_s = timeout_s
        self.max_rss_mb = max_rss_mb
        self.heartbeat_s = heartbeat_s
        #: No heartbeat for this long while the process is alive ⇒ the
        #: worker is wedged and gets killed. Generous: heartbeats come
        #: from a daemon thread that only needs an occasional GIL slice.
        self.liveness_s = max(5.0, heartbeat_s * 40)
        self.poison_threshold = poison_threshold

        self._ctx = _mp_context()
        self._workers: List[_WorkerHandle] = []
        self._queue: Deque[CellJob] = deque()
        self._kills: Dict[str, int] = {}  # cell key -> workers it killed
        self._next_worker_id = 0
        self._next_seq = 0
        self._draining = False
        #: The wake channel: its read end is in every ``_poll`` wait
        #: set. Only raw bytes cross it; the Connection objects are
        #: there to close both ends when the supervisor is collected.
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        os.set_blocking(self._wake_w.fileno(), False)

    def wake(self) -> None:
        """Make a blocked (or the next) ``_poll`` return at once.

        Callable from any thread: whoever appends to the queue or wants
        the loop to re-read its exit condition calls this afterwards.
        """
        try:
            os.write(self._wake_w.fileno(), b"\0")
        except BlockingIOError:
            return  # a full pipe already holds a wake

    # -- fleet management ----------------------------------------------

    def _spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self.fn, self.heartbeat_s, self.max_rss_mb),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._workers.append(_WorkerHandle(worker_id, proc, parent_conn))

    def _grow(self) -> None:
        """Spawn workers up to ``min(n_workers, queued + busy)``."""
        want = min(self.n_workers, len(self._queue) + self._busy())
        while len(self._workers) < want:
            self._spawn()

    def _kill(self, worker: _WorkerHandle) -> None:
        """Hard-stop a worker the supervisor has given up on."""
        worker.expected_death = True
        try:
            worker.proc.kill()
        except (OSError, ValueError):
            return  # already gone

    def _discard(self, worker: _WorkerHandle) -> None:
        if worker in self._workers:
            self._workers.remove(worker)
        try:
            worker.conn.close()
        except OSError:
            return

    def _busy(self) -> int:
        return sum(1 for w in self._workers if w.job is not None)

    # -- outcome accounting --------------------------------------------

    def _finish(
        self, job: CellJob, status: str, wall: float, *,
        result: Any = None, error: Optional[str] = None,
        error_kind: Optional[str] = None,
    ) -> None:
        """The one place a cell becomes terminal."""
        self.on_done(job, CellOutcome(
            index=job.index, config=job.config, key=job.key, status=status,
            attempts=job.attempts, wall_seconds=wall, result=result,
            error=error, error_kind=error_kind,
            worker_restarts=job.worker_restarts, peak_rss_mb=job.peak_rss_mb,
        ))

    def _attempt_done(
        self, job: CellJob, kind: str, payload: Any, wall: float,
        rss: Optional[float],
    ) -> None:
        """One attempt returned (inline or from a worker's ``"done"``)."""
        job.peak_rss_mb = rss
        if kind != "ok":
            self._attempt_failed(job, kind, payload, wall)
            return
        job.attempts += 1
        if self.store is not None:
            try:
                self.store.save(payload)
            except Exception as exc:
                # Nothing durable exists to serve or resume from, so
                # the cell failed as far as anyone downstream can tell.
                self._finish(
                    job, "failed", wall, error_kind=ERR_SIM,
                    error=f"result could not be stored: {exc!r}",
                )
                return
        self._finish(job, "ok", wall, result=payload)

    def _attempt_failed(self, job: CellJob, kind: str, error: str, wall: float) -> None:
        job.attempts += 1
        if (
            self._draining
            or kind in NO_RETRY_KINDS
            or not self.retry.should_retry(job.attempts)
        ):
            self._finish(job, "failed", wall, error=error, error_kind=kind)
        else:
            self.reporter.on_retry(job.index, job.attempts, error)
            job.not_before = time.monotonic() + self.retry.delay_s(job.attempts)
            # Back to the front: a retry keeps the cell's place in line,
            # so inline a failed cell is retried before the next starts.
            self._queue.appendleft(job)

    def _cell_killed_worker(self, job: CellJob, why: str, wall: float) -> None:
        """A worker died (or stalled) with ``job`` in flight."""
        kills = self._kills.get(job.key, 0) + 1
        self._kills[job.key] = kills
        job.worker_restarts += 1
        if kills >= self.poison_threshold:
            job.attempts += 1
            self.reporter.note(
                f"supervisor: cell {job.index} ({job.key}) killed "
                f"{kills} worker(s); quarantining as poisoned"
            )
            self._finish(
                job, "failed", wall, error_kind=ERR_POISONED,
                error=f"poisoned: cell killed {kills} worker(s); last: {why}",
            )
        else:
            self._attempt_failed(job, ERR_CRASH, why, wall)

    def _handle_death(self, worker: _WorkerHandle) -> None:
        self._discard(worker)
        worker.proc.join(timeout=0.2)
        exitcode = worker.proc.exitcode
        job, worker.job = worker.job, None
        if worker.expected_death:
            return
        self.reporter.on_worker_restart(
            worker.id,
            f"worker {worker.id} died (exit {exitcode}) "
            + (f"executing cell {job.index}" if job is not None else "idle"),
        )
        if job is not None:
            wall = time.monotonic() - worker.dispatched_at
            self._cell_killed_worker(
                job, f"worker died abruptly (exit {exitcode})", wall
            )

    # -- dispatch / polling --------------------------------------------

    def _dispatch(self, now: float) -> None:
        if self._draining:
            return
        if not self.n_workers:
            job = self._next_eligible(now)
            while job is not None:
                self._run_inline(job)
                job = self._next_eligible(time.monotonic())
            return
        idle = [w for w in self._workers if w.job is None]
        for worker in idle:
            job = self._next_eligible(now)
            if job is None:
                return
            self._next_seq += 1
            job.seq = self._next_seq
            try:
                worker.conn.send(("run", job.seq, job.config))
            except (OSError, ValueError):
                # Dying worker: put the cell back; the sentinel path
                # will account for the corpse.
                self._queue.appendleft(job)
                continue
            worker.job = job
            worker.dispatched_at = now
            job.started = now

    def _run_inline(self, job: CellJob) -> None:
        """Execute one cell on this thread: the zero-worker dispatch."""
        job.started = time.monotonic()
        started = time.perf_counter()
        try:
            payload = self.fn(job.config)
            kind = "ok"
        except KeyboardInterrupt:
            self._finish(
                job, "interrupted", time.perf_counter() - started,
                error="interrupted while executing",
            )
            raise
        except Exception as exc:
            kind, payload = classify_exception(exc), format_error(exc)
        wall = time.perf_counter() - started
        self._attempt_done(job, kind, payload, wall, peak_rss_mb())

    def _next_eligible(self, now: float) -> Optional[CellJob]:
        """Pop the first queued job not still backing off.

        Indexing (not iterating) keeps this safe against another thread
        appending to the queue meanwhile.
        """
        for i in range(len(self._queue)):
            job = self._queue[i]
            if job.not_before <= now:
                del self._queue[i]
                return job
        return None

    def _poll_timeout(self, now: float) -> float:
        # With nothing due, one pass per heartbeat is what the liveness
        # sweep needs; new work announces itself through ``wake``.
        deadline = now + self.heartbeat_s
        if self.timeout_s is not None:
            for w in self._workers:
                if w.job is not None:
                    deadline = min(deadline, w.dispatched_at + self.timeout_s)
        if self._queue and not self._busy():
            backoff_wake = min(j.not_before for j in self._queue)
            deadline = min(deadline, backoff_wake)
        return max(0.01, deadline - now)

    def _poll(self, timeout: float) -> None:
        """Wait for worker messages, deaths or a wake and handle them."""
        by_obj = {}
        for w in self._workers:
            by_obj[w.conn] = w
            by_obj[w.proc.sentinel] = w
        ready = mp_connection.wait(
            [self._wake_r, *by_obj], timeout=timeout
        )
        dead: List[_WorkerHandle] = []
        for obj in ready:
            if obj is self._wake_r:
                # However many wakes are pending, they are one wake.
                os.read(self._wake_r.fileno(), 65536)
                continue
            worker = by_obj[obj]
            if obj is worker.conn:
                if not self._drain_messages(worker) and worker not in dead:
                    dead.append(worker)
            elif worker not in dead:
                # Sentinel fired: pull any final messages first so a
                # completed result is never misread as a crash.
                self._drain_messages(worker)
                dead.append(worker)
        for worker in dead:
            if worker in self._workers:
                self._handle_death(worker)

    def _drain_messages(self, worker: _WorkerHandle) -> bool:
        """Handle every buffered message; False when the pipe hit EOF."""
        while True:
            try:
                if not worker.conn.poll():
                    return True
                msg = worker.conn.recv()
            except (EOFError, OSError):
                return False
            worker.last_seen = time.monotonic()
            if msg[0] != "done":
                continue  # "hb" / "ready": last_seen is all they carry
            _, seq, kind, payload, wall, rss = msg
            job = worker.job
            if job is None or job.seq != seq:
                continue  # stale reply from a cell already accounted for
            worker.job = None
            self._attempt_done(job, kind, payload, wall, rss)

    def _enforce_deadlines(self) -> None:
        now = time.monotonic()
        for worker in list(self._workers):
            job = worker.job
            if job is not None and self.timeout_s is not None:
                running_for = now - worker.dispatched_at
                if running_for > self.timeout_s:
                    worker.job = None
                    job.worker_restarts += 1
                    self.reporter.on_worker_restart(
                        worker.id,
                        f"worker {worker.id} preempted: cell {job.index} "
                        f"exceeded its {self.timeout_s}s budget",
                    )
                    self._kill(worker)
                    self._discard(worker)
                    self._attempt_failed(
                        job, ERR_TIMEOUT,
                        f"TimeoutError: cell exceeded {self.timeout_s}s",
                        running_for,
                    )
                    continue
            if now - worker.last_seen > self.liveness_s and worker.proc.is_alive():
                worker.job = None
                self.reporter.on_worker_restart(
                    worker.id,
                    f"worker {worker.id} stalled: no heartbeat for "
                    f"{now - worker.last_seen:.1f}s",
                )
                self._kill(worker)
                self._discard(worker)
                if job is not None:
                    wall = now - worker.dispatched_at
                    self._cell_killed_worker(
                        job,
                        f"worker stalled (no heartbeat for "
                        f"{now - worker.last_seen:.1f}s)",
                        wall,
                    )

    # -- the run -------------------------------------------------------

    def run(
        self, queue: Deque[CellJob], stop: Optional[threading.Event] = None
    ) -> None:
        """Run ``queue`` until every cell in it is terminal.

        With ``stop`` None this returns once the queue is drained.
        Otherwise other threads may keep appending (then :meth:`wake`),
        and the loop returns once ``stop`` is set and nothing is queued
        or executing. ``KeyboardInterrupt`` is re-raised after a
        graceful drain.
        """
        self._queue = queue
        try:
            try:
                while True:
                    self._grow()
                    self._dispatch(time.monotonic())
                    if not (self._queue or self._busy()) and (
                        stop is None or stop.is_set()
                    ):
                        return
                    self._poll(self._poll_timeout(time.monotonic()))
                    self._enforce_deadlines()
            except KeyboardInterrupt:
                self._drain_interrupted()
                raise
        finally:
            self._shutdown()

    def _drain_interrupted(self) -> None:
        """First Ctrl-C/SIGTERM: cancel the queue, drain executing cells."""
        self._draining = True
        self.reporter.note(
            f"interrupt: cancelling {len(self._queue)} queued cell(s), "
            f"draining {self._busy()} executing cell(s) — "
            "Ctrl-C again to abort"
        )
        try:
            while self._busy():
                self._poll(0.2)
                self._enforce_deadlines()
        except KeyboardInterrupt:
            now = time.monotonic()
            for worker in list(self._workers):
                job, worker.job = worker.job, None
                if job is not None:
                    self._finish(
                        job, "interrupted", now - worker.dispatched_at,
                        error="interrupted while executing",
                    )
                    self._kill(worker)
        for job in self._queue:
            self._finish(job, "interrupted", 0.0, error="interrupted before start")
        self._queue.clear()

    def _shutdown(self) -> None:
        for worker in self._workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                continue
        deadline = time.monotonic() + 2.0
        for worker in self._workers:
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.proc.is_alive():
                self._kill(worker)
                worker.proc.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                continue
        self._workers.clear()
