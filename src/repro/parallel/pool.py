"""Fault-tolerant fan-out of experiment cells over supervised workers.

A campaign is a list of :class:`ExperimentConfig` cells, each a pure
function of its config (the RNG registry is seeded from ``config.seed``
— see :mod:`repro.engine.rng`), so cells can run in any order on any
worker and still produce exactly the serial results. This module turns
such a list into a job run:

* ``jobs=1`` executes in-process, in submission order — byte-identical
  to the historical serial drivers;
* ``jobs>1`` fans out over the supervised persistent-worker runtime
  (:mod:`repro.parallel.supervisor`): long-lived worker processes that
  execute many cells each, per-worker heartbeats with liveness
  deadlines, individual worker restart on crash (only the dead worker's
  in-flight cell is retried), a poisoned-cell circuit breaker, and
  per-cell resource budgets (``timeout_s`` wall clock enforced by the
  supervisor, ``max_rss_mb`` via ``RLIMIT_AS`` inside the worker). The
  worker count is capped to the visible core count (oversubscribing
  CPU-bound cells only adds overhead — pass ``oversubscribe=True`` to
  lift the cap, e.g. for chaos testing), and when the cap leaves a
  single worker with no budgets to enforce the run degrades to the
  in-process path;
* a cache (:mod:`repro.parallel.cache`) is consulted read-through
  before any cell is simulated and populated write-through as results
  arrive, so resumed campaigns skip completed cells;
* every cell ends in a terminal :class:`CellOutcome` — a crashed or
  hung cell becomes a ``failed`` record in the run manifest
  (:mod:`repro.parallel.manifest`) with a structured ``error_kind``
  from :mod:`repro.parallel.errors` instead of killing the campaign;
* SIGINT (Ctrl-C) and SIGTERM are graceful: queued cells are
  cancelled, executing cells are *drained* (their results land in the
  cache and manifest; a second signal abandons them as
  ``interrupted``), the manifest checkpoint is flushed, and
  :class:`CampaignInterrupted` is raised with a clean summary and the
  partial :class:`CampaignResult` attached;
* the manifest (``manifest_path=``) is checkpointed atomically after
  every terminal cell, and ``resume_from=`` replays a prior manifest —
  completed cells come back through the cache, quarantined failures
  (poisoned cells, timeouts, …) are replayed as ``failed`` records
  without burning workers on them again unless ``retry_failed=True``,
  and everything else re-runs.
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.experiments.config import ConfigError, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.store import config_key
from repro.parallel.cache import as_cache
from repro.parallel.errors import (
    ERR_SIM,
    ERR_UNKNOWN,
    NO_RETRY_KINDS,
    classify_exception,
    format_error,
)
from repro.parallel.manifest import RunManifest
from repro.parallel.progress import ProgressReporter
from repro.parallel.retry import NO_RETRY, RetryPolicy
from repro.parallel.supervisor import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_POISON_THRESHOLD,
    peak_rss_mb,
    run_supervised,
)


def _effective_workers(
    jobs: int, n_pending: int, *, oversubscribe: bool = False
) -> int:
    """Worker processes that can actually run concurrently.

    Asking for more workers than cores makes campaigns *slower*, not
    faster: the cells are CPU-bound, so extra workers only add fork and
    IPC overhead plus scheduler thrash. The executor therefore caps the
    requested ``jobs`` to the visible core count and to the number of
    pending cells. ``oversubscribe=True`` lifts the core cap — useful
    when the point is exercising real multi-worker supervision (chaos
    tests) rather than throughput.
    """
    cores = os.cpu_count() or 1
    cap = jobs if oversubscribe else min(jobs, cores)
    return max(1, min(cap, n_pending))


def derive_seed(base_seed: int, index: int) -> int:
    """A deterministic, well-mixed per-cell seed.

    Hash-derived so that campaign replicas get independent streams while
    remaining reproducible for any (base_seed, cell index) pair at any
    ``jobs`` value.
    """
    blob = f"{base_seed}:{index}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


@dataclass
class CellOutcome:
    """Terminal state of one campaign cell."""

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


@dataclass
class CampaignResult:
    """Everything one :func:`run_campaign` call produced."""

    outcomes: List[CellOutcome]
    manifest: RunManifest

    @property
    def results(self) -> List[Any]:
        """Per-cell results in submission order (None for failed cells)."""
        return [o.result for o in self.outcomes]

    @property
    def failed(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def raise_on_failure(self) -> "CampaignResult":
        """Raise :class:`CampaignError` if any cell ended failed."""
        if self.failed:
            raise CampaignError(self.failed)
        return self


class CampaignError(RuntimeError):
    """One or more cells failed after exhausting their retries."""

    def __init__(self, failed: List[CellOutcome]) -> None:
        self.failed = failed
        detail = "; ".join(
            f"cell {o.index} ({o.key}): {o.error}" for o in failed[:5]
        )
        more = f" (+{len(failed) - 5} more)" if len(failed) > 5 else ""
        super().__init__(f"{len(failed)} campaign cell(s) failed: {detail}{more}")


class CampaignInterrupted(KeyboardInterrupt):
    """The campaign was interrupted (SIGINT/SIGTERM) after a drain.

    Subclasses :class:`KeyboardInterrupt` so un-aware callers still
    terminate, but carries the partial :class:`CampaignResult` (every
    cell that finished before or during the drain) and the checkpointed
    manifest path for ``run_campaign(resume_from=...)``.
    """

    def __init__(self, result: "CampaignResult", manifest_path: Optional[str] = None) -> None:
        self.result = result
        self.manifest_path = manifest_path
        m = result.manifest
        msg = (
            f"campaign interrupted: {m.ok} ok, {m.cache_hits} cached, "
            f"{m.failures} failed, {m.interrupted} interrupted "
            f"of {m.total_cells} cells"
        )
        if manifest_path is not None:
            msg += f"; resume with resume_from={manifest_path!r}"
        super().__init__(msg)


@dataclass
class _CellJob:
    """Executor-internal mutable state of one in-flight cell."""

    index: int
    config: Any
    key: str
    attempts: int = 0
    started: float = 0.0
    not_before: float = 0.0
    # Sequence number of the dispatch currently executing this cell on
    # a supervised worker (stale replies are matched against it).
    seq: int = -1
    worker_restarts: int = 0
    peak_rss_mb: Optional[float] = None


def _install_sigterm_handler() -> Callable[[], None]:
    """Map SIGTERM onto KeyboardInterrupt so it drains like Ctrl-C.

    Returns a restore callable. A no-op off the main thread (the signal
    module refuses handlers there) and on platforms without SIGTERM.
    """
    if threading.current_thread() is not threading.main_thread():
        return lambda: None

    def raise_interrupt(signum, frame) -> None:
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, raise_interrupt)
    except (ValueError, OSError, AttributeError):
        return lambda: None

    def restore() -> None:
        try:
            signal.signal(signal.SIGTERM, previous)
        except (ValueError, OSError):
            return

    return restore


def run_campaign(
    configs: Sequence[Any],
    *,
    jobs: int = 1,
    cache=None,
    retry: Optional[RetryPolicy] = None,
    timeout_s: Optional[float] = None,
    max_rss_mb: Optional[float] = None,
    progress: Optional[ProgressReporter] = None,
    run_fn: Optional[Callable[[Any], Any]] = None,
    reseed_from: Optional[int] = None,
    manifest_path: Optional[str] = None,
    resume_from: Optional[Any] = None,
    retry_failed: bool = False,
    poison_threshold: int = DEFAULT_POISON_THRESHOLD,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    oversubscribe: bool = False,
) -> CampaignResult:
    """Run every cell of a campaign; never raises for cell failures.

    ``configs`` are usually :class:`ExperimentConfig` instances and
    ``run_fn`` defaults to :func:`run_experiment`; any picklable
    config/callable pair works. ``cache`` is a directory path, a
    :class:`~repro.experiments.store.ResultStore`, or a
    :class:`~repro.parallel.cache.CellCache` (None disables caching).
    ``reseed_from`` rewrites each cell's seed with
    :func:`derive_seed(reseed_from, index) <derive_seed>` — the same
    seeds at any ``jobs`` value.

    Per-cell budgets apply to ``jobs > 1`` (a serial run cannot preempt
    itself): ``timeout_s`` bounds one attempt's wall clock — the
    supervisor kills and replaces the worker (``error_kind="timeout"``);
    ``max_rss_mb`` caps worker address space via ``RLIMIT_AS`` so a
    runaway allocation fails in-place with ``MemoryError``
    (``error_kind="oom"``). A cell whose crashes kill
    ``poison_threshold`` workers is quarantined as ``failed`` with
    ``error_kind="poisoned"`` instead of looping.

    ``manifest_path`` additionally checkpoints the manifest after every
    terminal cell (atomic replace), so a killed campaign leaves a valid
    partial manifest. ``resume_from`` (a manifest path or
    :class:`RunManifest`) replays such a checkpoint: cells it recorded
    as completed are expected back from the cache (a cache miss re-runs
    them with a note), cells it recorded as ``failed`` are replayed as
    failed outcomes without re-running — pass ``retry_failed=True`` to
    re-run exactly that set — and everything else re-runs.

    SIGINT/SIGTERM do not lose finished work: queued cells are
    cancelled, executing cells drain (a second signal abandons them),
    and :class:`CampaignInterrupted` is raised carrying the partial
    result.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    retry = retry if retry is not None else NO_RETRY
    cache = as_cache(cache)
    fn = run_fn if run_fn is not None else run_experiment
    reporter = progress if progress is not None else ProgressReporter()

    resume_keys = set()
    prior_failed = {}
    if resume_from is not None:
        prior = (
            resume_from
            if isinstance(resume_from, RunManifest)
            else RunManifest.load(resume_from)
        )
        resume_keys = prior.completed_keys()
        if not retry_failed:
            prior_failed = {c.key: c for c in prior.failed_cells()}

    cells: List[Any] = list(configs)
    if reseed_from is not None:
        cells = [cfg.with_(seed=derive_seed(reseed_from, i)) for i, cfg in enumerate(cells)]

    # Pre-flight: reject a bad grid before any worker process spawns —
    # one clear ConfigError now instead of N identical cell failures.
    for i, cfg in enumerate(cells):
        if isinstance(cfg, ExperimentConfig):
            try:
                cfg.validate()
            except ConfigError as exc:
                raise ConfigError(f"campaign cell {i}: {exc}") from None

    outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
    pending: List[_CellJob] = []
    reporter.start(len(cells), jobs)

    def build_manifest(*, complete: bool) -> RunManifest:
        manifest = RunManifest.from_outcomes(
            outcomes, jobs=jobs, retries=reporter.retries,
            worker_restarts=reporter.worker_restarts,
            elapsed_seconds=reporter.elapsed_seconds(),
        )
        manifest.complete = complete
        return manifest

    def checkpoint() -> None:
        if manifest_path is not None:
            build_manifest(complete=False).save(manifest_path)

    # Read-through: completed cells are served from the cache, prior
    # quarantined failures are replayed as records (not re-run).
    for i, cfg in enumerate(cells):
        key = config_key(cfg) if isinstance(cfg, ExperimentConfig) else _fallback_key(cfg)
        cached = cache.load(cfg) if isinstance(cfg, ExperimentConfig) else None
        if cached is not None:
            outcomes[i] = CellOutcome(
                index=i, config=cfg, key=key, status="cached",
                attempts=0, wall_seconds=0.0, result=cached,
            )
            reporter.on_outcome(outcomes[i])
        elif key in prior_failed:
            rec = prior_failed[key]
            kind = rec.error_kind or ERR_UNKNOWN
            outcomes[i] = CellOutcome(
                index=i, config=cfg, key=key, status="failed",
                attempts=rec.attempts, wall_seconds=0.0, error=rec.error,
                error_kind=kind, worker_restarts=rec.worker_restarts,
            )
            reporter.note(
                f"resume: cell {i} ({key}) failed in the prior run "
                f"(error_kind={kind}); replaying its record — "
                "pass retry_failed to re-run it"
            )
            reporter.on_outcome(outcomes[i])
        else:
            if key in resume_keys:
                reporter.note(
                    f"resume: cell {i} ({key}) completed in the prior run "
                    "but is missing from the cache; re-running"
                )
            pending.append(_CellJob(index=i, config=cfg, key=key))
    checkpoint()

    def record_ok(job: _CellJob, result: Any, wall: float) -> None:
        outcomes[job.index] = CellOutcome(
            index=job.index, config=job.config, key=job.key, status="ok",
            attempts=job.attempts + 1, wall_seconds=wall, result=result,
            worker_restarts=job.worker_restarts, peak_rss_mb=job.peak_rss_mb,
        )
        cache.save(result)  # write-through
        reporter.on_outcome(outcomes[job.index])
        checkpoint()

    def record_failed(
        job: _CellJob, error: str, wall: float, error_kind: str = ERR_SIM
    ) -> None:
        outcomes[job.index] = CellOutcome(
            index=job.index, config=job.config, key=job.key, status="failed",
            attempts=job.attempts, wall_seconds=wall, error=error,
            error_kind=error_kind, worker_restarts=job.worker_restarts,
            peak_rss_mb=job.peak_rss_mb,
        )
        reporter.on_outcome(outcomes[job.index])
        checkpoint()

    def record_interrupted(job: _CellJob, error: str, wall: float = 0.0) -> None:
        outcomes[job.index] = CellOutcome(
            index=job.index, config=job.config, key=job.key,
            status="interrupted", attempts=job.attempts,
            wall_seconds=wall, error=error,
            worker_restarts=job.worker_restarts,
        )
        reporter.on_outcome(outcomes[job.index])
        checkpoint()

    was_interrupted = False
    if pending:
        # Supervised workers only help while several can actually run;
        # on a starved host (workers capped to 1) the in-process path
        # is strictly faster — unless a resource budget must be
        # enforced, which requires a preemptable worker process.
        workers = _effective_workers(jobs, len(pending), oversubscribe=oversubscribe)
        use_pool = jobs > 1 and (
            workers > 1 or timeout_s is not None or max_rss_mb is not None
        )
        if jobs > 1 and workers < jobs and use_pool:
            reporter.note(
                f"jobs={jobs} capped to {workers} worker(s) "
                f"({os.cpu_count() or 1} core(s), {len(pending)} pending cell(s))"
            )
        elif jobs > 1 and not use_pool:
            reporter.note(
                f"jobs={jobs} on {os.cpu_count() or 1} core(s): "
                "running in-process (a pool would only add overhead)"
            )
        restore_sigterm = _install_sigterm_handler()
        try:
            if not use_pool:
                _run_serial(
                    pending, fn, retry, reporter,
                    record_ok, record_failed, record_interrupted,
                )
            else:
                run_supervised(
                    deque(pending), fn, retry, workers, timeout_s,
                    max_rss_mb, reporter,
                    record_ok, record_failed, record_interrupted,
                    heartbeat_s=heartbeat_s,
                    poison_threshold=poison_threshold,
                )
        except KeyboardInterrupt:
            was_interrupted = True
        finally:
            restore_sigterm()

    reporter.finish()
    manifest = build_manifest(complete=not was_interrupted)
    if manifest_path is not None:
        manifest.save(manifest_path)
    result = CampaignResult(outcomes=outcomes, manifest=manifest)
    if was_interrupted:
        raise CampaignInterrupted(result, manifest_path)
    return result


def run_cells(configs: Sequence[Any], **kwargs) -> List[CellOutcome]:
    """:func:`run_campaign`, returning just the per-cell outcomes."""
    return run_campaign(configs, **kwargs).outcomes


def _fallback_key(cfg: Any) -> str:
    """Content key for non-ExperimentConfig payloads (uncached)."""
    return hashlib.sha256(repr(cfg).encode()).hexdigest()[:16]


def _run_serial(
    pending, fn, retry, reporter, record_ok, record_failed, record_interrupted
) -> None:
    """The ``jobs=1`` path: in-process, submission order, byte-identical."""
    for pos, job in enumerate(pending):
        while True:
            started = time.perf_counter()
            try:
                result = fn(job.config)
            except KeyboardInterrupt:
                # Ctrl-C mid-cell: the in-flight cell and everything
                # not yet started become ``interrupted`` records, then
                # the interrupt propagates for run_campaign to wrap.
                record_interrupted(
                    job, "interrupted while executing",
                    time.perf_counter() - started,
                )
                for later in pending[pos + 1:]:
                    record_interrupted(later, "interrupted before start")
                raise
            except Exception as exc:
                wall = time.perf_counter() - started
                job.attempts += 1
                kind = classify_exception(exc)
                error = format_error(exc)
                if kind not in NO_RETRY_KINDS and retry.should_retry(job.attempts):
                    reporter.on_retry(job.index, job.attempts, error)
                    delay = retry.delay_s(job.attempts)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                job.peak_rss_mb = peak_rss_mb()
                record_failed(job, error, wall, error_kind=kind)
            else:
                wall = time.perf_counter() - started
                job.peak_rss_mb = peak_rss_mb()
                record_ok(job, result, wall)
            break
