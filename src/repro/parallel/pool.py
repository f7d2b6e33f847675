"""Campaigns: a grid of cells in, one :class:`CampaignResult` out.

A campaign is a list of :class:`ExperimentConfig` cells, each a pure
function of its config (the RNG registry is seeded from ``config.seed``
— see :mod:`repro.engine.rng`), so cells can run in any order on any
worker and still produce the same results. :func:`run_campaign`
turns such a list into a run:

* a cache (:mod:`repro.parallel.cache`) is consulted read-through
  before any cell is simulated, and a prior manifest can be replayed
  (``resume_from=``), so resumed campaigns skip completed cells;
* the remaining cells go to one :class:`~repro.parallel.supervisor.Supervisor`
  run, which writes each result through to the cache and reports every
  cell as a terminal :class:`CellOutcome` — a crashed, hung or
  unstorable cell becomes a ``failed`` record with a structured
  ``error_kind`` (:mod:`repro.parallel.errors`) instead of killing the
  campaign;
* the supervisor gets ``jobs`` workers, capped to the visible core
  count (``oversubscribe=True`` lifts the cap, e.g. for chaos testing)
  and to the number of pending cells. When the cap leaves one worker
  and no per-cell budget needs a preemptable process, it gets zero
  workers and runs the cells inline, in submission order;
* the manifest (``manifest_path=``) is checkpointed atomically after
  every terminal cell;
* SIGINT (Ctrl-C) and SIGTERM are graceful: queued cells are
  cancelled, executing cells drain, the manifest is flushed, and
  :class:`CampaignInterrupted` is raised with the partial
  :class:`CampaignResult` attached.
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, List, Optional, Sequence

from repro.experiments.config import ConfigError, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.store import config_key
from repro.parallel.cache import as_cache
from repro.parallel.errors import ERR_UNKNOWN
from repro.parallel.manifest import RunManifest
from repro.parallel.progress import ProgressReporter
from repro.parallel.retry import NO_RETRY, RetryPolicy
from repro.parallel.supervisor import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_POISON_THRESHOLD,
    CellJob,
    CellOutcome,
    Supervisor,
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

    Per-cell budgets need a preemptable worker process, so setting
    either runs the cells on at least one worker even at ``jobs=1``:
    ``timeout_s`` bounds one attempt's wall clock — the
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
    pending: Deque[CellJob] = deque()
    keys = [
        config_key(cfg) if isinstance(cfg, ExperimentConfig) else _fallback_key(cfg)
        for cfg in cells
    ]

    # Read-through: completed cells are served from the cache, prior
    # quarantined failures are replayed as records (not re-run).
    for i, (cfg, key) in enumerate(zip(cells, keys)):
        cached = cache.load(cfg) if isinstance(cfg, ExperimentConfig) else None
        if cached is not None:
            outcomes[i] = CellOutcome(
                index=i, config=cfg, key=key, status="cached",
                attempts=0, wall_seconds=0.0, result=cached,
            )
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
        else:
            if key in resume_keys:
                reporter.note(
                    f"resume: cell {i} ({key}) completed in the prior run "
                    "but is missing from the cache; re-running"
                )
            pending.append(CellJob(index=i, config=cfg, key=key))

    # Workers only help while several can run at once; one worker with
    # no budget to enforce is strictly slower than running inline.
    width = _effective_workers(jobs, len(pending), oversubscribe=oversubscribe)
    budgeted = timeout_s is not None or max_rss_mb is not None
    workers = width if width > 1 or budgeted else 0
    reporter.start(len(cells), width)
    for outcome in outcomes:
        if outcome is not None:
            reporter.on_outcome(outcome)

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

    def on_done(job: CellJob, outcome: CellOutcome) -> None:
        outcomes[job.index] = outcome
        reporter.on_outcome(outcome)
        checkpoint()

    checkpoint()
    was_interrupted = False
    if pending:
        if jobs > width:
            how = f"{width} worker(s)" if workers else "running inline"
            reporter.note(
                f"jobs={jobs} capped to {how} "
                f"({os.cpu_count() or 1} core(s), {len(pending)} pending cell(s))"
            )
        supervisor = Supervisor(
            fn, workers=workers, retry=retry, reporter=reporter,
            on_done=on_done, store=cache, timeout_s=timeout_s,
            max_rss_mb=max_rss_mb, heartbeat_s=heartbeat_s,
            poison_threshold=poison_threshold,
        )
        restore_sigterm = _install_sigterm_handler()
        try:
            supervisor.run(pending)
        except KeyboardInterrupt:
            was_interrupted = True
        finally:
            restore_sigterm()
        # An interrupt can land between the supervisor taking a cell off
        # the queue and the cell's first recorded state; such a cell is
        # interrupted too, so every manifest covers the whole grid.
        for i, outcome in enumerate(outcomes):
            if outcome is None:
                outcomes[i] = CellOutcome(
                    index=i, config=cells[i], key=keys[i],
                    status="interrupted", attempts=0, wall_seconds=0.0,
                    error="interrupted before start",
                )
                reporter.on_outcome(outcomes[i])

    reporter.finish()
    manifest = build_manifest(complete=not was_interrupted)
    if manifest_path is not None:
        manifest.save(manifest_path)
    result = CampaignResult(outcomes=outcomes, manifest=manifest)
    if was_interrupted:
        raise CampaignInterrupted(result, manifest_path)
    return result


def _fallback_key(cfg: Any) -> str:
    """Content key for non-ExperimentConfig payloads (uncached)."""
    return hashlib.sha256(repr(cfg).encode()).hexdigest()[:16]
