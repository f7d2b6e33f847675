"""Campaign lifecycle, replay, and fan-out: the daemon's core state.

Everything in this module runs on the asyncio event loop thread —
submission, cancellation, flight bookkeeping, SSE publication, drain.
The only other actors are the executor thread and its workers, and the
sole crossing point is :meth:`CampaignService._on_done`, delivered via
``loop.call_soon_threadsafe``. That single-threaded discipline is what
makes the single-flight registry race-free without locks.

Durability model (everything under ``<store>/serve/``):

* ``campaigns.jsonl`` — the admission *journal*, one JSON spec per
  line: tenant, priority, cancellation flag and every cell's config.
  A submission's one durable write is its line: one ``os.write`` to an
  ``O_APPEND`` descriptor held open until drain ends, then
  ``os.fdatasync``, before the 202 is sent. A cancel appends the
  updated spec; the latest line per id wins;
* ``campaigns/<id>.manifest.json`` — a standard
  :class:`~repro.parallel.manifest.RunManifest` holding the terminal
  cells. It is flushed when execution makes a cell terminal, on
  cancel, on drain and on recovery — and only when the terminal
  states differ from the last flush, so a campaign admitted complete
  (every cell ``cached``) gets its manifest once, at drain. Nothing is
  written at submit: recovery takes ``cached`` from the store and
  reads a manifest only for its ``failed`` records, which a fresh
  campaign cannot have;
* ``sim.log`` — the append-only ledger of simulations actually
  started (written by workers, see
  :class:`~repro.serve.executor.SimRunner`).

On startup :meth:`CampaignService.recover` reads the journal in one
pass (skipping lines that do not parse, cutting a torn tail back to
the last newline) and replays it in submission order; old-layout
``campaigns/<id>.json`` specs are counted, not replayed. Cells whose
key is already in the
:class:`~repro.experiments.store.ResultStore` come back as ``cached``
(never re-simulated), cells their manifest recorded as ``failed`` are
replayed as failed records (a poisoned cell must not burn workers
again after every restart), and everything else — queued, running or
interrupted at the moment of the crash — re-enters the queue through
the normal single-flight path. A SIGKILL therefore costs at most the
cells that were mid-execution, and duplicates are structurally
impossible: completed keys short-circuit before any flight opens.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import logging
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.config import SCALES, ConfigError
from repro.experiments.store import (
    ResultStore,
    config_dict_key,
    config_from_dict,
    config_key,
    config_to_dict,
)
from repro.parallel.manifest import RunManifest
from repro.parallel.retry import DEFAULT_CAMPAIGN_POLICY, RetryPolicy
from repro.parallel.supervisor import CellJob, CellOutcome
from repro.serve.executor import CampaignExecutor
from repro.serve.http import HttpError
from repro.serve.scheduler import (
    AdmissionController,
    AdmissionLimits,
    FairScheduler,
    ShedLoad,
)
from repro.serve.singleflight import (
    FLIGHT_CANCELLED,
    FLIGHT_QUEUED,
    FLIGHT_RUNNING,
    SingleFlight,
)

log = logging.getLogger("repro.serve")

CELL_QUEUED = "queued"
CELL_RUNNING = "running"
CELL_OK = "ok"
CELL_CACHED = "cached"
CELL_FAILED = "failed"
CELL_INTERRUPTED = "interrupted"
CELL_CANCELLED = "cancelled"

#: States a cell can never leave.
TERMINAL_STATES = frozenset(
    {CELL_OK, CELL_CACHED, CELL_FAILED, CELL_INTERRUPTED, CELL_CANCELLED}
)


@dataclass
class CellState:
    """One submitted cell's live state inside a campaign."""

    index: int
    key: str
    config: Any
    status: str = CELL_QUEUED
    #: True when this cell joined a flight another submission opened
    #: (the thundering-herd dedup path).
    dedup: bool = False
    attempts: int = 0
    wall_seconds: float = 0.0
    error: Optional[str] = None
    #: Structured taxonomy kind for failed cells
    #: (crash|oom|timeout|config|sim|poisoned|unknown).
    error_kind: Optional[str] = None
    worker_restarts: int = 0
    #: The worker's RSS high-water mark (MB) when the cell's flight
    #: ended; None when no worker ran it (cached, cancelled, replayed).
    peak_rss_mb: Optional[float] = None
    #: True when recovery replayed this terminal state from the prior
    #: incarnation's manifest instead of observing it live.
    replayed: bool = False
    #: ``time.monotonic()`` when this incarnation admitted the cell.
    admitted_at: float = field(default_factory=time.monotonic)
    #: Seconds from admission until a worker was handed the cell's
    #: flight: fair-queue wait plus the executor hand-off. 0.0 for a
    #: cell that joined a flight already running; None when no worker
    #: ran it (cached, cancelled or interrupted while queued).
    queue_wait_s: Optional[float] = None

    #: What a client sees of a cell: everything but config and clock.
    PUBLIC = (
        "index", "key", "status", "dedup", "attempts", "wall_seconds",
        "queue_wait_s", "error", "error_kind", "worker_restarts",
        "peak_rss_mb", "replayed",
    )

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.PUBLIC}


@dataclass
class Campaign:
    """One submitted campaign: cells plus its SSE subscribers."""

    id: str
    tenant: str
    priority: int
    created_at: float
    cells: List[CellState] = field(default_factory=list)
    cancelled: bool = False
    subscribers: List[asyncio.Queue] = field(default_factory=list)
    #: ``(key, status)`` of every record in the manifest last flushed
    #: (or found on disk by recovery); no manifest counts as an empty one.
    flushed: Tuple[Tuple[str, str], ...] = ()

    #: The fields a journal line and a summary both lead with.
    HEAD = ("id", "tenant", "priority", "created_at", "cancelled")

    @property
    def done(self) -> bool:
        return all(c.status in TERMINAL_STATES for c in self.cells)

    def counts(self) -> Dict[str, int]:
        return dict(Counter(cell.status for cell in self.cells))

    def summary(self, *, include_cells: bool = False) -> dict:
        out = {name: getattr(self, name) for name in self.HEAD}
        out.update(
            done=self.done,
            total=len(self.cells),
            counts=self.counts(),
            dedup_joins=sum(1 for c in self.cells if c.dedup),
        )
        if include_cells:
            out["cells"] = [c.to_dict() for c in self.cells]
        return out


class _Reservoir:
    """Fixed-size uniform sample of a stream (algorithm R), plus its max."""

    SIZE = 1024

    def __init__(self) -> None:
        self._sample: List[float] = []
        self._rng = random.Random(0)
        self.count = 0
        self.max = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.max = max(self.max, value)
        if len(self._sample) < self.SIZE:
            self._sample.append(value)
            return
        slot = self._rng.randrange(self.count)
        if slot < self.SIZE:
            self._sample[slot] = value

    def summary(self) -> dict:
        ordered = sorted(self._sample)

        def quantile(q: float) -> Optional[float]:
            if not ordered:
                return None
            return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

        return {
            "count": self.count,
            "p50": quantile(0.50),
            "p95": quantile(0.95),
            "max": self.max,
        }


class CampaignService:
    """All campaign state; every method runs on the event loop thread."""

    def __init__(
        self,
        store_dir: str,
        *,
        workers: int,
        limits: Optional[AdmissionLimits] = None,
        retry: Optional[RetryPolicy] = None,
        timeout_s: Optional[float] = None,
        max_rss_mb: Optional[float] = None,
        drain_timeout_s: float = 30.0,
    ) -> None:
        self.store = ResultStore(store_dir)
        self.serve_dir = os.path.join(store_dir, "serve")
        self.campaigns_dir = os.path.join(self.serve_dir, "campaigns")
        os.makedirs(self.campaigns_dir, exist_ok=True)
        self.journal_path = os.path.join(self.serve_dir, "campaigns.jsonl")
        #: The journal's O_APPEND descriptor, opened by the first append.
        self._journal_fd: Optional[int] = None
        self.sim_log = os.path.join(self.serve_dir, "sim.log")
        self.workers = max(1, workers)
        self.limits = limits or AdmissionLimits()
        self.retry = retry or DEFAULT_CAMPAIGN_POLICY
        self.timeout_s = timeout_s
        self.max_rss_mb = max_rss_mb
        self.drain_timeout_s = drain_timeout_s

        self.flights = SingleFlight()
        self.scheduler = FairScheduler()
        self.admission = AdmissionController(self.limits, self.workers)
        self.campaigns: Dict[str, Campaign] = {}
        self.executor: Optional[CampaignExecutor] = None
        self.draining = False
        self.started_at = time.time()
        self.cache_hits = 0
        self._done_counts: Dict[str, int] = {}
        #: ms a dispatched cell sat in the executor's queue before the
        #: supervisor handed it to a worker, over the daemon's lifetime.
        self._dispatch_wait_ms = _Reservoir()

    # -- lifecycle -----------------------------------------------------

    def start(self, loop: asyncio.AbstractEventLoop) -> dict:
        """Wire the executor, replay prior state, start the fleet."""
        self.executor = CampaignExecutor(
            loop=loop,
            store=self.store,
            on_done=self._on_done,
            workers=self.workers,
            retry=self.retry,
            timeout_s=self.timeout_s,
            max_rss_mb=self.max_rss_mb,
            sim_log=self.sim_log,
        )
        recovered = self.recover()
        self.executor.start()
        self._pump()
        return recovered

    async def drain(self, loop: asyncio.AbstractEventLoop) -> None:
        """Graceful shutdown: shed the queue, finish executing cells.

        Queued flights become ``interrupted`` cells (their campaigns'
        manifests record them, so the next incarnation re-queues them);
        executing cells get up to ``drain_timeout_s`` to finish and
        land in the store like any other result.
        """
        if self.draining:
            return
        self.draining = True
        dropped = self.scheduler.clear()
        log.info(
            "drain: shedding %d queued flight(s), waiting on %d executing",
            len(dropped), self.executor.executing() if self.executor else 0,
        )
        self._interrupt(dropped, "daemon drained before the cell started")
        # Manifest writes are file I/O: off the loop thread (CON001) so
        # SSE streams keep flowing while drain checkpoints.
        await loop.run_in_executor(None, self._checkpoint_all)

        if self.executor is not None:
            finished = await loop.run_in_executor(
                None, self.executor.stop, self.drain_timeout_s
            )
            # Let any final call_soon_threadsafe terminal events land.
            await asyncio.sleep(0.05)
            if not finished:
                log.warning(
                    "drain: executor did not stop within %.0fs; abandoning "
                    "executing cell(s)", self.drain_timeout_s,
                )

        self._interrupt(
            self.flights.all(), "daemon stopped while the cell was executing"
        )
        await loop.run_in_executor(None, self._checkpoint_all)
        for campaign in self.campaigns.values():
            self._publish(campaign, "drain", {"draining": True})
        if self._journal_fd is not None:
            os.close(self._journal_fd)
            self._journal_fd = None

    def _interrupt(self, flights: List[Any], error: str) -> None:
        """Land ``flights``; their unfinished cells become interrupted."""
        for flight in flights:
            flight.state = FLIGHT_CANCELLED
            self.flights.land(flight.key)
            for campaign, cell in flight.waiters:
                if cell.status not in TERMINAL_STATES:
                    self._settle(campaign, cell, CELL_INTERRUPTED, error=error)

    # -- submission ----------------------------------------------------

    def submit(self, payload: Any) -> Campaign:
        """Admit one campaign; raises HttpError (400/429/503) otherwise."""
        if self.draining:
            raise HttpError(
                503, "daemon is draining; resubmit after restart",
                headers={"Retry-After": "30"},
            )
        cells_data, tenant, priority = self._parse_payload(payload)
        parsed = self._parse_cells(cells_data)

        # Admission counts only flights this submission would *open*:
        # cached keys and joins of open flights add no simulation load.
        new_keys = {
            key for _, key, _ in parsed
            if not self.store.contains_key(key) and key not in self.flights
        }
        try:
            self.admission.admit(
                tenant=tenant,
                new_flights=len(new_keys),
                queued=len(self.scheduler),
                tenant_queued=self.scheduler.queued_for(tenant),
                inflight_cells=self.executor.inflight() if self.executor else 0,
            )
        except ShedLoad as exc:
            raise HttpError(
                429, exc.reason,
                payload={"shed": True},
                headers={"Retry-After": str(exc.retry_after_s)},
            )

        campaign = Campaign(
            id="c" + os.urandom(8).hex(),
            tenant=tenant,
            priority=priority,
            created_at=time.time(),
        )
        for i, (cfg, key, _) in enumerate(parsed):
            cell = CellState(index=i, key=key, config=cfg)
            campaign.cells.append(cell)
            self._attach(campaign, cell)
        self.campaigns[campaign.id] = campaign
        # The journal line is the submission's one durable write; see
        # the module docstring for why no manifest is needed yet.
        self._journal(campaign, [data for _, _, data in parsed])
        self._pump()
        return campaign

    def _parse_payload(self, payload: Any) -> Tuple[list, str, int]:
        if isinstance(payload, list):
            payload = {"cells": payload}
        if not isinstance(payload, dict):
            raise HttpError(400, "payload must be an object or a list of cells")
        cells = payload.get("cells")
        if not isinstance(cells, list) or not cells:
            raise HttpError(400, "'cells' must be a non-empty list of configs")
        if len(cells) > self.limits.max_campaign_cells:
            raise HttpError(
                400,
                f"campaign carries {len(cells)} cells; the limit is "
                f"{self.limits.max_campaign_cells}",
            )
        tenant = payload.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise HttpError(400, "'tenant' must be a non-empty string")
        priority = payload.get("priority", 10)
        if not isinstance(priority, int) or isinstance(priority, bool) \
                or not 0 <= priority <= 100:
            raise HttpError(400, "'priority' must be an integer in [0, 100]")
        return cells, tenant, priority

    def _parse_cells(self, cells_data: list) -> List[Tuple[Any, str, dict]]:
        """Each cell dict → (validated config, its key, its full dict).

        The full dict is serialized once, for the key and the journal.

        Collects *every* problem before raising so one 400 names every
        bad cell instead of failing them one at a time.
        """
        problems: List[dict] = []
        out: List[Tuple[Any, str, dict]] = []
        for i, data in enumerate(cells_data):
            if not isinstance(data, dict):
                problems.append({"cell": i, "error": "cell must be an object"})
                continue
            data = dict(data)
            scale = data.get("scale")
            if isinstance(scale, str):
                if scale not in SCALES:
                    problems.append({
                        "cell": i,
                        "error": f"unknown scale {scale!r}; "
                                 f"one of {sorted(SCALES)} or a full profile",
                    })
                    continue
                data["scale"] = dataclasses.asdict(SCALES[scale])
            try:
                cfg = config_from_dict(data)
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(
                    {"cell": i, "error": f"malformed config: {exc!r}"}
                )
                continue
            try:
                cfg.validate()
            except ConfigError as exc:
                problems.append({"cell": i, "error": str(exc)})
                continue
            full = config_to_dict(cfg)
            out.append((cfg, config_dict_key(full), full))
        if problems:
            raise HttpError(
                400,
                f"{len(problems)} invalid cell(s)",
                payload={"problems": problems},
            )
        return out

    def _attach(self, campaign: Campaign, cell: CellState) -> None:
        """Route one cell: cache hit, flight join, or new flight."""
        if self.store.contains_key(cell.key):
            cell.status = CELL_CACHED
            self.cache_hits += 1
            return
        flight = self.flights.get(cell.key)
        if flight is not None:
            cell.dedup = True
            self.flights.join(cell.key, campaign, cell)
            if flight.state == FLIGHT_RUNNING:
                cell.status = CELL_RUNNING
            return
        flight = self.flights.open(
            cell.key, cell.config, campaign.tenant, campaign.priority
        )
        flight.waiters.append((campaign, cell))
        self.scheduler.push(flight)

    # -- execution pump ------------------------------------------------

    def _pump(self) -> None:
        """Feed the executor while it has worker capacity."""
        if self.draining or self.executor is None:
            return
        while self.executor.inflight() < self.workers:
            flight = self.scheduler.pop()
            if flight is None:
                return
            if flight.abandoned:
                # Every waiter cancelled while it queued; never run it.
                flight.state = FLIGHT_CANCELLED
                self.flights.land(flight.key)
                continue
            flight.state = FLIGHT_RUNNING
            self.executor.submit(flight.config, flight.key)
            for campaign, cell in flight.waiters:
                cell.status = CELL_RUNNING
                self._publish(campaign, "cell", cell.to_dict())

    def _on_done(self, job: CellJob, outcome: CellOutcome) -> None:
        """Terminal event from the executor thread (runs on the loop)."""
        self.admission.observe_wall(outcome.wall_seconds)
        self._done_counts[outcome.status] = (
            self._done_counts.get(outcome.status, 0) + 1
        )
        # ``job.started`` stays 0.0 when no worker ever took the cell.
        if job.started:
            self._dispatch_wait_ms.add((job.started - job.queued_at) * 1e3)
        flight = self.flights.land(outcome.key)
        touched: List[Campaign] = []
        for campaign, cell in (flight.waiters if flight is not None else []):
            cell.attempts = outcome.attempts
            cell.wall_seconds = outcome.wall_seconds
            cell.worker_restarts = outcome.worker_restarts
            cell.peak_rss_mb = outcome.peak_rss_mb
            if job.started:
                cell.queue_wait_s = max(0.0, job.started - cell.admitted_at)
            self._settle(
                campaign, cell, outcome.status,
                error=outcome.error, error_kind=outcome.error_kind,
            )
            if campaign not in touched:
                touched.append(campaign)
        # Refill the freed worker first: the next cell simulates while
        # the manifests below are being fsync'd.
        self._pump()
        for campaign in touched:
            self._checkpoint(campaign)
            if campaign.done:
                self._publish(
                    campaign, "campaign", campaign.summary()
                )

    def _settle(
        self,
        campaign: Campaign,
        cell: CellState,
        status: str,
        *,
        error: Optional[str] = None,
        error_kind: Optional[str] = None,
    ) -> None:
        cell.status = status
        cell.error = error
        cell.error_kind = error_kind
        self._publish(campaign, "cell", cell.to_dict())

    # -- cancellation --------------------------------------------------

    def cancel(self, campaign_id: str) -> Campaign:
        campaign = self.get(campaign_id)
        if campaign.cancelled:
            return campaign  # idempotent
        campaign.cancelled = True
        for cell in campaign.cells:
            if cell.status in TERMINAL_STATES:
                continue
            flight = self.flights.get(cell.key)
            if flight is not None:
                flight.detach(campaign, cell)
                if flight.abandoned and flight.state == FLIGHT_QUEUED:
                    # Nobody wants it and it never started: retire it.
                    # (A running flight finishes and lands in the store
                    # — the work is already sunk and the result reusable.)
                    flight.state = FLIGHT_CANCELLED
                    self.flights.land(flight.key)
            self._settle(
                campaign, cell, CELL_CANCELLED, error="cancelled by client"
            )
        self._journal(
            campaign, [config_to_dict(c.config) for c in campaign.cells]
        )
        self._checkpoint(campaign)
        self._publish(campaign, "campaign", campaign.summary())
        return campaign

    # -- recovery ------------------------------------------------------

    def recover(self) -> dict:
        """Replay the journal's campaigns + manifests from a prior incarnation."""
        specs = self._read_journal()
        stale = sum(1 for name in os.listdir(self.campaigns_dir)
                    if name.endswith(".json") and ".manifest." not in name)
        if stale:
            log.warning("recover: %d old-layout campaigns/<id>.json spec(s) "
                        "found; they are not replayed", stale)

        requeued = cached = replayed_failed = 0
        for data in specs:
            campaign = Campaign(
                id=data["id"],
                tenant=data.get("tenant", "default"),
                priority=data.get("priority", 10),
                created_at=data.get("created_at", 0.0),
                cancelled=bool(data.get("cancelled", False)),
            )
            failed_by_key: Dict[str, Any] = {}
            manifest_path = self._manifest_path(campaign.id)
            if os.path.exists(manifest_path):
                try:
                    prior = RunManifest.load(manifest_path)
                except (ValueError, TypeError, OSError) as exc:
                    log.warning(
                        "recover: unreadable manifest for %s (%r); "
                        "treating all cells as unfinished",
                        campaign.id, exc,
                    )
                else:
                    failed_by_key = {c.key: c for c in prior.failed_cells()}
                    campaign.flushed = tuple(
                        (c.key, c.status) for c in prior.cells
                    )

            for i, cd in enumerate(data["cells"]):
                try:
                    cfg = config_from_dict(cd["config"])
                except (KeyError, TypeError, ValueError) as exc:
                    log.warning(
                        "recover: campaign %s cell %d is unparseable (%r); "
                        "dropping it", campaign.id, i, exc,
                    )
                    continue
                cell = CellState(index=i, key=config_key(cfg), config=cfg)
                campaign.cells.append(cell)
                if campaign.cancelled:
                    cell.status = CELL_CANCELLED
                    cell.error = "cancelled by client"
                elif self.store.contains_key(cell.key):
                    # Completed keys are never re-simulated: the store
                    # is the source of truth, the manifest only a log.
                    cell.status = CELL_CACHED
                    cell.replayed = True
                    self.cache_hits += 1
                    cached += 1
                elif cell.key in failed_by_key:
                    rec = failed_by_key[cell.key]
                    cell.status = CELL_FAILED
                    cell.error = rec.error
                    cell.error_kind = rec.error_kind
                    cell.attempts = rec.attempts
                    cell.worker_restarts = rec.worker_restarts
                    cell.replayed = True
                    replayed_failed += 1
                else:
                    self._attach(campaign, cell)
                    if not cell.dedup:
                        requeued += 1
            self.campaigns[campaign.id] = campaign
            self._checkpoint(campaign)

        if specs:
            log.info(
                "recover: %d campaign(s): %d cell(s) served from store, "
                "%d failure record(s) replayed, %d flight(s) re-queued",
                len(specs), cached, replayed_failed, requeued,
            )
        return {
            "campaigns": len(specs),
            "cached_cells": cached,
            "replayed_failures": replayed_failed,
            "requeued_flights": requeued,
        }

    # -- durability ----------------------------------------------------

    def _manifest_path(self, campaign_id: str) -> str:
        return os.path.join(self.campaigns_dir, f"{campaign_id}.manifest.json")

    def _read_journal(self) -> List[dict]:
        """The latest spec per campaign id, in first-admission order."""
        try:
            with open(self.journal_path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            return []
        end = blob.rfind(b"\n") + 1
        if end < len(blob):  # a torn tail: the next append must not glue on
            log.warning("recover: cutting a torn %d-byte journal tail",
                        len(blob) - end)
            os.truncate(self.journal_path, end)
        specs: Dict[str, dict] = {}
        skipped = 0
        for line in blob[:end].splitlines():
            try:
                data = json.loads(line)
                if isinstance(data.get("cells"), list):
                    specs[data["id"]] = data
                    continue
            except (ValueError, AttributeError, KeyError, TypeError):
                pass
            skipped += 1
        if skipped:
            log.warning("recover: skipped %d unreadable journal line(s)", skipped)
        return list(specs.values())

    def _journal(self, campaign: Campaign, configs: List[dict]) -> None:
        """Append the campaign's spec as one line and fdatasync it.

        ``configs`` holds each cell's :func:`config_to_dict` output.
        """
        spec = {name: getattr(campaign, name) for name in Campaign.HEAD}
        spec["cells"] = [{"key": cell.key, "config": data}
                         for cell, data in zip(campaign.cells, configs)]
        if self._journal_fd is None:
            created = not os.path.exists(self.journal_path)
            self._journal_fd = os.open(
                self.journal_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
            )
            if created:  # a new file's name is durable once its directory is
                dir_fd = os.open(self.serve_dir, os.O_RDONLY)
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
        os.write(self._journal_fd, (json.dumps(spec) + "\n").encode())
        os.fdatasync(self._journal_fd)

    def _checkpoint_all(self) -> None:
        for campaign in list(self.campaigns.values()):
            self._checkpoint(campaign)

    def _checkpoint(self, campaign: Campaign) -> None:
        """Flush the campaign's RunManifest (terminal cells only).

        A no-op when the manifest last flushed already records exactly
        these terminal states — a terminal cell never changes again, so
        equal ``(key, status)`` lists mean an identical file.
        """
        manifest = RunManifest(jobs=self.workers)
        for cell in campaign.cells:
            if cell.status == CELL_CANCELLED:
                # The manifest vocabulary has no "cancelled"; map it to
                # interrupted (recovery skips the campaign anyway via
                # the spec's cancelled flag).
                cell = dataclasses.replace(cell, status=CELL_INTERRUPTED)
            if cell.status in TERMINAL_STATES:
                manifest.add(cell)
        manifest.worker_restarts = sum(
            c.worker_restarts for c in campaign.cells
        )
        manifest.complete = campaign.done
        signature = tuple((c.key, c.status) for c in manifest.cells)
        if signature == campaign.flushed:
            return
        manifest.save(self._manifest_path(campaign.id))
        campaign.flushed = signature

    # -- queries -------------------------------------------------------

    def get(self, campaign_id: str) -> Campaign:
        campaign = self.campaigns.get(campaign_id)
        if campaign is None:
            raise HttpError(404, f"no campaign {campaign_id!r}")
        return campaign

    def result_bytes(self, key: str) -> bytes:
        """The stored result's raw bytes (byte-identical replay proof)."""
        path = self.store._existing_path(key)
        if path is None:
            raise HttpError(404, f"no stored result for key {key!r}")
        with open(path, "rb") as fh:
            return fh.read()

    def simulations_started(self) -> int:
        """Lines in the sim log = simulations workers actually began."""
        try:
            with open(self.sim_log, "rb") as fh:
                return sum(1 for _ in fh)
        except FileNotFoundError:
            return 0

    def stats(self) -> dict:
        return {
            "uptime_s": time.time() - self.started_at,
            "workers": self.workers,
            "draining": self.draining,
            "campaigns": len(self.campaigns),
            "queued_flights": len(self.scheduler),
            "open_flights": len(self.flights),
            "executing": self.executor.executing() if self.executor else 0,
            "inflight": self.executor.inflight() if self.executor else 0,
            "cache_hits": self.cache_hits,
            "dedup_joins": self.flights.joins,
            "cells_done": dict(self._done_counts),
            "dispatch_wait_ms": self._dispatch_wait_ms.summary(),
            "shed": {
                "total": self.admission.shed_count,
                "by_reason": dict(self.admission.shed_by_reason),
            },
            "retries": self.executor.reporter.retries if self.executor else 0,
            "worker_restarts": (
                self.executor.reporter.worker_restarts if self.executor else 0
            ),
            "simulations_started": self.simulations_started(),
            "tenants_queued": self.scheduler.tenants(),
        }

    # -- SSE pub/sub ---------------------------------------------------

    def subscribe(self, campaign: Campaign) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue(maxsize=256)
        campaign.subscribers.append(queue)
        return queue

    def unsubscribe(self, campaign: Campaign, queue: asyncio.Queue) -> None:
        try:
            campaign.subscribers.remove(queue)
        except ValueError:  # pragma: no cover - double unsubscribe
            pass

    def _publish(self, campaign: Campaign, name: str, payload: dict) -> None:
        for queue in campaign.subscribers:
            try:
                queue.put_nowait((name, payload))
            except asyncio.QueueFull:
                # A consumer that cannot keep up loses deltas; it still
                # converges via the snapshot on reconnect.
                continue
