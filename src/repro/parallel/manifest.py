"""JSON run manifest: the durable record of one campaign execution.

Where :mod:`repro.parallel.progress` is the live view, the manifest is
what survives the run: one record per cell (config key, terminal
status, attempts, wall time, error text for failures) plus campaign
totals. A resumed campaign can diff its grid against a manifest, and a
failed cell surfaces here as data instead of crashing the whole run.

The executor flushes the manifest incrementally (atomically, via a
temp file + ``os.replace``) as cells complete, so a killed campaign
leaves a valid, resumable manifest: ``complete`` is False, interrupted
cells carry status ``"interrupted"``, and
``run_campaign(resume_from=path)`` picks up where the run stopped.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Set


@dataclass
class CellRecord:
    """Terminal state of one cell, as written to the manifest."""

    index: int
    key: str
    name: str
    status: str  # "ok" | "cached" | "failed" | "interrupted"
    attempts: int
    wall_seconds: float
    error: Optional[str] = None
    # Structured failure taxonomy (repro.parallel.errors) — set for
    # status == "failed". Manifests written before the taxonomy existed
    # load as "unknown".
    error_kind: Optional[str] = None
    # Worker processes this cell killed or had preempted while it was
    # in flight (crash / stall / timeout kills attributed to the cell).
    worker_restarts: int = 0
    # Trace digest of the cell's run, when it was executed with tracing
    # (repro.trace) — the event-level equivalence token across jobs=1
    # and jobs=N executions of the same campaign.
    digest: Optional[str] = None
    # Permanently FAILED transport flows, when the cell ran on the
    # reliable transport (repro.transport); None when transport was off.
    failed_flows: Optional[int] = None
    # Which congestion-control mechanism the cell ran ("off" when
    # cc=False); None only for manifests written before repro.cc.
    cc_mechanism: Optional[str] = None
    # RSS high-water mark (MB) of the process that ran the cell, read
    # when the cell ended. Workers are persistent, so this is monotone
    # across the cells one worker ran -- the number ``max_rss_mb`` has
    # to clear, not the cell's own footprint. None for cached cells and
    # for manifests written before the field existed.
    peak_rss_mb: Optional[float] = None


@dataclass
class RunManifest:
    """Campaign totals plus the per-cell records."""

    jobs: int = 1
    total_cells: int = 0
    ok: int = 0
    cache_hits: int = 0
    failures: int = 0
    interrupted: int = 0
    retries: int = 0
    # Total worker processes the supervisor restarted during the
    # campaign (crashes, stalls, timeout preemptions).
    worker_restarts: int = 0
    worker_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    # False while the campaign is still running (checkpoint flushes)
    # or when it was interrupted; True only for a finished campaign.
    complete: bool = True
    cells: List[CellRecord] = field(default_factory=list)

    @classmethod
    def from_outcomes(
        cls,
        outcomes,
        *,
        jobs: int = 1,
        retries: int = 0,
        worker_restarts: int = 0,
        elapsed_seconds: float = 0.0,
    ) -> "RunManifest":
        """Build the manifest from a campaign's cell outcomes.

        ``None`` entries (cells with no terminal state yet, as during a
        checkpoint flush) are skipped.
        """
        manifest = cls(
            jobs=jobs, retries=retries, worker_restarts=worker_restarts,
            elapsed_seconds=elapsed_seconds,
        )
        for out in outcomes:
            if out is not None:
                manifest.add(out)
        return manifest

    def add(self, outcome) -> None:
        """Fold one :class:`~repro.parallel.supervisor.CellOutcome` in."""
        self.total_cells += 1
        if outcome.status == "cached":
            self.cache_hits += 1
        elif outcome.status == "failed":
            self.failures += 1
        elif outcome.status == "interrupted":
            self.interrupted += 1
        else:
            self.ok += 1
        self.worker_seconds += outcome.wall_seconds
        # The daemon's live cell states carry no result.
        result = getattr(outcome, "result", None)
        self.cells.append(
            CellRecord(
                index=outcome.index,
                key=outcome.key,
                name=getattr(outcome.config, "name", "") or "",
                status=outcome.status,
                attempts=outcome.attempts,
                wall_seconds=outcome.wall_seconds,
                error=outcome.error,
                error_kind=getattr(outcome, "error_kind", None),
                worker_restarts=getattr(outcome, "worker_restarts", 0),
                digest=getattr(result, "trace_digest", None),
                failed_flows=(
                    getattr(result, "failed_flows", None)
                    if getattr(result, "config", None) is not None
                    and getattr(result.config, "transport", None)
                    is not None
                    else None
                ),
                cc_mechanism=getattr(outcome.config, "cc_mechanism", None),
                peak_rss_mb=getattr(outcome, "peak_rss_mb", None),
            )
        )

    def failed_cells(self) -> List[CellRecord]:
        return [c for c in self.cells if c.status == "failed"]

    def failed_kinds(self) -> Dict[str, int]:
        """Failure counts per taxonomy ``error_kind``."""
        kinds: Dict[str, int] = {}
        for c in self.failed_cells():
            kind = c.error_kind or "unknown"
            kinds[kind] = kinds.get(kind, 0) + 1
        return kinds

    def completed_keys(self) -> Set[str]:
        """Config keys of every cell that finished with a result."""
        return {c.key for c in self.cells if c.status in ("ok", "cached")}

    def digests(self) -> Dict[str, Optional[str]]:
        """Per-cell trace digests keyed by config key (None untraced)."""
        return {c.key: c.digest for c in self.cells}

    def to_dict(self) -> Dict:
        return asdict(self)

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: str) -> str:
        """Write the manifest JSON file atomically; returns its path.

        Atomicity matters because the executor checkpoints the manifest
        after every cell: a kill mid-flush must leave the previous
        (valid) checkpoint in place, never a truncated file.
        """
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        with open(path) as fh:
            data = json.load(fh)
        cells = [CellRecord(**c) for c in data.pop("cells", [])]
        # Manifests written before the error taxonomy existed carry
        # failed records with no kind; backfill "unknown" so resume and
        # reporting can branch on the field unconditionally.
        for cell in cells:
            if cell.status == "failed" and cell.error_kind is None:
                cell.error_kind = "unknown"
        return cls(cells=cells, **data)
