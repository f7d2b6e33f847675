"""repro.parallel — fault-tolerant parallel experiment execution.

Paper artifacts (Table II, figures 5–10) and CC parameter-tuning
campaigns are grids of *independent* simulation cells. This package
runs such grids with deterministic seeding, bounded retry,
read-through/write-through result caching, and progress/manifest
telemetry. Every cell goes through one loop,
:meth:`Supervisor.run <repro.parallel.supervisor.Supervisor.run>`,
which runs it inline (zero workers) or on persistent worker processes
and reports it once as a terminal :class:`CellOutcome`:

* :mod:`repro.parallel.pool` — :func:`run_campaign`, a grid in and a
  :class:`CampaignResult` out;
* :mod:`repro.parallel.supervisor` — the loop (heartbeats, crash
  isolation, poisoned-cell quarantine, resource budgets);
* :mod:`repro.parallel.errors` — the structured failure taxonomy
  (``crash | oom | timeout | config | sim | poisoned | unknown``);
* :mod:`repro.parallel.retry` — :class:`RetryPolicy`;
* :mod:`repro.parallel.cache` — :class:`CellCache` over the JSON
  :class:`~repro.experiments.store.ResultStore`;
* :mod:`repro.parallel.progress` — :class:`ProgressReporter` (live
  text + telemetry counters);
* :mod:`repro.parallel.manifest` — :class:`RunManifest` (the JSON run
  record).

Every experiment entry point (``sweep``, ``run_artifact`` — and so
every paper artifact and the ``ibcc-repro`` CLI) accepts
``jobs=``/``cache=`` and routes through :func:`run_campaign`; results
are identical at any ``jobs`` value.
"""

from repro.parallel.cache import CellCache, NullCache, as_cache
from repro.parallel.errors import ERROR_KINDS, NO_RETRY_KINDS
from repro.parallel.manifest import CellRecord, RunManifest
from repro.parallel.pool import (
    CampaignError,
    CampaignResult,
    derive_seed,
    run_campaign,
)
from repro.parallel.progress import ProgressReporter
from repro.parallel.retry import DEFAULT_CAMPAIGN_POLICY, NO_RETRY, RetryPolicy
from repro.parallel.supervisor import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_POISON_THRESHOLD,
    CellOutcome,
)

__all__ = [
    "CampaignError",
    "CampaignResult",
    "CellOutcome",
    "CellCache",
    "CellRecord",
    "DEFAULT_CAMPAIGN_POLICY",
    "DEFAULT_HEARTBEAT_S",
    "DEFAULT_POISON_THRESHOLD",
    "ERROR_KINDS",
    "NO_RETRY",
    "NO_RETRY_KINDS",
    "NullCache",
    "ProgressReporter",
    "RetryPolicy",
    "RunManifest",
    "as_cache",
    "derive_seed",
    "run_campaign",
]
