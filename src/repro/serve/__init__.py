"""``repro serve`` — a crash-safe, multi-tenant campaign daemon.

The batch drivers (:mod:`repro.parallel`) run one campaign per
process; this package turns the same supervised-worker runtime into a
long-lived service: an asyncio HTTP/JSON daemon that admits campaigns
from many tenants, deduplicates identical configs down to a single
simulation (single-flight keyed by ``store.config_key``), schedules
fairly across tenants, sheds overload with ``429 + Retry-After``,
streams per-cell progress over SSE, drains gracefully on SIGTERM, and
replays its run manifests on restart so completed keys are never
re-simulated.

Layering (each module only imports downward):

* :mod:`repro.serve.http` — hardened HTTP/1.1 + SSE primitives
* :mod:`repro.serve.singleflight` — the in-flight dedup registry
* :mod:`repro.serve.scheduler` — tenant fair queueing + admission
* :mod:`repro.serve.executor` — the campaign supervisor on its own thread
* :mod:`repro.serve.service` — campaign state, durability, recovery
* :mod:`repro.serve.app` — routing, SSE streaming, signal handling
* :mod:`repro.serve.cli` — the ``ibcc-repro serve`` entry point
* :mod:`repro.serve.client` / :mod:`repro.serve.loadgen` — stdlib
  client and the synthetic load driver (tests + CI smoke)
"""

from repro.serve.client import ApiResponse, ServeClient, ServeError
from repro.serve.scheduler import AdmissionLimits
from repro.serve.service import Campaign, CampaignService, CellState

__all__ = [
    "ApiResponse",
    "AdmissionLimits",
    "Campaign",
    "CampaignService",
    "CellState",
    "ServeClient",
    "ServeError",
]
