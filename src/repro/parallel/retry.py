"""Bounded retry with exponential backoff for failed experiment cells.

A campaign over hundreds of cells must survive the occasional crashed
or hung worker: one lost cell should cost one retried simulation, not
the whole run. :class:`RetryPolicy` decides *whether* an attempt may be
retried and *how long* to wait before the next attempt; the supervisor
in :mod:`repro.parallel.supervisor` applies it per cell.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to try a cell and how to back off in between.

    ``max_attempts`` counts every try, including the first — the default
    of 1 means "never retry" and makes failures immediate, matching the
    historical serial behavior. Backoff is exponential:
    ``backoff_s * backoff_factor ** (attempt - 1)`` capped at
    ``max_backoff_s``; attempts are numbered from 1.
    """

    max_attempts: int = 1
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    max_backoff_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def should_retry(self, attempts_made: int) -> bool:
        """Whether another attempt is allowed after ``attempts_made`` tries."""
        return attempts_made < self.max_attempts

    def delay_s(self, attempts_made: int) -> float:
        """Seconds to wait before the attempt following ``attempts_made``."""
        if self.backoff_s <= 0 or attempts_made < 1:
            return 0.0
        delay = self.backoff_s * self.backoff_factor ** (attempts_made - 1)
        return min(delay, self.max_backoff_s)


#: Retry policy for campaigns: three attempts with a short growing pause.
DEFAULT_CAMPAIGN_POLICY = RetryPolicy(max_attempts=3, backoff_s=0.5)

#: Policy preserving the historical fail-fast behavior.
NO_RETRY = RetryPolicy(max_attempts=1)
