"""Rate-limiting token buckets for generator streams.

Frame I of the paper is precise about generator semantics: after time
``t``, *at most* ``p%`` of ``t x link capacity`` may have gone to the
hotspot and *at most* ``(1-p)%`` to other destinations — the two shares
are budgeted against elapsed time, **not against each other**, and a
stream whose peer is blocked leaves the link idle rather than lending
its share away.

A :class:`TokenBudget` is a classic leaky bucket: tokens accrue at the
stream's rate up to a small burst depth (one message by default).
The *bucket* (rather than an unbounded fluid envelope) matters: the
13.5 Gbit/s injection limit models a PCIe bottleneck, i.e. a physical
instantaneous cap — a node that was backpressured for milliseconds must
not "catch up" at link rate afterwards, it has simply lost that
capacity (its requested share was "t times link capacity", per the
paper, and unsent requests expire with t).
"""

from __future__ import annotations

from math import inf


class TokenBudget:
    """Leaky-bucket rate limiter.

    Parameters
    ----------
    rate_gbps:
        Long-run ceiling of the stream.
    burst_bytes:
        Bucket depth; must cover the largest single charge. Defaults to
        one paper message (4096 B).
    start_ns:
        Virtual time at which the bucket starts full.
    """

    __slots__ = ("rate", "burst", "tokens", "last", "spent")

    def __init__(self, rate_gbps: float, burst_bytes: int = 4096, start_ns: float = 0.0) -> None:
        if rate_gbps < 0:
            raise ValueError("rate must be >= 0")
        if burst_bytes <= 0:
            raise ValueError("burst must be positive")
        self.rate = rate_gbps / 8.0  # bytes per ns
        self.burst = float(burst_bytes)
        self.tokens = float(burst_bytes)
        self.last = start_ns
        self.spent = 0

    @property
    def enabled(self) -> bool:
        return self.rate > 0.0

    def _advance(self, now: float) -> None:
        if now > self.last:
            tokens = self.tokens + self.rate * (now - self.last)
            self.tokens = tokens if tokens < self.burst else self.burst
            self.last = now

    def eligible_time(self, now: float, nbytes: int) -> float:
        """Earliest time a charge of ``nbytes`` is within the budget."""
        rate = self.rate
        if rate <= 0.0:
            return inf
        burst = self.burst
        if nbytes > burst:
            raise ValueError(
                f"charge of {nbytes} B exceeds bucket depth {burst} B"
            )
        tokens = self.tokens
        if now > self.last:  # _advance(), in place
            tokens += rate * (now - self.last)
            if tokens > burst:
                tokens = burst
            self.tokens = tokens
            self.last = now
        if tokens >= nbytes:
            return now
        return now + (nbytes - tokens) / rate

    def charge(self, now: float, nbytes: int) -> None:
        """Consume ``nbytes`` of budget (caller checked eligibility)."""
        self._advance(now)
        self.tokens -= nbytes
        self.spent += nbytes

    def utilization(self, now: float, start_ns: float = 0.0) -> float:
        """Fraction of the stream's long-run ceiling actually used."""
        window = now - start_ns
        if window <= 0 or self.rate <= 0:
            return 0.0
        return self.spent / (self.rate * window)
