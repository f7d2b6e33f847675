"""Unit and property tests for the leaky-bucket budgets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic.budgets import TokenBudget


class TestTokenBudget:
    def test_starts_full(self):
        b = TokenBudget(8.0, 4096)
        assert b.eligible_time(0.0, 4096) == 0.0

    def test_burst_depth_limits_single_charge(self):
        b = TokenBudget(8.0, 4096)
        with pytest.raises(ValueError):
            b.eligible_time(0.0, 5000)

    def test_refill_rate(self):
        # 8 Gbit/s = 1 byte/ns. Draining the full bucket means the next
        # 1000-byte charge is eligible exactly 1000 ns later.
        b = TokenBudget(8.0, 4096)
        b.charge(0.0, 4096)
        assert b.eligible_time(0.0, 1000) == pytest.approx(1000.0)

    def test_partial_tokens_shorten_wait(self):
        b = TokenBudget(8.0, 4096)
        b.charge(0.0, 4096)
        assert b.eligible_time(500.0, 1000) == pytest.approx(1000.0)

    def test_no_catch_up_after_idle(self):
        # A long idle period must not bank more than the bucket depth:
        # the injection cap is a physical bottleneck (PCIe), not a quota.
        b = TokenBudget(8.0, 4096)
        b.charge(0.0, 4096)
        b.charge(1_000_000.0, 4096)  # idle 1 ms, bucket full again
        # Immediately after, only refill-rate service is available.
        assert b.eligible_time(1_000_000.0, 4096) == pytest.approx(1_004_096.0)

    def test_disabled_stream(self):
        b = TokenBudget(0.0)
        assert not b.enabled
        assert b.eligible_time(0.0, 1) == float("inf")

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            TokenBudget(-1.0)

    def test_zero_burst_rejected(self):
        with pytest.raises(ValueError):
            TokenBudget(1.0, 0)

    def test_spent_counter(self):
        b = TokenBudget(8.0, 4096)
        b.charge(0.0, 100)
        b.charge(10.0, 200)
        assert b.spent == 300

    def test_utilization(self):
        b = TokenBudget(8.0, 4096)  # 1 byte/ns
        b.charge(0.0, 500)
        assert b.utilization(1000.0) == pytest.approx(0.5)

    def test_utilization_zero_window(self):
        assert TokenBudget(8.0).utilization(0.0) == 0.0


class TestBudgetProperties:
    @given(
        rate=st.floats(min_value=0.5, max_value=40.0),
        charges=st.lists(st.integers(min_value=64, max_value=4096), min_size=1, max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_long_run_rate_never_exceeded(self, rate, charges):
        """Charging as early as allowed keeps spend within rate*t + burst."""
        b = TokenBudget(rate, 4096)
        now = 0.0
        for n in charges:
            now = max(now, b.eligible_time(now, n))
            b.charge(now, n)
        if now > 0:
            assert b.spent <= (rate / 8.0) * now + 4096 + 1e-6

    @given(
        rate=st.floats(min_value=0.5, max_value=40.0),
        n=st.integers(min_value=64, max_value=4096),
        idle=st.floats(min_value=0.0, max_value=1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_eligible_time_never_in_past(self, rate, n, idle):
        b = TokenBudget(rate, 4096)
        b.charge(0.0, 4096)
        t = b.eligible_time(idle, n)
        assert t >= idle

    @given(st.integers(min_value=64, max_value=4096))
    @settings(max_examples=30, deadline=None)
    def test_tokens_bounded_by_burst(self, n):
        b = TokenBudget(8.0, 4096)
        b.charge(0.0, n)
        b.eligible_time(1e9, 64)  # force refill far in the future
        assert b.tokens <= 4096.0


def parent_eligible_time(b: TokenBudget, now: float, nbytes: int) -> float:
    """``eligible_time`` as it was before ISSUE 21 folded ``_advance``
    into it: the reference the in-place version must match to the bit."""
    if b.rate <= 0.0:
        return float("inf")
    if nbytes > b.burst:
        raise ValueError("charge exceeds bucket depth")
    b._advance(now)
    if b.tokens >= nbytes:
        return now
    return now + (nbytes - b.tokens) / b.rate


class TestEligibleTimeInPlace:
    @given(
        rate=st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=40.0)),
        burst=st.integers(min_value=64, max_value=8192),
        walk=st.lists(
            st.tuples(
                # Clock step: backwards and zero (now <= last) as well
                # as long idles that hit the cap at ``burst``.
                st.one_of(
                    st.just(0.0),
                    st.floats(min_value=-500.0, max_value=5e3),
                    st.floats(min_value=1e5, max_value=1e7),
                ),
                st.integers(min_value=1, max_value=8192),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_advance_then_compute(self, rate, burst, walk):
        new = TokenBudget(rate, burst, start_ns=100.0)
        old = TokenBudget(rate, burst, start_ns=100.0)
        now = 100.0
        for step, nbytes in walk:
            now += step
            if nbytes > burst and rate > 0.0:
                with pytest.raises(ValueError):
                    new.eligible_time(now, nbytes)
                continue
            t_new = new.eligible_time(now, nbytes)
            t_old = parent_eligible_time(old, now, nbytes)
            assert t_new.hex() == t_old.hex()
            assert (new.tokens.hex(), new.last) == (old.tokens.hex(), old.last)
            if t_new <= now:  # eligible: spend it, as the generator does
                new.charge(now, nbytes)
                old.charge(now, nbytes)
        assert new.tokens <= new.burst
