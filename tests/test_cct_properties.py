"""Property-based tests for CCT construction.

The CCT is the one CC data structure whose shape the spec leaves open;
these properties hold for *every* legal (limit, slope) combination,
not just the table-1 defaults the example tests exercise.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core import build_cct

limits = st.integers(min_value=0, max_value=255)
slopes = st.floats(
    min_value=0.0, max_value=16.0, allow_nan=False, allow_infinity=False
)
shapes = st.sampled_from(["linear", "exponential"])


@given(limit=limits, slope=slopes, shape=shapes)
def test_cct_shape_invariants(limit, slope, shape):
    table = build_cct(limit, shape=shape, slope=slope)
    # Exactly limit+1 entries, indices 0..limit.
    assert len(table) == limit + 1
    # A flow at index 0 is unthrottled.
    assert table[0] == 0.0
    # Entries are non-negative and non-decreasing: raising the CCTI
    # never *increases* a flow's injection rate.
    assert all(v >= 0.0 for v in table)
    assert all(b >= a for a, b in zip(table, table[1:]))


@given(limit=st.integers(min_value=1, max_value=255), shape=shapes)
def test_cct_steeper_slope_throttles_harder(limit, shape):
    shallow = build_cct(limit, shape=shape, slope=1.0)
    steep = build_cct(limit, shape=shape, slope=4.0)
    assert all(s >= h for s, h in zip(steep, shallow))
    assert steep[limit] > shallow[limit]

