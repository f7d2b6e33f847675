"""Tests for CCParams (the paper's Table I) and the CCT builder."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cct import build_cct
from repro.core.parameters import CCTI_TIMER_UNIT_NS, CCParams


class TestPaperTable1:
    def test_exact_values(self):
        p = CCParams.paper_table1()
        assert p.ccti_increase == 1
        assert p.ccti_limit == 127
        assert p.ccti_min == 0
        assert p.ccti_timer == 150
        assert p.threshold == 15
        assert p.marking_rate == 0
        assert p.packet_size == 0

    def test_timer_period(self):
        # 150 ticks of 1.024 us = 153.6 us.
        assert CCParams.paper_table1().timer_period_ns == pytest.approx(153_600.0)
        assert CCTI_TIMER_UNIT_NS == 1024.0

    def test_qp_mode_default(self):
        assert CCParams.paper_table1().cc_mode == "qp"


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threshold": -1},
            {"threshold": 16},
            {"marking_rate": -1},
            {"packet_size": -5},
            {"ccti_increase": 0},
            {"ccti_min": 10, "ccti_limit": 5},
            {"ccti_timer": 0},
            {"cct_shape": "weird"},
            {"cct_slope": -1.0},
            {"cc_mode": "port"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            CCParams(**kwargs)

    def test_with_copies(self):
        base = CCParams.paper_table1()
        derived = base.with_(threshold=7)
        assert derived.threshold == 7
        assert base.threshold == 15  # original untouched


class TestThresholdMapping:
    def test_weight_zero_disables(self):
        assert CCParams(threshold=0).threshold_bytes(16384) == float("inf")

    def test_weight_15_is_lowest_threshold(self):
        p15 = CCParams(threshold=15).threshold_bytes(16384)
        p1 = CCParams(threshold=1).threshold_bytes(16384)
        assert p15 < p1
        assert p15 == pytest.approx(16384 / 16)
        assert p1 == pytest.approx(16384 * 15 / 16)

    def test_uniformly_decreasing(self):
        vals = [CCParams(threshold=w).threshold_bytes(16000) for w in range(1, 16)]
        diffs = [vals[i] - vals[i + 1] for i in range(len(vals) - 1)]
        assert all(d == pytest.approx(1000.0) for d in diffs)


class TestCctBuilder:
    def test_entry_zero_is_zero(self):
        for shape in ("linear", "exponential"):
            assert build_cct(127, shape=shape)[0] == 0.0

    def test_length(self):
        assert len(build_cct(127)) == 128

    def test_linear_slope(self):
        cct = build_cct(10, shape="linear", slope=2.0)
        assert cct[5] == pytest.approx(10.0)

    def test_exponential_growth(self):
        cct = build_cct(32, shape="exponential", slope=8.0)
        assert cct[32] > 4 * cct[16] > 0

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            build_cct(4, shape="cubic")

    def test_negative_limit(self):
        with pytest.raises(ValueError):
            build_cct(-1)

    @given(
        limit=st.integers(min_value=1, max_value=200),
        slope=st.floats(min_value=0.0, max_value=16.0),
        shape=st.sampled_from(["linear", "exponential"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_non_negative(self, limit, slope, shape):
        cct = build_cct(limit, shape=shape, slope=slope)
        assert all(v >= 0 for v in cct)
        assert all(a <= b for a, b in zip(cct, cct[1:]))
