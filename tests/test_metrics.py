"""Tests for collectors and the paper's aggregate metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    Collector,
    group_rates,
    jain_fairness,
    mean_rate_gbps,
    tmax_gbps,
)
from repro.network.packet import Packet


class TestCollector:
    def test_counts_payload_not_wire(self):
        col = Collector(4)
        col.record_rx(1, Packet(0, 1, 2048, header=30), 10.0)
        assert col.rx_bytes[1] == 2048

    def test_warmup_excluded(self):
        col = Collector(4, warmup_ns=100.0)
        col.record_rx(1, Packet(0, 1, 2048), 99.9)
        col.record_rx(1, Packet(0, 1, 2048), 100.0)
        assert col.rx_bytes[1] == 2048

    def test_control_packets_separate(self):
        col = Collector(4)
        col.record_rx(1, Packet.cnp(0, 1), 10.0)
        assert col.rx_bytes[1] == 0
        assert col.control_rx == 1

    def test_rate_computation(self):
        col = Collector(2, warmup_ns=0.0)
        col.record_rx(0, Packet(1, 0, 1250), 5.0)  # 1250 B over 1000 ns
        assert col.rx_rate_gbps(0, 1000.0) == pytest.approx(10.0)

    def test_rate_accounts_for_warmup_window(self):
        col = Collector(2, warmup_ns=500.0)
        col.record_rx(0, Packet(1, 0, 1250), 600.0)
        assert col.rx_rate_gbps(0, 1500.0) == pytest.approx(10.0)

    def test_empty_window_rejected(self):
        col = Collector(2, warmup_ns=100.0)
        with pytest.raises(ValueError):
            col.rx_rate_gbps(0, 100.0)

    def test_tx_accounting(self):
        col = Collector(2)
        col.record_tx(0, Packet(0, 1, 2048), 1.0)
        assert col.tx_bytes[0] == 2048 and col.tx_packets[0] == 1

    def test_fecn_counter(self):
        col = Collector(2)
        pkt = Packet(0, 1, 100)
        pkt.fecn = True
        col.record_rx(1, pkt, 1.0)
        assert col.fecn_rx == 1

    def test_pair_tracking(self):
        col = Collector(4, track_pairs=True)
        col.record_rx(1, Packet(0, 1, 100), 1.0)
        col.record_rx(1, Packet(0, 1, 100), 2.0)
        col.record_rx(1, Packet(2, 1, 100), 3.0)
        assert col.rx_by_src[(0, 1)] == 200
        assert col.rx_by_src[(2, 1)] == 100

    def test_total_rate(self):
        col = Collector(2)
        col.record_rx(0, Packet(1, 0, 1250), 1.0)
        col.record_rx(1, Packet(0, 1, 1250), 1.0)
        assert col.total_rx_rate_gbps(1000.0) == pytest.approx(20.0)

class TestGroupRates:
    def test_split(self):
        rates = [10.0, 1.0, 2.0, 3.0]
        g = group_rates(rates, hotspots=[0])
        assert g["hotspot"] == 10.0
        assert g["non_hotspot"] == pytest.approx(2.0)
        assert g["all"] == pytest.approx(4.0)
        assert g["total"] == pytest.approx(16.0)

    def test_no_hotspots(self):
        g = group_rates([1.0, 2.0], hotspots=[])
        assert "hotspot" not in g
        assert g["non_hotspot"] == pytest.approx(1.5)

    def test_mean_rate_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_rate_gbps([1.0], [])


class TestTmax:
    def test_paper_fig5_p0(self):
        # x=25%: 162 B + 97 V nodes at 13.5 over 648 = 5.4 Gbit/s.
        assert tmax_gbps(
            n_nodes=648, n_b=162, n_v=97, p=0.0,
            inj_rate_gbps=13.5, sink_rate_gbps=13.6,
        ) == pytest.approx(5.4, abs=0.01)

    def test_paper_fig5_p100(self):
        # At p=1 only V traffic remains: 97 * 13.5 / 648 = 2.02.
        assert tmax_gbps(
            n_nodes=648, n_b=162, n_v=97, p=1.0,
            inj_rate_gbps=13.5, sink_rate_gbps=13.6,
        ) == pytest.approx(2.02, abs=0.01)

    def test_capped_by_sink_rate(self):
        assert tmax_gbps(
            n_nodes=2, n_b=0, n_v=2, p=0.0,
            inj_rate_gbps=40.0, sink_rate_gbps=13.6,
        ) == 13.6

    def test_decreasing_in_p(self):
        vals = [
            tmax_gbps(n_nodes=100, n_b=80, n_v=20, p=p / 10,
                      inj_rate_gbps=13.5, sink_rate_gbps=13.6)
            for p in range(11)
        ]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            tmax_gbps(n_nodes=10, n_b=1, n_v=1, p=1.5,
                      inj_rate_gbps=1, sink_rate_gbps=1)


class TestImprovementAndFairness:
    def test_jain_equal_is_one(self):
        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_jain_single_user_minimum(self):
        # One node hogging everything: index = 1/n.
        assert jain_fairness([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_jain_all_zero(self):
        assert jain_fairness([0.0, 0.0]) == 1.0

    def test_jain_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness([])

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_jain_bounds(self, values):
        j = jain_fairness(values)
        assert 0.0 < j <= 1.0 + 1e-9
