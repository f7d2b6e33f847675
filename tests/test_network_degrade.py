"""Tests for link degradation and in-fabric congestion roots."""

import pytest

from repro.core import CCManager, CCParams
from repro.engine import RngRegistry, Simulator
from repro.network.degrade import degrade_link, degrade_uplink_between

from tests.conftest import attach_fixed_flow, build_network

MS = 1e6


class TestDegrade:
    def test_validation(self):
        sim = Simulator()
        net, _, _ = build_network(sim, radix=4)
        with pytest.raises(ValueError):
            degrade_link(net, 0, 0, 0.0)
        with pytest.raises(ValueError):
            degrade_link(net, 0, 0, 1.5)

    def test_rate_scaled(self):
        sim = Simulator()
        net, _, _ = build_network(sim, radix=4)
        new_rate = degrade_link(net, 0, 2, 0.25)
        assert new_rate == pytest.approx(5.0)
        assert net.switches[0].output_ports[2].link.rate_gbps == pytest.approx(5.0)

    def test_uplink_helper_targets_right_port(self):
        sim = Simulator()
        net, _, _ = build_network(sim, radix=4)
        sw, port = degrade_uplink_between(net, leaf=1, spine=0, factor=0.5)
        assert (sw, port) == (1, 2)  # hosts_per_leaf=2, spine 0 -> port 2

    def test_throughput_follows_degraded_link(self):
        sim = Simulator()
        net, col, _ = build_network(sim, radix=4)
        # Host 0 -> host 5 crosses leaf 0's uplink to spine (5 % 2 = 1).
        degrade_uplink_between(net, leaf=0, spine=1, factor=0.25)  # 5 Gbit/s
        attach_fixed_flow(net, RngRegistry(1), src=0, dst=5, rate_gbps=13.5)
        net.run(until=3 * MS)
        rate = col.rx_rate_gbps(5, 3 * MS)
        assert rate == pytest.approx(5.0, rel=0.1)

    def test_degraded_uplink_roots_in_fabric_and_marks(self):
        # Two full-rate flows share a 5 Gbit/s uplink: the slow port is
        # the congestion root *inside* the fabric. It keeps earning
        # credits from its healthy downstream, so the credit rule
        # classifies it as a root and CC marks there - no Victim Mask
        # involved (that port is switch-facing).
        sim = Simulator()
        params = CCParams.paper_table1().with_(cct_slope=0.5, marking_rate=0)
        net, col, mgr = build_network(sim, radix=4, cc=True, cc_params=params)
        sw, port = degrade_uplink_between(net, leaf=0, spine=1, factor=0.25)
        rng = RngRegistry(1)
        attach_fixed_flow(net, rng, src=0, dst=5, rate_gbps=13.5)
        attach_fixed_flow(net, rng, src=1, dst=7, rate_gbps=13.5)
        net.run(until=4 * MS)
        scc = mgr.switch_cc[sw]
        assert scc.marks > 0
        assert not scc.victim_mask[port]
        # Both flows got throttled toward the 5 Gbit/s bottleneck share.
        assert mgr.total_becns() > 0

    def test_cc_shares_degraded_link_fairly(self):
        from repro.metrics import Collector, jain_fairness

        sim = Simulator()
        params = CCParams.paper_table1().with_(cct_slope=0.5, marking_rate=0)
        col = Collector(8, warmup_ns=2 * MS, track_pairs=True)
        net, col, mgr = build_network(
            sim, radix=4, collector=col, cc=True, cc_params=params
        )
        degrade_uplink_between(net, leaf=0, spine=1, factor=0.25)
        rng = RngRegistry(1)
        attach_fixed_flow(net, rng, src=0, dst=5, rate_gbps=13.5)
        attach_fixed_flow(net, rng, src=1, dst=7, rate_gbps=13.5)
        net.run(until=8 * MS)
        a = col.rx_by_src.get((0, 5), 0)
        b = col.rx_by_src.get((1, 7), 0)
        assert jain_fairness([a, b]) > 0.9
        total = (a + b) * 8 / (6 * MS)
        assert total == pytest.approx(5.0, rel=0.25)
