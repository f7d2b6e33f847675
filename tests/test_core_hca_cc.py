"""Tests for the HCA-side CC reaction point (CCTI, CCT timer, modes)."""

import pytest

from repro.core.cct import build_cct
from repro.core.hca_cc import HcaCC
from repro.core.parameters import CCParams
from repro.engine import Simulator
from repro.network.hca import Hca
from repro.network.packet import Packet


def make_hca_cc(sim=None, *, params=None):
    sim = sim or Simulator()
    hca = Hca(sim, 0)
    hca.obuf.credits = [10.0**9] * 2
    hca.obuf.peer = type("S", (), {"deliver": lambda self, p: None})()
    params = params or CCParams.paper_table1().with_(cct_slope=1.0)
    cct = build_cct(params.ccti_limit, shape=params.cct_shape, slope=params.cct_slope)
    cc = HcaCC(hca, params, cct)
    hca.cc = cc
    return sim, hca, cc


FLOW = (0, 5)


class TestBecnHandling:
    def test_becn_raises_ccti(self):
        _, _, cc = make_hca_cc()
        cc.on_becn(FLOW)
        assert cc.ccti_of(FLOW) == 1

    def test_ccti_increase_step(self):
        _, _, cc = make_hca_cc(
            params=CCParams.paper_table1().with_(ccti_increase=5)
        )
        cc.on_becn(FLOW)
        assert cc.ccti_of(FLOW) == 5

    def test_ccti_saturates_at_limit(self):
        _, _, cc = make_hca_cc(
            params=CCParams.paper_table1().with_(ccti_limit=3)
        )
        for _ in range(10):
            cc.on_becn(FLOW)
        assert cc.ccti_of(FLOW) == 3

    def test_flows_independent_in_qp_mode(self):
        _, _, cc = make_hca_cc()
        cc.on_becn((0, 5))
        cc.on_becn((0, 5))
        cc.on_becn((0, 7))
        assert cc.ccti_of((0, 5)) == 2
        assert cc.ccti_of((0, 7)) == 1
        assert cc.ccti_of((0, 9)) == 0

    def test_becn_counter(self):
        _, _, cc = make_hca_cc()
        cc.on_becn(FLOW)
        cc.on_becn(FLOW)
        assert cc.becns_applied == 2

    def test_throttled_flows_census(self):
        _, _, cc = make_hca_cc()
        cc.on_becn((0, 5))
        cc.on_becn((0, 6))
        assert cc.throttled_flows() == 2


class TestIrdPacing:
    def test_unthrottled_flow_not_paced(self):
        _, _, cc = make_hca_cc()
        assert cc.next_allowed(FLOW) == 0.0

    def test_throttled_flow_paced_after_inject(self):
        sim, hca, cc = make_hca_cc()
        cc.on_becn(FLOW)  # ccti=1, CCT[1]=1 (slope 1)
        # next = now + ser * (1 + CCT[1]) = 2 * ser: the IRD is relative
        # to the packet's own length, so it scales with the wire size.
        for wire in (2078, 1039):
            cc.on_inject(Packet(0, 5, wire - 30, header=30))
            ser = wire * hca.obuf.link.byte_time_ns
            assert cc.next_allowed(FLOW) == pytest.approx(2 * ser)

    def test_deeper_ccti_longer_gap(self):
        sim, hca, cc = make_hca_cc()
        for _ in range(4):
            cc.on_becn(FLOW)
        pkt = Packet(0, 5, 2048, header=30)
        cc.on_inject(pkt)
        ser = 2078 * hca.obuf.link.byte_time_ns
        assert cc.next_allowed(FLOW) == pytest.approx(5 * ser)

    def test_inject_of_other_flow_does_not_pace(self):
        _, _, cc = make_hca_cc()
        cc.on_becn(FLOW)
        cc.on_inject(Packet(0, 9, 2048))
        assert cc.next_allowed(FLOW) == 0.0

    def test_cct_shorter_than_limit_rejected(self):
        sim = Simulator()
        hca = Hca(sim, 0)
        with pytest.raises(ValueError, match="CCT shorter"):
            HcaCC(hca, CCParams.paper_table1(), cct=[0.0, 1.0])


class TestRecoveryTimer:
    def test_timer_decrements_ccti(self):
        sim, _, cc = make_hca_cc()
        cc.on_becn(FLOW)
        cc.on_becn(FLOW)
        sim.run(until=cc.params.timer_period_ns + 1)
        assert cc.ccti_of(FLOW) == 1

    def test_full_recovery_stops_timer(self):
        sim, _, cc = make_hca_cc()
        cc.on_becn(FLOW)
        sim.run(until=10 * cc.params.timer_period_ns)
        assert cc.ccti_of(FLOW) == 0
        fires = cc.timer_fires
        sim.schedule(10 * cc.params.timer_period_ns, lambda: None)
        sim.run()
        assert cc.timer_fires == fires  # no further expiries

    def test_timer_respects_ccti_min(self):
        sim, _, cc = make_hca_cc(
            params=CCParams.paper_table1().with_(ccti_min=2)
        )
        for _ in range(5):
            cc.on_becn(FLOW)
        sim.run(until=20 * cc.params.timer_period_ns)
        assert cc.ccti_of(FLOW) == 2

    def test_timer_decrements_all_flows(self):
        sim, _, cc = make_hca_cc()
        cc.on_becn((0, 5))
        cc.on_becn((0, 6))
        cc.on_becn((0, 6))
        sim.run(until=cc.params.timer_period_ns + 1)
        assert cc.ccti_of((0, 5)) == 0
        assert cc.ccti_of((0, 6)) == 1

    def test_becn_rearms_timer(self):
        sim, _, cc = make_hca_cc()
        cc.on_becn(FLOW)
        sim.run(until=2 * cc.params.timer_period_ns)
        assert cc.ccti_of(FLOW) == 0
        cc.on_becn(FLOW)
        sim.run(until=sim.now + 2 * cc.params.timer_period_ns)
        assert cc.ccti_of(FLOW) == 0  # decayed again


class TestSlMode:
    def test_one_becn_throttles_whole_sl(self):
        _, _, cc = make_hca_cc(
            params=CCParams.paper_table1().with_(cc_mode="sl")
        )
        cc.on_becn((0, 5), sl=0)
        # A different flow on the same SL observes the same throttle.
        assert cc.ccti_of((0, 9), sl=0) == 1

    def test_sls_are_separate(self):
        _, _, cc = make_hca_cc(
            params=CCParams.paper_table1().with_(cc_mode="sl")
        )
        cc.on_becn((0, 5), sl=0)
        assert cc.ccti_of((0, 5), sl=1) == 0

    def test_sl_mode_pacing_applies_to_all_flows(self):
        sim, hca, cc = make_hca_cc(
            params=CCParams.paper_table1().with_(cc_mode="sl", cct_slope=1.0)
        )
        cc.on_becn((0, 5), sl=0)
        cc.on_inject(Packet(0, 5, 2048, header=30))
        # The innocent flow (0, 9) is paced too - the paper's fairness
        # argument against SL-level operation.
        assert cc.next_allowed((0, 9), sl=0) > 0.0
