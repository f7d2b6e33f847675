"""Tests for the network-wide CC manager."""

from repro.core import CCManager, CCParams
from repro.engine import Simulator
from repro.metrics import Collector
from repro.network import Network, NetworkConfig
from repro.topology import three_stage_fat_tree


def installed(params=None):
    sim = Simulator()
    topo = three_stage_fat_tree(4)
    net = Network(sim, topo, NetworkConfig(), collector=Collector(topo.n_hosts))
    mgr = CCManager(params).install(net)
    return net, mgr


class TestInstall:
    def test_every_switch_gets_cc(self):
        net, mgr = installed()
        assert len(mgr.switch_cc) == len(net.switches)
        assert all(sw.cc is scc for sw, scc in zip(net.switches, mgr.switch_cc))

    def test_every_output_port_hooked(self):
        net, _ = installed()
        for sw in net.switches:
            assert all(out.cc is sw.cc for out in sw.output_ports)

    def test_every_hca_gets_cc(self):
        net, mgr = installed()
        assert len(mgr.hca_cc) == len(net.hcas)
        assert all(h.cc is hcc for h, hcc in zip(net.hcas, mgr.hca_cc))

    def test_victim_mask_on_hca_facing_ports_only(self):
        net, mgr = installed()
        masked = {
            (sw_id, port)
            for sw_id, scc in enumerate(mgr.switch_cc)
            for port, flag in enumerate(scc.victim_mask)
            if flag
        }
        expected = {
            (hl.switch_id, hl.switch_port) for hl in net.topology.host_links
        }
        assert masked == expected

    def test_victim_mask_can_be_disabled(self):
        _, mgr = installed(
            CCParams.paper_table1().with_(victim_mask_hca_ports=False)
        )
        assert not any(any(scc.victim_mask) for scc in mgr.switch_cc)

    def test_shared_cct(self):
        _, mgr = installed()
        first = mgr.hca_cc[0].cct
        assert all(hcc.cct is first for hcc in mgr.hca_cc)

    def test_default_params_are_paper_values(self):
        _, mgr = installed()
        assert mgr.params.threshold == 15
        assert mgr.params.ccti_limit == 127


class TestAggregates:
    def test_counters_start_at_zero(self):
        _, mgr = installed()
        assert mgr.total_marks() == 0
        assert mgr.total_becns() == 0
        assert mgr.throttled_flows() == 0
