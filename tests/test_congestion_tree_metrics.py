"""Tests for the congestion-tree observation helpers."""

from repro.engine import RngRegistry, Simulator
from repro.metrics import congested_ports

from tests.conftest import attach_hotspot_contributors, build_network


class TestCongestionObservation:
    def _congested_network(self):
        sim = Simulator()
        net, col, _ = build_network(sim)  # no CC: tree grows freely
        attach_hotspot_contributors(
            net, RngRegistry(1), hotspot=0, contributors=range(1, 8)
        )
        net.run(until=2e6)
        return net

    def test_idle_network_has_no_congestion(self):
        sim = Simulator()
        net, _, _ = build_network(sim)
        net.run(until=1e5)
        assert congested_ports(net) == []

    def test_hotspot_port_detected_as_congested(self):
        net = self._congested_network()
        ports = congested_ports(net)
        att = net.topology.host_attachment(0)
        assert (att.switch_id, att.switch_port) in ports

    def test_tree_spans_multiple_switches(self):
        # Without CC the backlog reaches the spine: congestion spreading.
        net = self._congested_network()
        switches = {sw for sw, _ in congested_ports(net)}
        assert len(switches) >= 2

    def test_fraction_parameter(self):
        net = self._congested_network()
        strict = congested_ports(net, fraction=0.9)
        loose = congested_ports(net, fraction=0.05)
        assert set(strict) <= set(loose)
