"""Tests for the extension substrates: weighted VL arbitration, latency
tracking and deadlock detection."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import RngRegistry, Simulator
from repro.metrics import Collector
from repro.metrics.latency import LatencyTracker
from repro.network import Network, NetworkConfig
from repro.network.deadlock import DeadlockWatchdog, detect_deadlock
from repro.network.ports import LinkConfig, OutputPort
from repro.network.vlarb import VlArbitrationTable, install_vl_arbitration
from repro.network.packet import Packet
from repro.topology import three_stage_fat_tree, torus
from repro.traffic import FixedRateSource

from tests.conftest import attach_fixed_flow, attach_hotspot_contributors, build_network

MS = 1e6


class Capture:
    def __init__(self):
        self.packets = []

    def deliver(self, pkt):
        self.packets.append(pkt)


class TestVlArbitrationTable:
    def _port(self, sim, table, n_vls=2):
        port = OutputPort(sim, LinkConfig(), n_vls=n_vls)
        port.credits = [10.0**9] * n_vls
        port.vlarb = table
        peer = Capture()
        port.peer = peer
        return port, peer

    def test_validation(self):
        with pytest.raises(ValueError):
            VlArbitrationTable([0], [0])  # weight < 1
        with pytest.raises(ValueError):
            VlArbitrationTable([0, 1], [1])  # length mismatch
        with pytest.raises(ValueError):
            VlArbitrationTable([], [])

    def test_strict_priority(self):
        sim = Simulator()
        port, peer = self._port(sim, VlArbitrationTable([0, 1], [1, 1]))
        for i in range(3):
            port.enqueue(Packet(0, 1, 1000, header=0, vl=0, msg_id=i))
        for i in range(3):
            port.enqueue(Packet(0, 1, 1000, header=0, vl=1, msg_id=10 + i))
        sim.run()
        vls = [p.vl for p in peer.packets]
        # After the first (already in flight) packet, VL1 drains fully
        # before VL0 resumes.
        assert vls[1:4] == [1, 1, 1]

    def test_priority_vl_does_not_starve_when_empty(self):
        sim = Simulator()
        port, peer = self._port(sim, VlArbitrationTable([0, 1], [1, 1]))
        port.enqueue(Packet(0, 1, 1000, header=0, vl=0))
        sim.run()
        assert len(peer.packets) == 1

    def test_weighted_share_within_level(self):
        sim = Simulator()
        port, peer = self._port(sim, VlArbitrationTable([0, 0], [3, 1]))
        for _ in range(40):
            port.enqueue(Packet(0, 1, 2048, header=0, vl=0))
            port.enqueue(Packet(0, 1, 2048, header=0, vl=1))
        sim.run()
        first = [p.vl for p in peer.packets[:32]]
        share0 = first.count(0) / len(first)
        assert share0 == pytest.approx(0.75, abs=0.1)

    def test_blocked_priority_vl_yields(self):
        sim = Simulator()
        port, peer = self._port(sim, VlArbitrationTable([0, 1], [1, 1]))
        port.credits[1] = 0.0  # the high-priority VL has no credits
        port.enqueue(Packet(0, 1, 1000, header=0, vl=1))
        port.enqueue(Packet(0, 1, 1000, header=0, vl=0))
        sim.run()
        assert [p.vl for p in peer.packets] == [0]

    def test_install_covers_all_ports(self):
        sim = Simulator()
        net, _, _ = build_network(sim, radix=4)
        count = install_vl_arbitration(net, [0, 1], [1, 1])
        n_switch_ports = sum(sw.n_ports for sw in net.switches)
        assert count == n_switch_ports + len(net.hcas)
        # Tables are per-port instances (independent deficit state).
        assert net.switches[0].output_ports[0].vlarb is not net.hcas[0].obuf.vlarb

    def test_install_validates_vl_count(self):
        sim = Simulator()
        net, _, _ = build_network(sim, radix=4)
        with pytest.raises(ValueError):
            install_vl_arbitration(net, [0], [1])

    def test_network_runs_with_vlarb_installed(self):
        sim = Simulator()
        net, col, _ = build_network(sim, radix=4)
        install_vl_arbitration(net, [0, 1], [1, 1])
        attach_fixed_flow(net, RngRegistry(1), src=0, dst=5, rate_gbps=10.0)
        net.run(until=2 * MS)
        assert col.rx_rate_gbps(5, 2 * MS) == pytest.approx(10.0, rel=0.05)


class TestLatencyTracker:
    def test_records_and_reduces(self):
        sim = Simulator()
        inner = Collector(8)
        tracker = LatencyTracker(inner, warmup_ns=0.0)
        net, _, _ = build_network(sim, radix=4, collector=tracker)
        attach_fixed_flow(net, RngRegistry(1), src=0, dst=5, rate_gbps=10.0)
        net.run(until=1 * MS)
        assert tracker.count() > 100
        pcts = tracker.percentiles([5])
        assert 0 < pcts[50.0] <= pcts[99.0]
        # Uncongested 3-hop path: a few microseconds at most.
        assert pcts[99.0] < 20_000.0

    def test_inner_collector_still_counts(self):
        sim = Simulator()
        inner = Collector(8)
        tracker = LatencyTracker(inner)
        net, _, _ = build_network(sim, radix=4, collector=tracker)
        attach_fixed_flow(net, RngRegistry(1), src=0, dst=5, rate_gbps=10.0)
        net.run(until=1 * MS)
        assert inner.rx_bytes[5] > 0
        # Delegation: collector API reachable through the tracker.
        assert tracker.rx_bytes[5] == inner.rx_bytes[5]

    def test_congestion_raises_latency(self):
        def run(congested):
            sim = Simulator()
            tracker = LatencyTracker(Collector(8), warmup_ns=0.5 * MS)
            net, _, _ = build_network(sim, radix=4, collector=tracker)
            rng = RngRegistry(1)
            if congested:
                attach_hotspot_contributors(net, rng, hotspot=5, contributors=[1, 2, 3])
            attach_fixed_flow(net, rng, src=0, dst=5, rate_gbps=1.0)
            net.run(until=3 * MS)
            return tracker.percentiles([5])[50.0]

        assert run(congested=True) > 3 * run(congested=False)

    def test_empty_samples_rejected(self):
        tracker = LatencyTracker(Collector(4))
        with pytest.raises(ValueError):
            tracker.percentiles()

    @given(
        samples=st.lists(st.floats(0.0, 1e9), min_size=1, max_size=60),
        qs=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=4),
    )
    def test_reductions_match_numpy(self, samples, qs):
        tracker = LatencyTracker(None)
        tracker.samples_ns = {0: samples[::2], 1: samples[1::2]}
        assert tracker.percentiles(qs=qs) == {
            q: float(np.percentile(samples, q)) for q in qs
        }
        assert math.isclose(tracker.mean_ns(), float(np.mean(samples)),
                            rel_tol=1e-12, abs_tol=1e-300)


class TestDeadlock:
    def test_healthy_network_reports_clean(self):
        sim = Simulator()
        net, _, _ = build_network(sim, radix=4)
        attach_fixed_flow(net, RngRegistry(1), src=0, dst=5, rate_gbps=10.0)
        net.run(until=1 * MS)
        # Drain: stop the generator, let everything complete.
        net.hcas[0].gen = None
        net.sim.run()
        report = detect_deadlock(net)
        assert not report.deadlocked
        assert "no deadlock" in report.format()

    def test_torus_ring_deadlocks_without_dateline(self):
        # All-to-all-ish saturation around a 4-ring on one data VL:
        # cyclic buffer dependencies wedge (real hardware would too
        # without dateline VLs).
        sim = Simulator()
        topo = torus([4])
        col = Collector(topo.n_hosts)
        net = Network(sim, topo, NetworkConfig(), collector=col)
        rng = RngRegistry(2)
        # Each node floods its +2 neighbour: every packet crosses two
        # ring links, keeping all four directional buffers loaded.
        for node in range(4):
            gen = FixedRateSource(node, 4, (node + 2) % 4, 20.0, rng.stream("g", node))
            gen.bind(net.hcas[node])
            net.hcas[node].attach_generator(gen)
        fired = []
        DeadlockWatchdog(net, 0.5 * MS, on_deadlock=fired.append).start()
        net.run(until=10 * MS)
        if fired:  # the watchdog saw it live
            assert fired[0].deadlocked
            assert fired[0].buffered_bytes > 0
            assert "DEADLOCK" in fired[0].format()
        else:
            # Otherwise it must at least wedge by the end: no progress.
            assert net.total_buffered_bytes() > 0

    def test_watchdog_validation(self):
        sim = Simulator()
        net, _, _ = build_network(sim, radix=4)
        with pytest.raises(ValueError):
            DeadlockWatchdog(net, 0.0)
