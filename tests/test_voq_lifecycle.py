"""A VoQ exists exactly while it holds a packet.

Count-based checks of the switch's queue storage: none of them reads a
clock or a memory gauge, so they are exact.
"""

import gc
import types
from collections import deque

from repro.engine import RngRegistry, Simulator
from repro.experiments.config import SCALES
from repro.metrics import CongestionTreeTracker
from repro.network import Network, NetworkConfig
from repro.topology import three_stage_fat_tree
from repro.trace import TraceSession

from tests.conftest import attach_hotspot_contributors, build_network

MS = 1e6


def live_voqs(sw, out, vl):
    """``{input port: FIFO}`` of the VoQs that exist for one output VL."""
    slot = out * sw.n_vls + vl
    return {
        ip.port_id: ip.voqs[slot]
        for ip in sw.input_ports
        if ip.voqs[slot] is not None
    }


def reachable_deques(roots) -> int:
    """``deque`` objects reachable from ``roots`` through instance state
    (not through classes, modules or code)."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, stack, count = set(), list(roots), 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, deque):
            count += 1
        stack.extend(gc.get_referents(obj))
    return count


def test_paper_scale_build_allocates_no_voq():
    topo = three_stage_fat_tree(SCALES["paper"].radix)
    net = Network(Simulator(), topo, NetworkConfig())
    assert all(
        voq is None
        for sw in net.switches for ip in sw.input_ports for voq in ip.voqs
    )
    # The walk reaches the whole fabric (switches -> links -> HCAs).
    # Per switch port: one obuf FIFO and one arbiter rotation per VL;
    # an HCA has a handful. A queue per (input, output, VL) would be
    # ports x radix x VLs = 139 968 on its own.
    switch_ports = sum(sw.n_ports for sw in net.switches)
    assert switch_ports == 54 * 36
    ceiling = 2 * net.config.n_vls * switch_ports + 8 * topo.n_hosts
    assert 0 < reachable_deques(net.switches) <= ceiling < 20_000


class _CheckedTracker(CongestionTreeTracker):
    """Runs the lifecycle check on the fabric at every sampling tick."""

    def __init__(self, network, interval_ns):
        super().__init__(network, interval_ns)
        self.seen = {"voqs": 0, "deep": 0}

    def _tick(self):
        check_lifecycle(self.network, self.seen)
        super()._tick()


def check_lifecycle(net, seen):
    for sw in net.switches:
        for out, arbiter in enumerate(sw.arbiters):
            for vl in range(sw.n_vls):
                voqs = live_voqs(sw, out, vl)
                # exists => non-empty (the converse holds by storage:
                # a packet waiting in an ibuf has nowhere else to be).
                assert all(len(q) > 0 for q in voqs.values())
                # exists <=> in the rotation, exactly once.
                rotation = list(arbiter._active[vl])
                assert sorted(rotation) == sorted(voqs)
                assert arbiter.feeders(vl) == sorted(voqs)
                assert arbiter.queued_bytes[vl] == sum(
                    pkt.wire_size for q in voqs.values() for pkt in q
                )
                seen["voqs"] += len(voqs)
                seen["deep"] += sum(len(q) > 1 for q in voqs.values())
        for ip in sw.input_ports:
            for vl in range(sw.n_vls):
                held = sum(
                    pkt.wire_size
                    for out in range(sw.n_ports)
                    for pkt in ip.voqs[out * sw.n_vls + vl] or ()
                )
                assert held == ip.occupancy[vl]


def test_voq_exists_iff_nonempty_iff_in_rotation_once():
    sim = Simulator()
    net, _, manager = build_network(sim, radix=4, cc=True)
    assert net.config.n_vls == 2
    # Two hot spots that also feed each other, so the CNPs each returns
    # (VL 1) cross the other's congested port.
    rng = RngRegistry(3)
    attach_hotspot_contributors(net, rng, hotspot=0, contributors=(1, 2, 3, 4))
    attach_hotspot_contributors(net, rng, hotspot=1, contributors=(0, 5, 6, 7))
    session = TraceSession().install(sim, net, manager)
    tracker = _CheckedTracker(net, 0.002 * MS).start()
    net.run(until=1 * MS)
    check_lifecycle(net, tracker.seen)
    session.close()
    assert session.violation_count == 0
    # Not vacuous: data queues formed and most held several packets.
    # A CNP fits the space a full obuf leaves free (under one MTU), so
    # a VL-1 VoQ opens and drains inside one deliver() call: every BECN
    # below crossed the switches that way and left nothing behind.
    assert len(tracker.samples) == 500
    assert tracker.seen["voqs"] > 500 and tracker.seen["deep"] > 250
    assert manager.total_becns() > 100
