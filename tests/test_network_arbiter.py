"""Unit tests for the per-output round-robin VL arbiter."""

import pytest

from repro.engine import Simulator
from repro.network.packet import Packet
from repro.network.switch import Switch


class Capture:
    def __init__(self):
        self.packets = []

    def deliver(self, pkt):
        self.packets.append(pkt)


def make_switch(sim, n_ports=4, **kwargs):
    """Switch with every output wired to a capture sink with credits."""
    sw = Switch(sim, 0, n_ports, **kwargs)
    sw.set_lft(list(range(n_ports)))  # dst i leaves via port i
    sinks = []
    for out in sw.output_ports:
        out.credits = [10.0**9] * sw.n_vls
        sink = Capture()
        out.peer = sink
        sinks.append(sink)
    return sw, sinks


class TestQueuedBytesAccounting:
    def test_increment_on_queue(self):
        sim = Simulator()
        sw, _ = make_switch(sim, obuf_capacity=0)
        sw.input_ports[0].deliver(Packet(0, 1, 500, header=0))
        sw.input_ports[2].deliver(Packet(2, 1, 700, header=0))
        assert sw.arbiters[1].queued_bytes[0] == 1200

    def test_decrement_on_grant(self):
        sim = Simulator()
        sw, _ = make_switch(sim)
        sw.input_ports[0].deliver(Packet(0, 1, 500, header=0))
        sim.run()
        assert sw.arbiters[1].queued_bytes[0] == 0

    def test_total_queued_accessor(self):
        sim = Simulator()
        sw, _ = make_switch(sim, obuf_capacity=0)
        sw.input_ports[0].deliver(Packet(0, 3, 500, header=0))
        assert sw.arbiters[3].total_queued(0) == 500
        assert sw.queued_bytes(3, 0) == 500


class TestRoundRobinFairness:
    def test_grants_alternate_between_inputs(self):
        sim = Simulator()
        # Tiny obuf: one packet at a time, so grant order is observable.
        sw, sinks = make_switch(sim, obuf_capacity=600)
        # Stall the output (no credits) while VoQs fill, then release.
        sw.output_ports[1].credits = [0.0] * sw.n_vls
        for i in range(3):
            sw.input_ports[0].deliver(Packet(0, 1, 500, header=0, msg_id=100 + i))
            sw.input_ports[2].deliver(Packet(2, 1, 500, header=0, msg_id=200 + i))
        sim.run()
        sw.output_ports[1].on_credit((0, 10.0**9))
        sim.run()
        order = [p.src for p in sinks[1].packets]
        assert order == [0, 2, 0, 2, 0, 2]

    def test_share_is_equal_under_saturation(self):
        sim = Simulator()
        sw, sinks = make_switch(sim, obuf_capacity=600)
        sw.output_ports[1].credits = [0.0] * sw.n_vls
        for i in range(12):
            sw.input_ports[0].deliver(Packet(0, 1, 500, header=0))
        for i in range(12):
            sw.input_ports[3].deliver(Packet(3, 1, 500, header=0))
        sim.run()
        sw.output_ports[1].on_credit((0, 10.0**9))
        sim.run()
        # The obuf may have pre-buffered a packet before port 3 had any
        # queued, so allow one packet of skew in the first window.
        first8 = [p.src for p in sinks[1].packets[:8]]
        assert abs(first8.count(0) - first8.count(3)) <= 2
        allp = [p.src for p in sinks[1].packets]
        assert allp.count(0) == 12 and allp.count(3) == 12

    def test_empty_voq_removed_from_rotation(self):
        sim = Simulator()
        sw, sinks = make_switch(sim)
        sw.input_ports[0].deliver(Packet(0, 1, 500, header=0))
        sim.run()
        # Deliver again later: must still be granted (re-armed).
        sw.input_ports[0].deliver(Packet(0, 1, 500, header=0))
        sim.run()
        assert len(sinks[1].packets) == 2

    def test_drain_and_rearm_keeps_round_robin_and_fifo_order(self):
        sim = Simulator()
        # One packet fits the obuf, so a plug from port 4 holds every
        # later arrival in its VoQ until the output gets credits.
        sw, sinks = make_switch(sim, n_ports=5, n_vls=2, obuf_capacity=600)
        out, arbiter = sw.output_ports[3], sw.arbiters[3]
        seq = iter(range(1000))

        def wave(order):
            out.credits = [0.0, 0.0]
            sw.input_ports[4].deliver(Packet(4, 3, 500, header=0))
            for _ in range(2):
                for inp in order:
                    for vl in (0, 1):
                        sw.input_ports[inp].deliver(
                            Packet(inp, 3, 500, header=0, vl=vl, msg_id=next(seq))
                        )
            assert [list(arbiter._active[vl]) for vl in (0, 1)] == [order] * 2
            assert arbiter.feeders(0) == arbiter.feeders(1) == sorted(order)
            sent = len(sinks[3].packets)
            out.on_credit((1, 10.0**9))
            out.on_credit((0, 10.0**9))
            sim.run()
            return sinks[3].packets[sent + 1:]  # without the plug

        for order in ([0, 1, 2], [2, 0, 1]):
            got = wave(order)
            assert len(got) == 12
            # VLs alternate; within a VL the inputs take turns in the
            # order their VoQs opened; within a VoQ, arrival order.
            assert all(a.vl != b.vl for a, b in zip(got, got[1:]))
            for vl in (0, 1):
                assert [p.src for p in got if p.vl == vl] == order * 2
                for inp in order:
                    ids = [p.msg_id for p in got if (p.src, p.vl) == (inp, vl)]
                    assert ids == sorted(ids) and len(ids) == 2
            # Drained: no VoQ, nobody in the rotation, nothing counted.
            assert all(v is None for ip in sw.input_ports for v in ip.voqs)
            assert arbiter.feeders(0) == arbiter.feeders(1) == []
            assert arbiter.queued_bytes == [0, 0]

    def test_reopened_voq_is_a_fresh_queue(self):
        sim = Simulator()
        sw, sinks = make_switch(sim, obuf_capacity=600)
        inp, out = sw.input_ports[0], sw.output_ports[1]
        slot = 1 * sw.n_vls + 0
        out.credits = [0.0]
        plug, b, c = (Packet(0, 1, 500, header=0, msg_id=i) for i in range(3))
        inp.deliver(plug)  # straight through to the obuf
        assert inp.voqs[slot] is None
        inp.deliver(b)
        old = inp.voqs[slot]
        assert list(old) == [b]
        out.on_credit((0, 1100.0))  # covers plug and b, not c
        sim.run()
        assert inp.voqs[slot] is None and len(old) == 0
        inp.deliver(c)  # fills the obuf, which is out of credits again
        inp.deliver(Packet(0, 1, 500, header=0, msg_id=3))
        new = inp.voqs[slot]
        assert new is not old and len(old) == 0
        assert [p.msg_id for p in new] == [3]
        out.on_credit((0, 10.0**9))
        sim.run()
        assert [p.msg_id for p in sinks[1].packets] == [0, 1, 2, 3]
        assert sw.arbiters[1].grants == 4 and inp.voqs[slot] is None

    def test_grant_counter(self):
        sim = Simulator()
        sw, _ = make_switch(sim)
        for _ in range(5):
            sw.input_ports[0].deliver(Packet(0, 2, 100, header=0))
        sim.run()
        assert sw.arbiters[2].grants == 5


class TestVlRotation:
    def test_both_vls_served(self):
        sim = Simulator()
        sw, sinks = make_switch(sim, n_vls=2)
        sw.input_ports[0].deliver(Packet(0, 1, 500, header=0, vl=0))
        sw.input_ports[0].deliver(Packet(0, 1, 500, header=0, vl=1))
        sim.run()
        assert len(sinks[1].packets) == 2
        assert {p.vl for p in sinks[1].packets} == {0, 1}

    def test_blocked_vl_does_not_block_other_vl(self):
        sim = Simulator()
        sw, sinks = make_switch(sim, n_vls=2, obuf_capacity=10_000)
        # No credits on VL0 downstream; VL1 has credits.
        sw.output_ports[1].credits = [0.0, 10.0**9]
        sw.input_ports[0].deliver(Packet(0, 1, 500, header=0, vl=0))
        sw.input_ports[0].deliver(Packet(0, 1, 500, header=0, vl=1))
        sim.run()
        delivered = [p.vl for p in sinks[1].packets]
        assert delivered == [1]


class TestBackpressure:
    def test_full_obuf_stalls_grants(self):
        sim = Simulator()
        sw, _ = make_switch(sim, obuf_capacity=1000)
        sw.output_ports[1].credits = [0.0] * sw.n_vls  # wedge the output
        for _ in range(5):
            sw.input_ports[0].deliver(Packet(0, 1, 500, header=0))
        sim.run()
        # obuf holds 2 x 500; the rest wait in the VoQ.
        assert sw.output_ports[1].queue_bytes == 1000
        assert sw.arbiters[1].queued_bytes[0] == 1500

    def test_space_release_resumes_grants(self):
        sim = Simulator()
        sw, sinks = make_switch(sim, obuf_capacity=1000)
        sw.output_ports[1].credits = [0.0] * sw.n_vls
        for _ in range(5):
            sw.input_ports[0].deliver(Packet(0, 1, 500, header=0))
        sim.run()
        sw.output_ports[1].on_credit((0, 10.0**9))
        sim.run()
        assert len(sinks[1].packets) == 5
