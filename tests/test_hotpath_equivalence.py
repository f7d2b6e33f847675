"""Old-vs-new oracle for the per-hop path (ISSUE 21).

ISSUE 21 rewrote ``OutputPort``'s send path and ``VLArbiter.kick`` to
skip calls and loop turns that cannot have an effect. The versions they
replaced are kept here, verbatim, as reference subclasses. Two copies of
one switch — one built from the shipped classes, one from the reference
classes — are driven through the same Hypothesis-generated sequence of
deliveries, credit returns, single events, clock advances, link
failures, pauses, recoveries and head-of-queue CNP enqueues, with small
input and output buffers and few credits so that credit-starved and
output-full states are the norm. Recording actors stand where the
neighbours would be. One property per test.
"""

from __future__ import annotations

import contextlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Simulator
from repro.network import switch as switch_module
from repro.network.arbiter import VLArbiter
from repro.network.packet import FLAG_CONTROL, FLAG_FECN, Packet
from repro.network.ports import OutputPort
from repro.network.switch import Switch

N_PORTS = 3
IBUF = 2400  # per VL: two large packets, or a few small ones
OBUF = 1500  # one large packet and a small one
START_CREDITS = 1200.0
SIZES = (64, 300, 1000)


# -- the parent commit's code (12586c9), the reference ---------------------

class ParentOutputPort(OutputPort):
    """``OutputPort`` with the send path as it was before ISSUE 21."""

    __slots__ = ()

    def enqueue(self, pkt, *, front=False):
        q = self.queues[pkt.vl]
        if front:
            q.appendleft(pkt)
        else:
            q.append(pkt)
        self.queue_bytes += pkt.wire_size
        if not self.busy:
            self.try_send()

    def on_credit(self, arg):
        vl, nbytes = arg
        self.credits[vl] += nbytes
        if not self.busy:
            self.try_send()

    def try_send(self):
        if self.busy or self.halted:
            return
        queues = self.queues
        credits = self.credits
        pkt = None
        if self.vlarb is not None:
            vl = self.vlarb.select(queues, credits)
            if vl is not None:
                pkt = queues[vl].popleft()
        else:
            n_vls = self._n_vls
            rr = self._rr_vl
            for i in range(n_vls):
                vl = rr + i
                if vl >= n_vls:
                    vl -= n_vls
                q = queues[vl]
                if q and credits[vl] >= q[0].wire_size:
                    pkt = q.popleft()
                    self._rr_vl = vl + 1 if vl + 1 < n_vls else 0
                    break
        if pkt is None:
            return
        wire = pkt.wire_size
        vl = pkt.vl
        self.queue_bytes -= wire
        cr = credits[vl] - wire
        credits[vl] = cr
        self.busy = True
        if self.cc is not None and not (pkt.flags & FLAG_CONTROL):
            self.cc.on_transmit(self.port_index, pkt, cr)
        self.bytes_sent += wire
        self.packets_sent += 1
        trace = self.trace
        if trace is not None:
            trace.tx(
                self.sim.now, self.trace_kind, self.trace_node,
                self.port_index, vl, pkt.src, pkt.dst, wire,
                1 if pkt.flags & FLAG_FECN else 0, credits[vl],
            )
        self._schedule(wire * self._byte_time, self._on_tx_done, pkt)
        if self.on_space is not None:
            self.on_space()

    def _tx_done(self, pkt):
        self.busy = False
        if self.lossy:
            self._drop(pkt)
        else:
            self._schedule(self._prop_delay, self._peer_deliver, pkt)
        self.try_send()


class ParentArbiter(VLArbiter):
    """``VLArbiter`` with the grant loop as it was before ISSUE 21."""

    __slots__ = ()

    def on_packet_queued(self, in_port, vl, pkt, opened):
        self.queued_bytes[vl] += pkt.wire_size
        if opened:
            self._active[vl].append(in_port)
        self.kick()

    def kick(self):
        if self._kicking:
            return
        self._kicking = True
        try:
            out_index = self.out_index
            out = self.switch.output_ports[out_index]
            inputs = self.switch.input_ports
            n_vls = self.n_vls
            base = out_index * n_vls
            active = self._active
            queued_bytes = self.queued_bytes
            capacity = out.capacity
            while True:
                granted = False
                for _ in range(n_vls):
                    vl = self._rr_vl
                    self._rr_vl = vl + 1 if vl + 1 < n_vls else 0
                    act = active[vl]
                    if not act:
                        continue
                    inp = inputs[act[0]]
                    voq = inp.voqs[base + vl]
                    wire = voq[0].wire_size
                    if out.queue_bytes + wire > capacity:
                        continue
                    pkt = inp.grant(out_index, vl)
                    queued_bytes[vl] -= wire
                    self.grants += 1
                    if voq:
                        act.rotate(-1)
                    else:
                        act.popleft()
                    out.enqueue(pkt)
                    granted = True
                    break
                if not granted:
                    return
        finally:
            self._kicking = False


# -- recording actors --------------------------------------------------------

class Upstream:
    """Stands where an input's upstream link would be: a credit comes
    back for every grant, in grant order."""

    def __init__(self, log, in_port):
        self.log, self.in_port = log, in_port

    def on_credit(self, arg):
        self.log.append(("grant", self.in_port) + tuple(arg))


class Wire:
    """Stands at the far end of an output's link."""

    def __init__(self, log, out_port):
        self.log, self.out_port = log, out_port

    def deliver(self, pkt):
        self.log.append(("arrive", self.out_port, pkt.msg_id))


class TxRecorder:
    """The output ports' trace hook: every transmission and every loss."""

    def __init__(self, log):
        self.log = log

    def tx(self, now, kind, node, port, vl, src, dst, wire, fecn, credits):
        self.log.append(("tx", now, port, vl, src, dst, wire, credits))

    def drop(self, now, kind, node, port, vl, src, dst, payload, ctl, why):
        self.log.append(("drop", now, port, vl, src, dst, payload, ctl, why))


@contextlib.contextmanager
def switch_built_from(port_cls, arbiter_cls):
    saved = switch_module.OutputPort, switch_module.VLArbiter
    switch_module.OutputPort, switch_module.VLArbiter = port_cls, arbiter_cls
    try:
        yield
    finally:
        switch_module.OutputPort, switch_module.VLArbiter = saved


class Fabric:
    """One switch among recording actors, on its own simulator."""

    def __init__(self, n_vls, port_cls=OutputPort, arbiter_cls=VLArbiter):
        self.sim = Simulator()
        self.log = []
        with switch_built_from(port_cls, arbiter_cls):
            self.switch = sw = Switch(
                self.sim, 0, N_PORTS,
                ibuf_capacity=IBUF, obuf_capacity=OBUF, n_vls=n_vls,
            )
        assert type(sw.output_ports[0]) is port_cls
        assert type(sw.arbiters[0]) is arbiter_cls
        sw.set_lft(list(range(N_PORTS)))  # dst i leaves via port i
        recorder = TxRecorder(self.log)
        for i, out in enumerate(sw.output_ports):
            out.credits = [START_CREDITS] * n_vls
            out.peer = Wire(self.log, i)
            out.trace = recorder
        for i, ip in enumerate(sw.input_ports):
            ip.upstream = Upstream(self.log, i)

    def apply(self, op, serial):
        """Apply one generated step; ``serial`` names the packet it makes."""
        sw = self.switch
        kind = op[0]
        if kind == "deliver":
            _, in_port, hop, vl, size = op
            ip = sw.input_ports[in_port]
            if ip.occupancy[vl] + size > ip.capacity:
                return  # a real upstream would hold no credit for it
            out = (in_port + 1 + hop) % N_PORTS
            ip.deliver(Packet(100 + in_port, out, size, header=0, vl=vl, msg_id=serial))
        elif kind == "credit":
            _, out, vl, nbytes = op
            sw.output_ports[out].on_credit((vl, nbytes))
        elif kind == "cnp":
            _, out, vl = op
            pkt = Packet.cnp(200, out, vl=vl)
            pkt.msg_id = serial
            sw.output_ports[out].enqueue(pkt, front=True)
        elif kind == "step":
            self.sim.step()
        elif kind == "run":
            self.sim.run(until=self.sim.now + op[1])
        else:
            getattr(sw.output_ports[op[1]], kind)()  # fail / pause / recover

    def pointers(self):
        sw = self.switch
        return (
            [out._rr_vl for out in sw.output_ports],
            [arb._rr_vl for arb in sw.arbiters],
        )

    def state(self):
        """Everything the two implementations keep, as plain data."""
        sw = self.switch
        ids = lambda q: [p.msg_id for p in q or ()]  # noqa: E731
        return {
            "now": self.sim.now,
            "pending": self.sim.pending,
            "out": [
                (o.busy, o.halted, o.lossy, o.queue_bytes, list(o.credits),
                 [ids(q) for q in o.queues], o.packets_sent, o.bytes_sent,
                 o.dropped_packets)
                for o in sw.output_ports
            ],
            "arb": [
                (a.grants, list(a.queued_bytes), [list(r) for r in a._active])
                for a in sw.arbiters
            ],
            "in": [
                (list(ip.occupancy), [ids(q) for q in ip.voqs])
                for ip in sw.input_ports
            ],
        }


def sequences(n_vls):
    port = st.integers(0, N_PORTS - 1)
    vl = st.integers(0, n_vls - 1)
    deliver = st.tuples(
        st.just("deliver"), port, st.integers(0, N_PORTS - 2), vl,
        st.sampled_from(SIZES),
    )
    return st.lists(
        st.one_of(
            deliver, deliver, deliver,  # three parts traffic
            st.tuples(st.just("credit"), port, vl, st.sampled_from(SIZES)),
            st.tuples(st.just("step")),
            st.tuples(st.just("run"), st.sampled_from((0.0, 40.0, 400.0))),
            st.tuples(st.just("cnp"), port, vl),
            st.tuples(st.sampled_from(("fail", "pause", "recover")), port),
        ),
        max_size=80,
    )


CASES = st.integers(1, 3).flatmap(
    lambda n_vls: st.tuples(st.just(n_vls), sequences(n_vls))
)


def drive(case, check):
    """Run both fabrics through ``case``; ``check(new, old)`` after every
    step, and once more after all links recover and the clocks run out."""
    n_vls, ops = case
    new = Fabric(n_vls)
    old = Fabric(n_vls, ParentOutputPort, ParentArbiter)
    closing = [("recover", p) for p in range(N_PORTS)] + [("run", 1e6)]
    for serial, op in enumerate(ops + closing):
        new.apply(op, serial)
        old.apply(op, serial)
        check(new, old)
    return new, old


@settings(max_examples=100)
@given(CASES)
def test_grants_and_transmissions_happen_in_the_same_order(case):
    def check(new, old):
        assert new.log == old.log
        assert new.state() == old.state()

    new, _ = drive(case, check)
    # Closed books: whatever was granted and not lost has arrived.
    sent = sum(o.packets_sent for o in new.switch.output_ports)
    lost = sum(o.dropped_packets for o in new.switch.output_ports)
    held = sum(len(q) for o in new.switch.output_ports for q in o.queues)
    arrived = sum(1 for rec in new.log if rec[0] == "arrive")
    assert arrived == sent - lost
    assert held == 0 or any(
        q and o.credits[vl] < q[0].wire_size
        for o in new.switch.output_ports for vl, q in enumerate(o.queues)
    )


@settings(max_examples=100)
@given(CASES)
def test_round_robin_pointers_agree_after_every_step(case):
    def check(new, old):
        assert new.pointers() == old.pointers()

    drive(case, check)


@settings(max_examples=50)
@given(CASES)
def test_live_count_is_the_sum_of_rotation_lengths(case):
    def check(new, old):
        for arb in new.switch.arbiters:
            assert arb._live == sum(len(r) for r in arb._active)
            assert not arb._kicking

    drive(case, check)


@settings(max_examples=50)
@given(CASES)
def test_voq_exists_iff_nonempty_iff_in_rotation_once(case):
    def check(new, old):
        sw = new.switch
        for out, arb in enumerate(sw.arbiters):
            for vl in range(sw.n_vls):
                holders = [
                    ip.port_id for ip in sw.input_ports
                    if ip.voqs[out * sw.n_vls + vl] is not None
                ]
                assert all(
                    len(sw.input_ports[i].voqs[out * sw.n_vls + vl]) > 0
                    for i in holders
                )
                assert sorted(arb._active[vl]) == holders == arb.feeders(vl)
                assert arb.queued_bytes[vl] == sum(
                    p.wire_size
                    for i in holders
                    for p in sw.input_ports[i].voqs[out * sw.n_vls + vl]
                )

    drive(case, check)


def test_the_vocabulary_reaches_the_hard_states():
    """The oracle is not vacuous: a seeded random walk over the same
    steps starves outputs of credits, fills them, loses packets on a
    failed link and sends CNPs that jumped their queue."""
    rng = random.Random(21)
    n_vls = 2

    def step():
        kind = rng.choice(
            ("deliver",) * 6 + ("credit",) * 2
            + ("step", "run", "cnp", "fail", "pause", "recover")
        )
        port, vl = rng.randrange(N_PORTS), rng.randrange(n_vls)
        return {
            "deliver": (kind, port, rng.randrange(N_PORTS - 1), vl, rng.choice(SIZES)),
            "credit": (kind, port, vl, rng.choice(SIZES)),
            "cnp": (kind, port, vl),
            "step": (kind,),
            "run": (kind, 400.0),
        }.get(kind, (kind, port))

    seen = set()

    def check(new, old):
        for out, arb in zip(new.switch.output_ports, new.switch.arbiters):
            idle = not (out.busy or out.halted)
            if idle and any(
                q and out.credits[vl] < q[0].wire_size
                for vl, q in enumerate(out.queues)
            ):
                seen.add("credit-starved")
            if idle and arb._live and out.queue_bytes + SIZES[-1] > out.capacity:
                seen.add("output-full")
            if out.dropped_packets:
                seen.add("lost")
        if any(rec[0] == "tx" and rec[4] == 200 for rec in new.log):
            seen.add("cnp-sent")
        assert new.log == old.log

    drive((n_vls, [step() for _ in range(400)]), check)
    assert seen == {"credit-starved", "output-full", "lost", "cnp-sent"}
