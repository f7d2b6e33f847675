"""Canonical trace records and their stable encoding.

A trace is a stream of flat tuples, one per observed event, in
execution order. The first element is the event type tag, the second
the virtual time; the remaining fields are scalars (ints, floats,
short strings). Because the simulator is deterministic for a fixed
seed, the encoded stream — and therefore its digest — is a *behavioral
fingerprint* of a run: any change to packet-level dynamics (ordering,
marking, throttling, timer cadence) changes the digest.

Record schemas (all times in virtual ns):

========  ==============================================================
tag       fields after ``(tag, t, ...)``
========  ==============================================================
``inj``   ``node, dst, vl, payload`` — HCA injects a data packet
``tx``    ``kind, node, port, vl, src, dst, wire, fecn, credit`` — a
          port begins transmitting; ``kind`` is ``"h"`` (HCA obuf) or
          ``"s"`` (switch output); ``credit`` is the VL's credit balance
          *after* reserving this packet
``rx``    ``node, src, dst, vl, payload, fecn, becn, ctrl`` — HCA sink
          delivers a packet (flags encoded 0/1)
``fecn``  ``switch, port, vl, src, dst, queued`` — a switch FECN-marks
          a packet; ``queued`` is the Port VL's queued bytes
``cnp``   ``node, dst`` — an HCA returns a congestion notification
``becn``  ``node, src, dst, sl`` — HCA-side CC receives a BECN for flow
          ``(src, dst)``
``ccti``  ``node, ksrc, kdst, old, new`` — a flow's CCT index changed;
          in SL mode the key is encoded ``(-1, sl)``
``rate``  ``node, ksrc, kdst, old, new`` — a rate-based mechanism
          (:mod:`repro.cc`) moved a flow's injection-rate fraction;
          both rates in ``(0, 1]``, key encoded as for ``ccti``. The
          IB mechanism never emits this (its ``ccti`` records carry
          the same information), which keeps default traces
          byte-identical
``timer`` ``node, decremented`` — recovery timer fired, decrementing
          ``decremented`` flow indices
``fault`` ``action, kind, node, port, value`` — a fault-injection
          action fired (:mod:`repro.faults`); ``action`` names the
          transition (``link_down``/``link_up``, ``degrade``/
          ``restore``, ``switch_pause``/``switch_resume``,
          ``timer_freeze``/``timer_thaw``, ``cnp_*``/``cnp_*_end``),
          ``kind`` is ``"h"``/``"s"`` as for ``tx`` (empty when not
          port-addressed), and ``value`` carries the action parameter
          (rate factor, drop probability, delay)
``drop``  ``kind, node, port, vl, src, dst, payload, ctrl, reason`` — a
          packet was lost to an injected fault or discarded by the
          reliable transport; ``reason`` is ``"link"`` (lost on a
          downed link), ``"cnp"`` (control-packet loss), or — with
          :mod:`repro.transport` active — ``"dup"``/``"ooo"``
          (duplicate / out-of-order copy discarded at the receiver;
          surplus copies, exempt from conservation accounting)
``retx``  ``node, dst, psn, attempt, payload, due`` — the transport
          retransmits PSN ``psn`` of flow ``(node, dst)``; ``attempt``
          counts retransmissions of this packet, ``due`` is the virtual
          time of the timeout that queued it
``ack``   ``node, src, psn`` — the receiver ``node`` returns a
          cumulative ack for flow ``(src, node)`` covering PSNs
          ``<= psn``
``flowfail``  ``node, dst, acked, pending, timeouts`` — flow
          ``(node, dst)`` exhausted its retry budget and entered the
          FAILED state with ``pending`` unacked payload bytes
``flowsum``  ``node, dst, state, acked, next_psn, pending, retx,
          timeouts`` — per-flow transport summary emitted once at
          session close; the auditor's strict conservation closes over
          these (delivered + pending must cover injected for every
          non-failed flow)
``end``   ``events`` — emitted once at session close with the
          simulator's executed-event count
========  ==============================================================

The canonical encoding is binary and value-exact: each chunk of
:data:`~repro.trace.digest.CHUNK_RECORDS` records is a protocol-5
``pickle`` of the tuple list, memo off, so ``1`` and ``1.0`` or ``0.0``
and ``-0.0`` stay apart and equal strings encode alike, shared or not.
Digests of the earlier ``repr()``-line encoding are not comparable.
The JSONL form is the JSON array of the same fields and round-trips
losslessly to the tuples (:func:`repro.trace.digest.digest_of_jsonl`).
"""

from __future__ import annotations

from typing import Tuple

TraceRecord = Tuple

# Event type tags (index 0 of every record).
EV_INJECT = "inj"
EV_TX = "tx"
EV_RX = "rx"
EV_FECN = "fecn"
EV_CNP = "cnp"
EV_BECN = "becn"
EV_CCTI = "ccti"
EV_RATE = "rate"
EV_TIMER = "timer"
EV_FAULT = "fault"
EV_DROP = "drop"
EV_RETX = "retx"
EV_ACK = "ack"
EV_FLOW_FAILED = "flowfail"
EV_FLOWSUM = "flowsum"
EV_END = "end"

ALL_EVENTS = (
    EV_INJECT,
    EV_TX,
    EV_RX,
    EV_FECN,
    EV_CNP,
    EV_BECN,
    EV_CCTI,
    EV_RATE,
    EV_TIMER,
    EV_FAULT,
    EV_DROP,
    EV_RETX,
    EV_ACK,
    EV_FLOW_FAILED,
    EV_FLOWSUM,
    EV_END,
)


def canonical_line(rec: TraceRecord) -> str:
    """One record as a readable line (violation messages; not hashed)."""
    return repr(rec)
