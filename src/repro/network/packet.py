"""Packets and flow identification.

A :class:`Packet` models one InfiniBand packet: up to one MTU of
payload plus a fixed header/CRC overhead. The congestion-control
machinery uses two header bits, exactly as in the IB spec:

* ``fecn`` — Forward Explicit Congestion Notification, set by a switch
  whose output Port VL is in the congestion state as the packet passes
  through it;
* ``becn`` — Backward Explicit Congestion Notification, set on the
  notification packet (CNP) the destination returns to the source.

Flows are identified by ``(source, destination)`` node-id pairs — the
paper runs CC at the Queue Pair level with one active QP per
communicating pair, so a flow key *is* the QP identity for our
purposes.

Packets are lean: ``__slots__`` only, with the four header bits
packed into one ``flags`` int.
"""

from __future__ import annotations

from typing import Tuple

FlowKey = Tuple[int, int]

# IB local route header + base transport header + ICRC/VCRC, rounded.
DEFAULT_HEADER_BYTES = 30
# Size of a congestion notification packet (CNP) on the wire.
CNP_WIRE_BYTES = 64
# Size of a transport acknowledgement packet on the wire.
ACK_WIRE_BYTES = 64

# Bit layout of Packet.flags (int-packed header/control bits).
FLAG_FECN = 1
FLAG_BECN = 2
FLAG_CONTROL = 4
FLAG_ACK = 8


class Packet:
    """One InfiniBand packet.

    Attributes
    ----------
    src, dst:
        End-node ids (HCA indices in the topology).
    payload:
        Payload bytes (what throughput is measured in).
    wire_size:
        Bytes occupying links and buffers (payload + header overhead).
    vl, sl:
        Virtual lane / service level. Experiments in the paper use a
        single data VL; CNPs may be configured onto a separate VL.
    flow:
        ``(src, dst)`` — QP-level flow identity for CC state.
    msg_id:
        Id of the message this packet belongs to (messages are two
        packets in the paper's setup).
    flags:
        Int-packed header/control bits (``FLAG_*``); read and written
        through the ``fecn``/``becn``/``is_control``/``is_ack``
        properties below.
    fecn, becn:
        Congestion notification bits (see module docstring).
    is_control:
        True for CNPs and transport acks: exempt from FECN marking, CC
        throttling and generator budget accounting.
    t_inject:
        Virtual time the packet entered the source HCA output buffer.
    psn:
        Packet sequence number within its flow when the reliable
        transport (:mod:`repro.transport`) is active; -1 otherwise.
        On an ack, the highest PSN cumulatively acknowledged.
    is_ack:
        True for transport acknowledgement packets.
    """

    __slots__ = (
        "src",
        "dst",
        "payload",
        "wire_size",
        "vl",
        "sl",
        "flow",
        "msg_id",
        "flags",
        "t_inject",
        "psn",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        payload: int,
        *,
        header: int = DEFAULT_HEADER_BYTES,
        vl: int = 0,
        sl: int = 0,
        msg_id: int = -1,
    ) -> None:
        if src == dst:
            raise ValueError("a packet cannot be addressed to its own source")
        if payload < 0:
            raise ValueError("payload must be non-negative")
        self.src = src
        self.dst = dst
        self.payload = payload
        self.wire_size = payload + header
        self.vl = vl
        self.sl = sl
        self.flow: FlowKey = (src, dst)
        self.msg_id = msg_id
        self.flags = 0
        self.t_inject = -1.0
        self.psn = -1

    # -- int-packed header bits ----------------------------------------
    @property
    def fecn(self) -> bool:
        return bool(self.flags & FLAG_FECN)

    @fecn.setter
    def fecn(self, on: bool) -> None:
        if on:
            self.flags |= FLAG_FECN
        else:
            self.flags &= ~FLAG_FECN

    @property
    def becn(self) -> bool:
        return bool(self.flags & FLAG_BECN)

    @becn.setter
    def becn(self, on: bool) -> None:
        if on:
            self.flags |= FLAG_BECN
        else:
            self.flags &= ~FLAG_BECN

    @property
    def is_control(self) -> bool:
        return bool(self.flags & FLAG_CONTROL)

    @is_control.setter
    def is_control(self, on: bool) -> None:
        if on:
            self.flags |= FLAG_CONTROL
        else:
            self.flags &= ~FLAG_CONTROL

    @property
    def is_ack(self) -> bool:
        return bool(self.flags & FLAG_ACK)

    @is_ack.setter
    def is_ack(self, on: bool) -> None:
        if on:
            self.flags |= FLAG_ACK
        else:
            self.flags &= ~FLAG_ACK

    @classmethod
    def cnp(cls, src: int, dst: int, *, vl: int = 0, sl: int = 0) -> "Packet":
        """Build a Congestion Notification Packet.

        ``src`` is the node *returning* the notification (the original
        destination); ``dst`` is the original source being told to
        throttle. The CNP's ``flow`` is rewritten to the original
        data-flow key ``(dst, src)`` so the receiver can index its CCT
        state directly.
        """
        pkt = cls(src, dst, 0, header=CNP_WIRE_BYTES, vl=vl, sl=sl)
        pkt.flags = FLAG_BECN | FLAG_CONTROL
        pkt.flow = (dst, src)
        return pkt

    @classmethod
    def ack(cls, src: int, dst: int, psn: int, *, vl: int = 0, sl: int = 0) -> "Packet":
        """Build a transport acknowledgement packet.

        ``src`` is the data receiver returning the ack; ``dst`` the
        data sender; ``psn`` the highest PSN cumulatively acknowledged.
        Like a CNP, the ack is a control packet riding the return path
        and its ``flow`` is rewritten to the data-flow key.
        """
        pkt = cls(src, dst, 0, header=ACK_WIRE_BYTES, vl=vl, sl=sl)
        pkt.flags = FLAG_CONTROL | FLAG_ACK
        pkt.psn = psn
        pkt.flow = (dst, src)
        return pkt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bits = "".join(
            b for b, on in (("F", self.fecn), ("B", self.becn), ("C", self.is_control)) if on
        )
        return (
            f"Packet({self.src}->{self.dst}, {self.payload}B, vl={self.vl}"
            + (f", {bits}" if bits else "")
            + ")"
        )

