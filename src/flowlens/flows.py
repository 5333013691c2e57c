"""Bidirectional flow assembly with idle/active timeout semantics.

A flow groups packets sharing a canonicalized 5-tuple. Endpoint A is the
source of the flow's first packet; a packet is forward iff its source equals
endpoint A. Assembly is a sequential state machine over a time-ordered packet
stream; flows are returned in the order they open, which is the order of
their first timestamps, whatever order they expire in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable

from .pcap import FIN, PROTO_TCP, RST, PacketRecord

IDLE_TIMEOUT = "idle_timeout"
ACTIVE_TIMEOUT = "active_timeout"
END_OF_CAPTURE = "end_of_capture"
FIN_RST = "fin_rst"

# Exporter-style defaults, in seconds. Configurable everywhere they are used.
DEFAULT_IDLE_TIMEOUT = 15.0
DEFAULT_ACTIVE_TIMEOUT = 120.0
DEFAULT_ACTIVITY_TIMEOUT = 5.0


@dataclass(frozen=True)
class FlowKey:
    ip_a: str
    port_a: int
    ip_b: str
    port_b: int
    protocol: int

    def flow_id(self) -> str:
        return f"{self.ip_a}:{self.port_a}-{self.ip_b}:{self.port_b}-{self.protocol}"


@dataclass
class FlowRecord:
    """One bidirectional flow.

    ``key`` names endpoint A (the source of the first packet) and endpoint B.
    ``first_ts`` and ``last_ts`` are the timestamps, in microseconds, of its
    first and last packet. ``packets`` holds its packets in time order, and
    ``forward[i]`` is 1 when ``packets[i]`` travels from A to B, else 0, a
    byte per packet so that a flow costs little beyond its packets.
    ``expiry_reason`` says why the flow ended: an idle gap, the active
    lifetime, FIN/RST, or the end of capture.
    """

    key: FlowKey
    first_ts: int
    last_ts: int
    packets: list[PacketRecord] = field(default_factory=list)
    forward: bytearray = field(default_factory=bytearray)
    expiry_reason: str = END_OF_CAPTURE

    @property
    def fwd_packets(self) -> list[PacketRecord]:
        return list(compress(self.packets, self.forward))

    @property
    def bwd_packets(self) -> list[PacketRecord]:
        return [p for p, fwd in zip(self.packets, self.forward) if not fwd]


def _undirected(pkt: PacketRecord) -> tuple:
    a = (pkt.src_ip, pkt.src_port)
    b = (pkt.dst_ip, pkt.dst_port)
    return (min(a, b), max(a, b), pkt.protocol)


@dataclass
class _FlowState:
    record: FlowRecord
    fin_fwd: bool = False
    fin_bwd: bool = False
    closed: bool = False

    def add(self, pkt: PacketRecord):
        forward = (pkt.src_ip, pkt.src_port) == (self.record.key.ip_a, self.record.key.port_a)
        self.record.packets.append(pkt)
        self.record.forward.append(forward)
        self.record.last_ts = pkt.ts_micros
        if pkt.protocol == PROTO_TCP:
            if pkt.tcp_flags & RST:
                self.closed = True
            if pkt.tcp_flags & FIN:
                if forward:
                    self.fin_fwd = True
                else:
                    self.fin_bwd = True
                if self.fin_fwd and self.fin_bwd:
                    self.closed = True


def assemble_flows(
    packets: Iterable[PacketRecord],
    idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
    active_timeout: float = DEFAULT_ACTIVE_TIMEOUT,
) -> list[FlowRecord]:
    """Group packets into bidirectional flows, expiring on timeouts.

    Timeouts are in seconds. A same-key packet arriving after the idle gap or
    the active lifetime opens a new flow; TCP flows also close after FIN in
    both directions or any RST. Remaining flows expire at end of capture.
    """
    idle_us = int(idle_timeout * 1_000_000)
    active_us = int(active_timeout * 1_000_000)

    # Stable, so file order survives on tied timestamps; on input already in
    # time order the sort is one linear pass.
    ordered = sorted(packets, key=lambda p: p.ts_micros)

    table: dict[tuple, _FlowState] = {}
    flows: list[FlowRecord] = []  # in opening order, so by first timestamp

    for pkt in ordered:
        lk = _undirected(pkt)
        state = table.get(lk)
        if state is not None:
            reason = None
            if state.closed:
                reason = FIN_RST
            elif pkt.ts_micros - state.record.last_ts > idle_us:
                reason = IDLE_TIMEOUT
            elif pkt.ts_micros - state.record.first_ts > active_us:
                reason = ACTIVE_TIMEOUT
            if reason is not None:
                state.record.expiry_reason = reason
                state = None
        if state is None:
            key = FlowKey(pkt.src_ip, pkt.src_port, pkt.dst_ip, pkt.dst_port, pkt.protocol)
            record = FlowRecord(key=key, first_ts=pkt.ts_micros, last_ts=pkt.ts_micros)
            state = _FlowState(record=record)
            table[lk] = state
            flows.append(record)
        state.add(pkt)

    for state in table.values():
        state.record.expiry_reason = FIN_RST if state.closed else END_OF_CAPTURE
    return flows
