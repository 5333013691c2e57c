"""Shared fixtures: hand-built pcap bytes (independent of the package's own
writer) and small flow/packet builders."""

from __future__ import annotations

import struct

import pytest
from hypothesis import settings

from flowlens.flows import FlowKey, FlowRecord
from flowlens.pcap import PacketRecord

# The host's timing drifts by about 20% between runs, so a per-example
# deadline would fail at random; each test sets its own max_examples.
settings.register_profile("flowlens", deadline=None)
settings.load_profile("flowlens")

MAGIC_LE_MICROS = struct.pack("<I", 0xA1B2C3D4)
MAGIC_BE_MICROS = struct.pack(">I", 0xA1B2C3D4)
MAGIC_LE_NANOS = struct.pack("<I", 0xA1B23C4D)


def pcap_global_header(magic: bytes = MAGIC_LE_MICROS, linktype: int = 1) -> bytes:
    little = magic in (MAGIC_LE_MICROS, MAGIC_LE_NANOS)
    endian = "<" if little else ">"
    return magic + struct.pack(endian + "HHiIII", 2, 4, 0, 0, 65535, linktype)


def ip_bytes(ip: str) -> bytes:
    return bytes(int(b) for b in ip.split("."))


def raw_ethernet(ethertype: int, payload: bytes) -> bytes:
    return b"\xaa" * 6 + b"\xbb" * 6 + struct.pack(">H", ethertype) + payload


def raw_ipv4(src: str, dst: str, protocol: int, ttl: int, l4: bytes,
             ihl_words: int = 5, total_len: int | None = None) -> bytes:
    header_len = ihl_words * 4
    if total_len is None:
        total_len = header_len + len(l4)
    hdr = struct.pack(
        ">BBHHHBBH4s4s",
        (4 << 4) | ihl_words, 0, total_len, 0, 0, ttl, protocol, 0,
        ip_bytes(src), ip_bytes(dst),
    )
    hdr += b"\x00" * (header_len - 20)
    return hdr + l4


def raw_tcp(sport: int, dport: int, flags: int, window: int, payload: bytes = b"",
            offset_words: int = 5) -> bytes:
    hdr = struct.pack(">HHIIHHHH", sport, dport, 0, 0,
                      (offset_words << 12) | flags, window, 0, 0)
    hdr += b"\x00" * (offset_words * 4 - 20)
    return hdr + payload


def raw_udp(sport: int, dport: int, payload: bytes = b"") -> bytes:
    return struct.pack(">HHHH", sport, dport, 8 + len(payload), 0) + payload


def pcap_record(ts_sec: int, ts_frac: int, frame: bytes, little: bool = True) -> bytes:
    endian = "<" if little else ">"
    return struct.pack(endian + "IIII", ts_sec, ts_frac, len(frame), len(frame)) + frame


def tcp_packet(ts, src, sport, dst, dport, flags=0, window=0, payload=0, ttl=64):
    return PacketRecord(
        ts_micros=ts, src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport,
        protocol=6, ttl=ttl, ip_total_len=40 + payload, l4_header_len=20,
        payload_len=payload, tcp_flags=flags, tcp_window=window,
    )


def udp_packet(ts, src, sport, dst, dport, payload=0, ttl=64):
    return PacketRecord(
        ts_micros=ts, src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport,
        protocol=17, ttl=ttl, ip_total_len=28 + payload, l4_header_len=8,
        payload_len=payload,
    )


def make_flow(fwd_specs, bwd_specs=(), protocol=6, key=None) -> FlowRecord:
    """Build a FlowRecord from (ts, total_len, payload, hdr, flags, win, ttl)
    tuples; merged in timestamp order with forward winning ties."""
    if key is None:
        key = FlowKey("10.0.0.1", 1234, "10.0.0.2", 80, protocol)

    def packet(spec, forward):
        ts, total_len, payload, hdr, flags, win, ttl = spec
        src, sport, dst, dport = ((key.ip_a, key.port_a, key.ip_b, key.port_b) if forward
                                  else (key.ip_b, key.port_b, key.ip_a, key.port_a))
        return forward, PacketRecord(
            ts_micros=ts, src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport,
            protocol=key.protocol, ttl=ttl, ip_total_len=total_len, l4_header_len=hdr,
            payload_len=payload, tcp_flags=flags, tcp_window=win,
        )

    tagged = [packet(spec, True) for spec in fwd_specs]
    tagged += [packet(spec, False) for spec in bwd_specs]
    tagged.sort(key=lambda item: (item[1].ts_micros, not item[0]))
    if not tagged:
        raise ValueError("flow needs at least one packet")
    return FlowRecord(
        key=key,
        first_ts=tagged[0][1].ts_micros,
        last_ts=max(p.ts_micros for _, p in tagged),
        packets=[p for _, p in tagged],
        forward=bytearray(forward for forward, _ in tagged),
    )


@pytest.fixture
def simple_tcp_stream():
    """Handshake + data + teardown between one client/server pair."""
    c, s = "192.168.0.10", "192.168.0.20"
    return [
        tcp_packet(1_000_000, c, 5555, s, 80, flags=0x02, window=64240),
        tcp_packet(1_010_000, s, 80, c, 5555, flags=0x12, window=29200),
        tcp_packet(1_020_000, c, 5555, s, 80, flags=0x10, window=64240),
        tcp_packet(1_030_000, c, 5555, s, 80, flags=0x18, window=64240, payload=120),
        tcp_packet(1_080_000, s, 80, c, 5555, flags=0x18, window=29200, payload=900),
        tcp_packet(1_090_000, c, 5555, s, 80, flags=0x11, window=64240),
        tcp_packet(1_100_000, s, 80, c, 5555, flags=0x11, window=29200),
        tcp_packet(1_110_000, c, 5555, s, 80, flags=0x10, window=64240),
    ]
