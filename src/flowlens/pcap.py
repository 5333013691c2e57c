"""Reading and writing pcap capture files (Ethernet link layer, IPv4 only).

The reader accepts the classic microsecond format in either byte order as
well as the nanosecond variant, and decodes IPv4 TCP, UDP, and ICMP packets,
untagged or under one 802.1Q VLAN tag, into :class:`PacketRecord`. Anything else (ARP, IPv6, other IP protocols,
truncated records, header lengths that contradict each other) is skipped and
counted, never raised.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterable, NamedTuple

# TCP flag bits, low byte of the offset/flags word.
FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10
URG = 0x20
ECE = 0x40
CWR = 0x80

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD
ETHERTYPE_VLAN = 0x8100  # 802.1Q tag: 4 more bytes, then the inner ethertype
LINKTYPE_ETHERNET = 1

_MAGIC_MICROS = 0xA1B2C3D4
_MAGIC_NANOS = 0xA1B23C4D


class PcapFormatError(ValueError):
    """Fatal: the stream does not start with a valid pcap global header."""


class PacketRecord(NamedTuple):
    """One decoded link/network/transport-layer packet.

    ``l4_header_len`` is the transport header size; the IPv4 header length is
    implicitly ``ip_total_len - l4_header_len - payload_len``. TCP window and
    flags are 0 for non-TCP packets. The decoder guarantees both; records
    built by callers are checked where they are serialized, in
    :func:`build_frame`.
    """

    ts_micros: int
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int
    ttl: int
    ip_total_len: int
    l4_header_len: int
    payload_len: int
    tcp_flags: int = 0
    tcp_window: int = 0


@dataclass
class ParseStats:
    packets: int = 0
    skipped: int = 0
    reasons: dict[str, int] | None = None

    def skip(self, reason: str):
        self.skipped += 1
        if self.reasons is None:
            self.reasons = {}
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


# The reader takes the stream in blocks of this many bytes, so memory follows
# the block and the largest record, not the size of the capture.
_READ_BLOCK_BYTES = 1 << 20

_ETHERTYPE = struct.Struct(">H")
# version/IHL, total length, flags/fragment offset, TTL, protocol, addresses
_IPV4 = struct.Struct(">B1xH2xHBB2xII")
# ports, data offset/flags, window
_TCP = struct.Struct(">HH8xHH")
_PORTS = struct.Struct(">HH")


def parse_pcap(stream: BinaryIO, stats: ParseStats | None = None) -> list[PacketRecord]:
    """Decode a pcap byte stream into packet records, in file order.

    Raises :class:`PcapFormatError` for a malformed global header or a
    non-Ethernet link type. Per-packet problems increment ``stats.skipped``.
    """
    if stats is None:
        stats = ParseStats()
    head = stream.read(24)
    if len(head) < 24:
        raise PcapFormatError("file shorter than the 24-byte global header")
    magic_be = struct.unpack(">I", head[:4])[0]
    magic_le = struct.unpack("<I", head[:4])[0]
    if magic_be in (_MAGIC_MICROS, _MAGIC_NANOS):
        endian, nanos = ">", magic_be == _MAGIC_NANOS
    elif magic_le in (_MAGIC_MICROS, _MAGIC_NANOS):
        endian, nanos = "<", magic_le == _MAGIC_NANOS
    else:
        raise PcapFormatError(f"unrecognized magic 0x{magic_be:08x}")
    linktype = struct.unpack(endian + "I", head[20:24])[0]
    if linktype != LINKTYPE_ETHERNET:
        raise PcapFormatError(f"unsupported link type {linktype}, expected Ethernet (1)")

    records: list[PacketRecord] = []
    unpack_header = struct.Struct(endian + "III").unpack_from  # ts_sec, ts_frac, incl_len
    addresses: dict[int, str] = {}  # dotted quad of each address seen in this call
    buf, pos = b"", 0
    while True:
        if len(buf) - pos < 16:
            buf, pos = _read_at_least(stream, buf[pos:], 16), 0
            if not buf:
                break
            if len(buf) < 16:
                stats.skip("truncated_record_header")
                break
        ts_sec, ts_frac, incl_len = unpack_header(buf, pos)
        if pos + 16 + incl_len > len(buf):
            buf, pos = _read_at_least(stream, buf[pos:], 16 + incl_len), 0
            if 16 + incl_len > len(buf):
                stats.skip("truncated_record_body")
                break
        start = pos + 16
        pos = end = start + incl_len
        ts = ts_sec * 1_000_000 + (ts_frac // 1000 if nanos else ts_frac)
        rec = _decode_frame(ts, buf, start, end, addresses, stats)
        if rec is not None:
            records.append(rec)
            stats.packets += 1
    return records


def _read_at_least(stream: BinaryIO, head: bytes, size: int) -> bytes:
    """``head`` followed by blocks of the stream until ``size`` bytes are held
    or the stream ends. Nothing is allocated for bytes the stream lacks."""
    blocks = [head]
    held = len(head)
    while held < size:
        block = stream.read(_READ_BLOCK_BYTES)
        if not block:
            break
        blocks.append(block)
        held += len(block)
    return b"".join(blocks)


def _decode_frame(ts: int, buf: bytes, start: int, end: int, addresses: dict[int, str],
                  stats: ParseStats) -> PacketRecord | None:
    """Decode the Ethernet frame held in ``buf[start:end]`` without copying it."""
    if end - start < 14:
        stats.skip("short_frame")
        return None
    ethertype = _ETHERTYPE.unpack_from(buf, start + 12)[0]
    ip = start + 14
    if ethertype == ETHERTYPE_VLAN:
        if end - start < 18:
            stats.skip("short_frame")
            return None
        ethertype = _ETHERTYPE.unpack_from(buf, start + 16)[0]
        ip = start + 18
    if ethertype == ETHERTYPE_IPV6:
        stats.skip("ipv6")
        return None
    if ethertype != ETHERTYPE_IPV4:
        stats.skip("non_ipv4")
        return None

    if end - ip < 20:
        stats.skip("short_ip_header")
        return None
    version_ihl, total_len, flags_frag, ttl, protocol, src, dst = _IPV4.unpack_from(buf, ip)
    if version_ihl >> 4 != 4:
        stats.skip("non_ipv4")
        return None
    ihl = (version_ihl & 0x0F) * 4
    if ihl < 20 or end - ip < ihl:
        stats.skip("short_ip_header")
        return None
    if flags_frag & 0x1FFF:  # non-initial fragment: no transport header
        stats.skip("ip_fragment")
        return None
    l4 = ip + ihl

    if protocol == PROTO_TCP:
        if end - l4 < 20:
            stats.skip("short_l4_header")
            return None
        sport, dport, offset_flags, window = _TCP.unpack_from(buf, l4)
        l4_len = (offset_flags >> 12) * 4
        if l4_len < 20:
            stats.skip("bad_tcp_offset")
            return None
        flags = offset_flags & 0xFF
    elif protocol == PROTO_UDP:
        if end - l4 < 8:
            stats.skip("short_l4_header")
            return None
        sport, dport = _PORTS.unpack_from(buf, l4)
        l4_len, flags, window = 8, 0, 0
    elif protocol == PROTO_ICMP:
        if end - l4 < 8:
            stats.skip("short_l4_header")
            return None
        sport = dport = 0
        l4_len, flags, window = 8, 0, 0
    else:
        stats.skip("unsupported_protocol")
        return None

    if total_len < ihl + l4_len:
        stats.skip("short_ip_total_len")
        return None
    src_ip = addresses.get(src)
    if src_ip is None:
        src_ip = addresses[src] = _dotted_quad(src)
    dst_ip = addresses.get(dst)
    if dst_ip is None:
        dst_ip = addresses[dst] = _dotted_quad(dst)
    return PacketRecord(ts, src_ip, dst_ip, sport, dport, protocol, ttl, total_len, l4_len,
                        total_len - ihl - l4_len, flags, window)


def _dotted_quad(address: int) -> str:
    return f"{address >> 24}.{(address >> 16) & 0xFF}.{(address >> 8) & 0xFF}.{address & 0xFF}"


# --- writing ---------------------------------------------------------------

def _ip_bytes(ip: str) -> bytes:
    parts = [int(p) for p in ip.split(".")]
    if len(parts) != 4 or any(not 0 <= p <= 255 for p in parts):
        raise ValueError(f"bad IPv4 address {ip!r}")
    return bytes(parts)


def _ip_checksum(header: bytes) -> int:
    total = 0
    for i in range(0, len(header), 2):
        total += struct.unpack(">H", header[i : i + 2])[0]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def build_frame(rec: PacketRecord) -> bytes:
    """Serialize one record as an Ethernet/IPv4 frame with a zeroed payload."""
    ip_header_len = rec.ip_total_len - rec.l4_header_len - rec.payload_len
    if ip_header_len < 20:
        raise ValueError("record implies an IPv4 header shorter than 20 bytes")
    if rec.protocol != PROTO_TCP and (rec.tcp_flags or rec.tcp_window):
        raise ValueError("TCP flags/window must be 0 for non-TCP packets")
    eth = b"\x02\x00\x00\x00\x00\x01" + b"\x02\x00\x00\x00\x00\x02" + struct.pack(">H", ETHERTYPE_IPV4)
    ver_ihl = 0x40 | (ip_header_len // 4)
    ip = struct.pack(
        ">BBHHHBBH4s4s",
        ver_ihl,
        0,
        rec.ip_total_len,
        0,
        0,
        rec.ttl,
        rec.protocol,
        0,
        _ip_bytes(rec.src_ip),
        _ip_bytes(rec.dst_ip),
    )
    ip = ip[:10] + struct.pack(">H", _ip_checksum(ip)) + ip[12:]
    ip += b"\x00" * (ip_header_len - 20)

    if rec.protocol == PROTO_TCP:
        offset_flags = ((rec.l4_header_len // 4) << 12) | rec.tcp_flags
        l4 = struct.pack(
            ">HHIIHHHH", rec.src_port, rec.dst_port, 0, 0, offset_flags, rec.tcp_window, 0, 0
        )
        l4 += b"\x00" * (rec.l4_header_len - 20)
    elif rec.protocol == PROTO_UDP:
        l4 = struct.pack(">HHHH", rec.src_port, rec.dst_port, 8 + rec.payload_len, 0)
    elif rec.protocol == PROTO_ICMP:
        l4 = struct.pack(">BBHI", 8, 0, 0, 0)  # echo request
    else:
        raise ValueError(f"cannot serialize IP protocol {rec.protocol}")
    return eth + ip + l4 + b"\x00" * rec.payload_len


def write_pcap(stream: BinaryIO, packets: Iterable[PacketRecord]):
    """Write packets as a little-endian microsecond pcap, Ethernet link type."""
    stream.write(struct.pack("<IHHiIII", _MAGIC_MICROS, 2, 4, 0, 0, 65535, LINKTYPE_ETHERNET))
    for rec in packets:
        frame = build_frame(rec)
        sec, micro = divmod(rec.ts_micros, 1_000_000)
        stream.write(struct.pack("<IIII", sec, micro, len(frame), len(frame)))
        stream.write(frame)
