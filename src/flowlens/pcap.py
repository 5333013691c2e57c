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
_SNAPLEN = 65535  # declared by write_pcap; no frame it writes is longer


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
    values: dict[int, int] = {}  # one int object per port, length or window value
    buf = bytearray(_READ_BLOCK_BYTES)
    held = pos = 0  # buf[:held] came from the stream; buf[pos:held] is not decoded yet
    while True:
        if held - pos < 16:
            held, pos = _refill(stream, buf, pos, held, 16), 0
            if not held:
                break
            if held < 16:
                stats.skip("truncated_record_header")
                break
        ts_sec, ts_frac, incl_len = unpack_header(buf, pos)
        if pos + 16 + incl_len > held:
            held, pos = _refill(stream, buf, pos, held, 16 + incl_len), 0
            if 16 + incl_len > held:
                stats.skip("truncated_record_body")
                break
        start = pos + 16
        pos = end = start + incl_len
        ts = ts_sec * 1_000_000 + (ts_frac // 1000 if nanos else ts_frac)
        rec = _decode_frame(ts, buf, start, end, addresses, values, stats)
        if rec is not None:
            records.append(rec)
            stats.packets += 1
    return records


def _refill(stream: BinaryIO, buf: bytearray, pos: int, held: int, size: int) -> int:
    """Move the bytes ``buf[pos:held]`` to the front of ``buf``, then read the
    stream in after them until ``size`` bytes are held or the stream ends, and
    return the count held. Reads go straight into ``buf``; it grows, a block
    at a time, only for a record longer than it and only by bytes the stream
    gives, so nothing is allocated for bytes the stream lacks."""
    held -= pos
    buf[:held] = buf[pos : pos + held]
    while held < size:
        if held < len(buf):
            with memoryview(buf) as view:
                n = stream.readinto(view[held:])
        else:
            block = stream.read(_READ_BLOCK_BYTES)
            buf += block
            n = len(block)
        if not n:
            break
        held += n
    return held


def _decode_frame(ts: int, buf: bytearray, start: int, end: int, addresses: dict[int, str],
                  values: dict[int, int], stats: ParseStats) -> PacketRecord | None:
    """Decode the Ethernet frame held in ``buf[start:end]`` without copying it.

    Integers above 256 are new objects each time they are made, so the
    ports, lengths and window of a record are looked up in ``values``: every
    record holding a value shares one object for it, as ``addresses`` shares
    one string per address."""
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
    payload_len = total_len - ihl - l4_len
    share = values.setdefault
    return PacketRecord(ts, src_ip, dst_ip, share(sport, sport), share(dport, dport), protocol,
                        ttl, share(total_len, total_len), l4_len,
                        share(payload_len, payload_len), flags, share(window, window))


def _dotted_quad(address: int) -> str:
    return f"{address >> 24}.{(address >> 16) & 0xFF}.{(address >> 8) & 0xFF}.{address & 0xFF}"


# --- writing ---------------------------------------------------------------

# Two locally administered MAC addresses and the IPv4 ethertype.
_ETHERNET = bytes.fromhex("020000000001" "020000000002") + _ETHERTYPE.pack(ETHERTYPE_IPV4)
# Ethernet, then the IPv4 header without options: version/IHL, zero TOS,
# total length, zero ID and flags/fragment offset, TTL, protocol, checksum,
# addresses.
_FRAME_HEAD = struct.Struct(">14sBxH4xBBH4s4s")
# ports, zero sequence and acknowledgement numbers, data offset/flags, window,
# zero checksum and urgent pointer
_TCP_HEAD = struct.Struct(">HH8xHH4x")
# ports, length, zero checksum
_UDP_HEAD = struct.Struct(">HHH2x")
_ICMP_ECHO_REQUEST = bytes((8, 0, 0, 0, 0, 0, 0, 0))
_RECORD_HEAD = struct.Struct("<IIII")  # ts_sec, ts_usec, incl_len, orig_len
# A record header holds the seconds of a timestamp in 32 bits.
_TS_LIMIT = 2**32 * 1_000_000


def _ip_bytes(ip: str, addresses: dict[str, tuple[bytes, int]]) -> tuple[bytes, int]:
    """Enter a dotted quad in ``addresses``: its four bytes and the sum of its
    two 16-bit words, its share of the IPv4 header checksum. Only the form
    the reader gives back is accepted (no leading zeros or signs)."""
    try:
        raw = bytes(int(p) for p in ip.split("."))  # bytes() refuses parts above 255
    except ValueError:
        raw = b""
    if len(raw) != 4 or ".".join(map(str, raw)) != ip:
        raise ValueError(f"bad IPv4 address {ip!r}")
    entry = addresses[ip] = (raw, (raw[0] << 8 | raw[1]) + (raw[2] << 8 | raw[3]))
    return entry


def build_frame(rec: PacketRecord,
                addresses: dict[str, tuple[bytes, int]] | None = None) -> bytes:
    """Serialize one record as an Ethernet/IPv4 frame with zeroed IP options
    and payload.

    Raises ``ValueError`` for a record that :func:`parse_pcap` would not
    give back as it is. ``addresses`` maps each address seen so far to its
    bytes and checksum words (see :func:`_ip_bytes`), so that a writer
    parses each address once.
    """
    (ts, src_ip, dst_ip, sport, dport, protocol, ttl, total_len, l4_len, payload_len,
     flags, window) = rec
    if not 0 <= ts < _TS_LIMIT:
        raise ValueError(f"timestamp {ts} us is outside the pcap range")
    if payload_len < 0:
        raise ValueError("payload length is negative")
    ip_len = total_len - l4_len - payload_len
    if not 20 <= ip_len <= 60 or ip_len & 3:
        raise ValueError(f"record implies an IPv4 header of {ip_len} bytes, "
                         "not a multiple of 4 from 20 to 60")
    if total_len > _SNAPLEN - len(_ETHERNET):
        raise ValueError(f"IPv4 total length {total_len} makes a frame past the snap length")
    if not 0 <= ttl <= 0xFF:
        raise ValueError(f"TTL {ttl} is outside 0..255")
    if protocol == PROTO_TCP:
        if not 20 <= l4_len <= 60 or l4_len & 3:
            raise ValueError(f"TCP header of {l4_len} bytes, not a multiple of 4 from 20 to 60")
        if flags >> 8 or not 0 <= window <= 0xFFFF:
            raise ValueError("TCP flags must fit 8 bits and the window 16 bits")
    elif protocol not in (PROTO_UDP, PROTO_ICMP):
        raise ValueError(f"cannot serialize IP protocol {protocol}")
    elif flags or window:
        raise ValueError("TCP flags/window must be 0 for non-TCP packets")
    elif l4_len != 8:
        raise ValueError(f"a UDP or ICMP header is 8 bytes, not {l4_len}")
    if protocol == PROTO_ICMP:
        if sport or dport:
            raise ValueError("ICMP packets have no ports")
        l4 = _ICMP_ECHO_REQUEST
    elif not (0 <= sport <= 0xFFFF and 0 <= dport <= 0xFFFF):
        raise ValueError(f"port {sport} or {dport} is outside 0..65535")
    elif protocol == PROTO_TCP:
        l4 = _TCP_HEAD.pack(sport, dport, l4_len << 10 | flags, window)  # offset in words
    else:
        l4 = _UDP_HEAD.pack(sport, dport, 8 + payload_len)

    if addresses is None:
        addresses = {}
    src, src_words = addresses.get(src_ip) or _ip_bytes(src_ip, addresses)
    dst, dst_words = addresses.get(dst_ip) or _ip_bytes(dst_ip, addresses)
    ver_ihl = 0x40 | ip_len >> 2
    # RFC 1071: the one's-complement sum of the header's 16-bit words, of
    # which only these are nonzero. It stays below 2**19, so two folds
    # carry every overflow back in.
    total = (ver_ihl << 8) + total_len + (ttl << 8) + protocol + src_words + dst_words
    total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    head = _FRAME_HEAD.pack(_ETHERNET, ver_ihl, total_len, ttl, protocol, total ^ 0xFFFF,
                            src, dst)
    # Zeroed IP options, the transport header, then its options and the payload.
    return b"".join((head, bytes(ip_len - 20), l4, bytes(l4_len - len(l4) + payload_len)))


def write_pcap(stream: BinaryIO, packets: Iterable[PacketRecord]):
    """Write packets as a little-endian microsecond pcap, Ethernet link type.

    Raises ``ValueError`` at the first record :func:`build_frame` refuses,
    with the records before it written.
    """
    write = stream.write
    write(struct.pack("<IHHiIII", _MAGIC_MICROS, 2, 4, 0, 0, _SNAPLEN, LINKTYPE_ETHERNET))
    addresses: dict[str, tuple[bytes, int]] = {}  # each address seen in this call
    pack_head = _RECORD_HEAD.pack
    for rec in packets:
        frame = build_frame(rec, addresses)
        sec, micro = divmod(rec.ts_micros, 1_000_000)
        write(pack_head(sec, micro, len(frame), len(frame)) + frame)
