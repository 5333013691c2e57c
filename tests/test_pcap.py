"""Parser tests against hand-built capture bytes (written here with struct,
independently of the package's own frame builder), then property tests of the
parser on arbitrary bytes and on captures from the package's writer."""

import io
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowlens.pcap as pcap_mod
from flowlens.cli import main
from flowlens.pcap import (PROTO_ICMP, PROTO_TCP, PROTO_UDP, PacketRecord, ParseStats,
                           PcapFormatError, SYN, build_frame, parse_pcap, write_pcap)
from conftest import (MAGIC_BE_MICROS, MAGIC_LE_MICROS, MAGIC_LE_NANOS,
                      pcap_global_header, pcap_record, raw_ethernet, raw_ipv4,
                      raw_tcp, raw_udp, tcp_packet, udp_packet)


def parse_bytes(data: bytes):
    stats = ParseStats()
    records = parse_pcap(io.BytesIO(data), stats)
    return records, stats


def assert_decoder_invariants(records):
    """What the decoder guarantees of every record it returns: the headers and
    payload fit in the IP total length behind a header of at least 20 bytes,
    and only TCP carries flags or a window."""
    for rec in records:
        assert rec.payload_len >= 0, rec
        assert rec.l4_header_len + rec.payload_len <= rec.ip_total_len - 20, rec
        if rec.protocol != PROTO_TCP:
            assert rec.tcp_flags == rec.tcp_window == 0, rec


def test_empty_capture_yields_nothing():
    records, stats = parse_bytes(pcap_global_header())
    assert records == []
    assert stats.skipped == 0


def test_single_syn_packet_decoded_by_hand():
    # 1-packet capture built field by field: Ethernet + IPv4 + TCP SYN,
    # timestamp (1 s, 500000 us).
    frame = raw_ethernet(0x0800, raw_ipv4("10.0.0.1", "10.0.0.2", 6, 64,
                                          raw_tcp(1234, 80, SYN, 8192)))
    data = pcap_global_header() + pcap_record(1, 500_000, frame)
    records, stats = parse_bytes(data)
    assert stats.skipped == 0
    assert len(records) == 1
    rec = records[0]
    assert rec.ts_micros == 1_500_000
    assert rec.tcp_flags == SYN
    assert (rec.src_ip, rec.src_port, rec.dst_ip, rec.dst_port) == ("10.0.0.1", 1234, "10.0.0.2", 80)
    assert rec.ip_total_len == 40 and rec.l4_header_len == 20 and rec.payload_len == 0
    assert rec.tcp_window == 8192 and rec.ttl == 64 and rec.protocol == 6


def test_arp_frame_skipped_udp_kept():
    arp = raw_ethernet(0x0806, b"\x00" * 28)
    udp = raw_ethernet(0x0800, raw_ipv4("10.0.0.1", "10.0.0.2", 17, 64,
                                        raw_udp(5353, 53, b"ab")))
    data = pcap_global_header() + pcap_record(0, 10, arp) + pcap_record(0, 20, udp)
    records, stats = parse_bytes(data)
    assert len(records) == 1
    assert records[0].protocol == 17
    assert records[0].payload_len == 2
    assert stats.skipped == 1


def test_big_endian_magic():
    frame = raw_ethernet(0x0800, raw_ipv4("1.2.3.4", "5.6.7.8", 6, 60,
                                          raw_tcp(1, 2, 0x10, 100)))
    data = pcap_global_header(MAGIC_BE_MICROS) + pcap_record(3, 7, frame, little=False)
    records, _ = parse_bytes(data)
    assert records[0].ts_micros == 3_000_007


def test_nanosecond_magic_converts_to_micros():
    frame = raw_ethernet(0x0800, raw_ipv4("1.2.3.4", "5.6.7.8", 6, 60,
                                          raw_tcp(1, 2, 0, 0)))
    data = pcap_global_header(MAGIC_LE_NANOS) + pcap_record(2, 123_456_789, frame)
    records, _ = parse_bytes(data)
    assert records[0].ts_micros == 2_123_456


def test_malformed_global_header_is_fatal():
    with pytest.raises(PcapFormatError):
        parse_bytes(b"\x00" * 24)
    with pytest.raises(PcapFormatError):
        parse_bytes(pcap_global_header()[:10])


def test_non_ethernet_linktype_is_fatal():
    with pytest.raises(PcapFormatError):
        parse_bytes(pcap_global_header(linktype=101))


def test_truncated_record_skipped():
    frame = raw_ethernet(0x0800, raw_ipv4("1.2.3.4", "5.6.7.8", 6, 60,
                                          raw_tcp(1, 2, 0, 0)))
    good = pcap_record(0, 0, frame)
    truncated = pcap_record(1, 0, frame)[: 16 + 20]  # body shorter than incl_len
    records, stats = parse_bytes(pcap_global_header() + good + truncated)
    assert len(records) == 1
    assert stats.skipped == 1


def test_ipv6_and_unknown_protocols_counted():
    ip6 = raw_ethernet(0x86DD, b"\x00" * 40)
    gre = raw_ethernet(0x0800, raw_ipv4("1.1.1.1", "2.2.2.2", 47, 64, b"\x00" * 8))
    records, stats = parse_bytes(pcap_global_header() + pcap_record(0, 0, ip6)
                                 + pcap_record(0, 1, gre))
    assert records == []
    assert stats.skipped == 2
    assert stats.reasons == {"ipv6": 1, "unsupported_protocol": 1}


def test_ip_options_and_snapped_payload():
    # IHL of 6 words; the payload length must honor the IP header fields even
    # when the captured bytes are shorter than the original frame.
    l4 = raw_tcp(9, 10, 0x18, 512, payload=b"x" * 50)
    frame = raw_ethernet(0x0800, raw_ipv4("9.9.9.9", "8.8.8.8", 6, 30, l4, ihl_words=6))
    data = pcap_global_header() + pcap_record(5, 5, frame)
    records, _ = parse_bytes(data)
    rec = records[0]
    assert rec.ip_total_len == 24 + 20 + 50
    assert rec.payload_len == 50


def test_icmp_packet_has_zero_ports_and_flags():
    icmp = raw_ethernet(0x0800, raw_ipv4("10.0.0.1", "10.0.0.9", 1, 64,
                                         struct.pack(">BBHI", 8, 0, 0, 1) + b"ping"))
    records, _ = parse_bytes(pcap_global_header() + pcap_record(0, 0, icmp))
    rec = records[0]
    assert rec.protocol == 1
    assert rec.src_port == 0 and rec.dst_port == 0
    assert rec.tcp_flags == 0 and rec.tcp_window == 0
    assert rec.payload_len == 4


def test_writer_output_parses_back_identically():
    packets = [
        tcp_packet(1_500_000, "10.0.0.1", 1234, "10.0.0.2", 80, flags=SYN, window=8192),
        udp_packet(2_000_000, "10.0.0.2", 53, "10.0.0.1", 5353, payload=33),
    ]
    buf = io.BytesIO()
    write_pcap(buf, packets)
    buf.seek(0)
    stats = ParseStats()
    assert parse_pcap(buf, stats) == packets
    assert stats.skipped == 0


@pytest.mark.parametrize("bad_ip, reason", [
    # IPv4 total length 19, shorter than the 20-byte IP + 20-byte TCP headers
    (raw_ipv4("10.0.0.1", "10.0.0.2", 6, 64, raw_tcp(1, 2, SYN, 0), total_len=19),
     "short_ip_total_len"),
    # TCP data offset of 4 words: a 16-byte header, below the 20-byte minimum
    (raw_ipv4("10.0.0.1", "10.0.0.2", 6, 64, raw_tcp(1, 2, SYN, 0, offset_words=4)),
     "bad_tcp_offset"),
])
def test_inconsistent_header_lengths_skipped(tmp_path, bad_ip, reason):
    good = raw_ethernet(0x0800, raw_ipv4("10.0.0.3", "10.0.0.4", 17, 64,
                                         raw_udp(5353, 53, b"ab")))
    data = (pcap_global_header() + pcap_record(0, 0, raw_ethernet(0x0800, bad_ip))
            + pcap_record(0, 1, good))
    records, stats = parse_bytes(data)
    assert [r.src_ip for r in records] == ["10.0.0.3"]
    assert stats.reasons == {reason: 1}

    pcap = tmp_path / "bad.pcap"
    pcap.write_bytes(data)
    out = tmp_path / "bad.csv"
    assert main(["extract", "--pcap", str(pcap), "--schema", "netflow_v2",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3  # provenance, header, one flow


def test_single_vlan_tag_decoded():
    # 802.1Q: TPID 0x8100 and a 2-byte tag (VLAN 100) sit between the MAC
    # addresses and the inner ethertype, so IPv4 starts at byte 18.
    ip = raw_ipv4("10.0.0.5", "10.0.0.6", 6, 61, raw_tcp(4000, 443, SYN, 1024))
    tagged = raw_ethernet(0x8100, struct.pack(">HH", 100, 0x0800) + ip)
    double = raw_ethernet(0x8100, struct.pack(">HH", 100, 0x8100)
                          + struct.pack(">HH", 200, 0x0800) + ip)
    short = raw_ethernet(0x8100, b"\x00\x64")
    records, stats = parse_bytes(pcap_global_header() + pcap_record(0, 0, tagged)
                                 + pcap_record(0, 1, double) + pcap_record(0, 2, short))
    assert [(r.src_ip, r.dst_port, r.ttl, r.tcp_flags) for r in records] == [
        ("10.0.0.5", 443, 61, SYN)]
    untagged, _ = parse_bytes(pcap_global_header() + pcap_record(0, 0, raw_ethernet(0x0800, ip)))
    assert records == untagged
    assert stats.reasons == {"non_ipv4": 1, "short_frame": 1}


# --- properties -------------------------------------------------------------

PORTS = st.integers(0, 65535)
IPS = st.tuples(*[st.integers(0, 255)] * 4).map(lambda q: ".".join(map(str, q)))


@st.composite
def packet_records(draw):
    protocol = draw(st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP]))
    if protocol == PROTO_TCP:
        l4_len, sport, dport = 4 * draw(st.integers(5, 15)), draw(PORTS), draw(PORTS)
        flags, window = draw(st.integers(0, 255)), draw(PORTS)
    else:
        l4_len, flags, window = 8, 0, 0
        sport, dport = (draw(PORTS), draw(PORTS)) if protocol == PROTO_UDP else (0, 0)
    ip_len = 4 * draw(st.integers(5, 15))
    payload = draw(st.integers(0, 40))
    return PacketRecord(
        ts_micros=draw(st.integers(0, 2**32 * 1_000_000 - 1)), src_ip=draw(IPS),
        dst_ip=draw(IPS), src_port=sport, dst_port=dport, protocol=protocol,
        ttl=draw(st.integers(0, 255)), ip_total_len=ip_len + l4_len + payload,
        l4_header_len=l4_len, payload_len=payload, tcp_flags=flags, tcp_window=window)


def capture_bytes(packets) -> bytes:
    buf = io.BytesIO()
    write_pcap(buf, packets)
    return buf.getvalue()


def record_slots(body: bytes) -> int:
    """Records a reader must account for in ``body`` (the bytes after the
    global header): each complete one, plus a truncated last one."""
    pos = slots = 0
    while pos < len(body):
        slots += 1
        if len(body) - pos < 16:
            break
        pos += 16 + struct.unpack_from("<I", body, pos + 8)[0]
    return slots


@settings(max_examples=200)
@given(body=st.binary(max_size=300))
def test_arbitrary_record_bytes_give_records_and_counted_skips(body):
    records, stats = parse_bytes(pcap_global_header() + body)
    assert_decoder_invariants(records)
    assert stats.packets == len(records)
    assert stats.skipped == sum((stats.reasons or {}).values())
    assert stats.packets + stats.skipped == record_slots(body)


@settings(max_examples=200)
@given(magic=st.sampled_from([b"", MAGIC_LE_MICROS, MAGIC_BE_MICROS, MAGIC_LE_NANOS]),
       rest=st.binary(max_size=120))
def test_arbitrary_leading_bytes_give_records_or_format_error(magic, rest):
    try:
        records, stats = parse_bytes(magic + rest)
    except PcapFormatError:
        return
    assert_decoder_invariants(records)
    assert stats.packets == len(records)


@settings(max_examples=100)
@given(packets=st.lists(packet_records(), max_size=6))
def test_written_records_parse_back(packets):
    records, stats = parse_bytes(capture_bytes(packets))
    assert records == packets
    assert stats.skipped == 0


# Any integer a field might be given, around the edges of each header field.
ANY_INT = st.one_of(st.integers(-2, 70), st.integers(-2**40, 2**40),
                    st.sampled_from([255, 256, 65535, 65536, 2**32 * 1_000_000 - 1,
                                     2**32 * 1_000_000]))
ANY_FIELD = {name: ANY_INT for name in PacketRecord._fields}
ANY_FIELD["src_ip"] = ANY_FIELD["dst_ip"] = st.one_of(
    IPS, st.text(alphabet="0123456789.+-_ x", max_size=16))
ANY_FIELD["protocol"] = st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP, 0, 47, 256])


@st.composite
def any_records(draw):
    """A writable record with up to three fields replaced by values that need
    not agree with the others or fit their header field."""
    rec = draw(packet_records())
    fields = draw(st.sets(st.sampled_from(PacketRecord._fields), max_size=3))
    return rec._replace(**{name: draw(ANY_FIELD[name]) for name in fields})


@settings(max_examples=400)
@given(rec=any_records())
def test_writer_refuses_or_round_trips_any_record(rec):
    try:
        data = capture_bytes([rec])
    except ValueError:
        return
    records, stats = parse_bytes(data)
    assert records == [rec]
    assert stats.skipped == 0


@settings(max_examples=100)
@given(rec=packet_records())
def test_written_ip_header_checksum_verifies(rec):
    """RFC 1071: the one's-complement sum of the header's 16-bit words,
    checksum included, is 0xFFFF."""
    ip = build_frame(rec)[14:]
    header = ip[:(ip[0] & 0x0F) * 4]
    total = sum(struct.unpack(f">{len(header) // 2}H", header))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    assert total == 0xFFFF


@settings(max_examples=150)
@given(packets=st.lists(packet_records(), min_size=1, max_size=4), data=st.data())
def test_truncated_capture_gives_prefix_and_one_skip(packets, data):
    full = capture_bytes(packets)
    ends = [24]
    for rec in packets:
        ends.append(ends[-1] + 16 + len(build_frame(rec)))
    cut = data.draw(st.integers(24, len(full)))
    records, stats = parse_bytes(full[:cut])
    assert_decoder_invariants(records)
    whole = sum(end <= cut for end in ends) - 1
    assert records == packets[:whole]
    tail = cut - ends[whole]
    if tail == 0:
        assert stats.skipped == 0
    else:
        reason = "truncated_record_header" if tail < 16 else "truncated_record_body"
        assert stats.reasons == {reason: 1}


@settings(max_examples=100)
@given(packets=st.lists(packet_records(), max_size=4), tail=st.binary(max_size=40),
       block=st.integers(1, 64))
def test_records_across_read_blocks_decode_the_same(packets, tail, block):
    data = capture_bytes(packets) + tail
    whole_records, whole_stats = parse_bytes(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pcap_mod, "_READ_BLOCK_BYTES", block)
        records, stats = parse_bytes(data)
    assert_decoder_invariants(records)
    assert records == whole_records
    assert (stats.packets, stats.skipped, stats.reasons) == (
        whole_stats.packets, whole_stats.skipped, whole_stats.reasons)


@settings(max_examples=200)
@given(protocol=st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP, 47]),
       ihl_words=st.integers(0, 15), total_len=st.integers(0, 200),
       l4=st.binary(max_size=80))
def test_arbitrary_ipv4_headers_keep_decoder_invariants(protocol, ihl_words, total_len, l4):
    # An IPv4 header whose length fields need not agree with each other or
    # with the bytes that follow: a record that keeps the invariants, or a
    # counted skip.
    header = bytearray(raw_ipv4("10.0.0.1", "10.0.0.2", protocol, 64, b"",
                                ihl_words=max(ihl_words, 5), total_len=total_len))
    header[0] = (4 << 4) | ihl_words
    frame = raw_ethernet(0x0800, bytes(header) + l4)
    records, stats = parse_bytes(pcap_global_header() + pcap_record(0, 0, frame))
    assert_decoder_invariants(records)
    assert stats.packets + stats.skipped == 1


@pytest.mark.parametrize("record", [
    udp_packet(0, "10.0.0.1", 1, "10.0.0.2", 2)._replace(tcp_flags=SYN),
    udp_packet(0, "10.0.0.1", 1, "10.0.0.2", 2)._replace(tcp_window=512),
    udp_packet(0, "10.0.0.1", 0, "10.0.0.2", 0)._replace(protocol=PROTO_ICMP, tcp_flags=1),
    # 20-byte TCP header + 30 payload bytes in a 40-byte IP packet
    tcp_packet(0, "10.0.0.1", 1, "10.0.0.2", 2)._replace(payload_len=30),
    udp_packet(0, "10.0.0.1", 1, "10.0.0.2", 2, payload=4)._replace(ip_total_len=20),
    # header lengths the decoder would read back otherwise, or skip
    udp_packet(0, "10.0.0.1", 1, "10.0.0.2", 2)._replace(l4_header_len=20, ip_total_len=40),
    udp_packet(0, "10.0.0.1", 0, "10.0.0.2", 0)._replace(protocol=PROTO_ICMP, l4_header_len=12,
                                                         ip_total_len=32),
    tcp_packet(0, "10.0.0.1", 1, "10.0.0.2", 2)._replace(l4_header_len=22, ip_total_len=42),
    tcp_packet(0, "10.0.0.1", 1, "10.0.0.2", 2)._replace(ip_total_len=42),  # 22-byte IP header
    tcp_packet(0, "10.0.0.1", 1, "10.0.0.2", 2)._replace(ip_total_len=84),  # 64: IHL 16 sets the version
    # fields wider than their place in the headers
    tcp_packet(0, "10.0.0.1", 1, "10.0.0.2", 2)._replace(l4_header_len=64, ip_total_len=84),
    tcp_packet(0, "10.0.0.1", 70_000, "10.0.0.2", 2),
    tcp_packet(0, "10.0.0.1", 1, "10.0.0.2", 2, ttl=300),
    tcp_packet(-1, "10.0.0.1", 1, "10.0.0.2", 2),
    # a 65,536-byte frame, longer than the snap length write_pcap declares
    udp_packet(0, "10.0.0.1", 1, "10.0.0.2", 2, payload=65_494),
])
def test_inconsistent_records_are_not_serialized(record):
    with pytest.raises(ValueError):
        build_frame(record)
    with pytest.raises(ValueError):
        write_pcap(io.BytesIO(), [record])


def test_huge_claimed_record_length_is_truncated_body(tmp_path):
    good = pcap_record(0, 0, raw_ethernet(0x0800, raw_ipv4("10.0.0.1", "10.0.0.2", 17, 64,
                                                            raw_udp(1, 2))))
    huge = struct.pack("<IIII", 1, 0, 2**32 - 1, 2**32 - 1) + b"\x00" * 100
    path = tmp_path / "huge.pcap"
    path.write_bytes(pcap_global_header() + good + huge)
    stats = ParseStats()
    tracemalloc.start()
    try:
        with open(path, "rb") as fh:
            records = parse_pcap(fh, stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 1
    assert stats.reasons == {"truncated_record_body": 1}
    assert peak < 8 * 2**20  # the read block, not the 4 GiB claim
