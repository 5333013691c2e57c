"""Flow assembly: timeout semantics, canonical direction, determinism."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlens.flows import (ACTIVE_TIMEOUT, END_OF_CAPTURE, FIN_RST,
                            IDLE_TIMEOUT, assemble_flows)
from flowlens.pcap import ACK, FIN, RST, SYN
from conftest import tcp_packet, udp_packet


def test_two_packets_one_second_apart_one_flow():
    pkts = [
        udp_packet(0, "10.0.0.1", 1111, "10.0.0.2", 53),
        udp_packet(1_000_000, "10.0.0.1", 1111, "10.0.0.2", 53),
    ]
    flows = assemble_flows(pkts, idle_timeout=15)
    assert len(flows) == 1
    assert len(flows[0].fwd_packets) == 2
    assert flows[0].expiry_reason == END_OF_CAPTURE


def test_idle_timeout_splits_flow():
    pkts = [
        udp_packet(0, "10.0.0.1", 1111, "10.0.0.2", 53),
        udp_packet(20_000_000, "10.0.0.1", 1111, "10.0.0.2", 53),
    ]
    flows = assemble_flows(pkts, idle_timeout=15)
    assert len(flows) == 2
    assert flows[0].expiry_reason == IDLE_TIMEOUT
    assert flows[1].expiry_reason == END_OF_CAPTURE


def test_reply_canonicalization():
    pkts = [
        tcp_packet(0, "10.0.0.1", 1234, "10.0.0.2", 80, flags=SYN),
        tcp_packet(1000, "10.0.0.2", 80, "10.0.0.1", 1234, flags=SYN | ACK),
    ]
    flows = assemble_flows(pkts)
    assert len(flows) == 1
    flow = flows[0]
    assert (flow.key.ip_a, flow.key.port_a) == ("10.0.0.1", 1234)
    assert len(flow.fwd_packets) == 1 and len(flow.bwd_packets) == 1


def test_active_timeout_splits_long_flow():
    pkts = [udp_packet(t * 10_000_000, "1.1.1.1", 1, "2.2.2.2", 2) for t in range(14)]
    flows = assemble_flows(pkts, idle_timeout=15, active_timeout=120)
    assert len(flows) == 2
    assert flows[0].expiry_reason == ACTIVE_TIMEOUT
    # split happens at the first packet past 120 s from the flow start
    assert flows[0].packet_count() == 13
    assert flows[1].packet_count() == 1


def test_fin_both_directions_closes_then_new_flow():
    pkts = [
        tcp_packet(0, "10.1.1.1", 10, "10.1.1.2", 80, flags=SYN),
        tcp_packet(100, "10.1.1.1", 10, "10.1.1.2", 80, flags=FIN | ACK),
        tcp_packet(200, "10.1.1.2", 80, "10.1.1.1", 10, flags=FIN | ACK),
        tcp_packet(300, "10.1.1.1", 10, "10.1.1.2", 80, flags=ACK),  # reopens
    ]
    flows = assemble_flows(pkts)
    assert len(flows) == 2
    assert flows[0].expiry_reason == FIN_RST
    assert flows[0].packet_count() == 3
    assert flows[1].packet_count() == 1


def test_rst_closes_flow():
    pkts = [
        tcp_packet(0, "10.1.1.1", 10, "10.1.1.2", 80, flags=SYN),
        tcp_packet(100, "10.1.1.2", 80, "10.1.1.1", 10, flags=RST),
        tcp_packet(200, "10.1.1.1", 10, "10.1.1.2", 80, flags=SYN),
    ]
    flows = assemble_flows(pkts)
    assert len(flows) == 2
    assert flows[0].expiry_reason == FIN_RST


def test_unordered_input_is_sorted_stably():
    pkts = [
        udp_packet(2_000_000, "10.0.0.1", 1, "10.0.0.2", 2),
        udp_packet(1_000_000, "10.0.0.1", 1, "10.0.0.2", 2),
    ]
    flows = assemble_flows(pkts)
    assert len(flows) == 1
    assert flows[0].first_ts == 1_000_000


def test_direction_partition_and_assignment(simple_tcp_stream):
    flows = assemble_flows(simple_tcp_stream)
    total = sum(f.packet_count() for f in flows)
    assert total == len(simple_tcp_stream)
    for f in flows:
        assert len(f.fwd_packets) + len(f.bwd_packets) == f.packet_count()
        assert f.fwd_packets, "a flow starts with its first forward packet"
        assert f.first_ts <= f.last_ts
        for _, p in f.packets:
            assert f.first_ts <= p.ts_micros <= f.last_ts


def test_random_streams_every_packet_assigned_once():
    rng = np.random.Generator(np.random.PCG64(5))
    pkts = []
    t = 0
    for _ in range(400):
        t += int(rng.integers(0, 3_000_000))
        a = f"10.0.{rng.integers(0, 3)}.{rng.integers(1, 5)}"
        b = f"10.1.{rng.integers(0, 3)}.{rng.integers(1, 5)}"
        pkts.append(udp_packet(t, a, int(rng.integers(1, 5)), b, int(rng.integers(1, 5)),
                               payload=int(rng.integers(0, 100))))
    flows = assemble_flows(pkts, idle_timeout=4)
    assert sum(f.packet_count() for f in flows) == len(pkts)
    assert sum(f.total_ip_bytes() for f in flows) == sum(p.ip_total_len for p in pkts)
    starts = [f.first_ts for f in flows]
    assert starts == sorted(starts)


# Few endpoints and half-second timestamps, so streams hold reused 5-tuples,
# tied timestamps, FIN/RST closes and both kinds of timeout.
ENDPOINTS = st.tuples(st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.0.3"]),
                      st.integers(1, 2))


@st.composite
def packets(draw):
    (src, sport), (dst, dport) = draw(ENDPOINTS), draw(ENDPOINTS)
    ts = draw(st.integers(0, 40)) * 500_000
    if draw(st.booleans()):
        flags = draw(st.sampled_from([0, SYN, ACK, FIN | ACK, RST]))
        return tcp_packet(ts, src, sport, dst, dport, flags=flags)
    return udp_packet(ts, src, sport, dst, dport)


@settings(max_examples=150)
@given(stream=st.lists(packets(), max_size=30), idle=st.sampled_from([1.0, 2.5, 5.0]),
       active=st.sampled_from([3.0, 10.0, 120.0]), data=st.data())
def test_assembly_invariants(stream, idle, active, data):
    flows = assemble_flows(stream, idle_timeout=idle, active_timeout=active)

    # Every packet lands in exactly one flow, as the record itself.
    assert sorted(id(p) for f in flows for _, p in f.packets) == sorted(map(id, stream))

    # Ordered by (first_ts, open order): a flow opens at its first packet of
    # the stably time-sorted stream.
    position = {id(p): i for i, p in enumerate(sorted(stream, key=lambda p: p.ts_micros))}
    opened = [position[id(f.packets[0][1])] for f in flows]
    assert opened == sorted(opened)

    idle_us, active_us = int(idle * 1_000_000), int(active * 1_000_000)
    for f in flows:
        times = [p.ts_micros for _, p in f.packets]
        assert (f.first_ts, f.last_ts) == (times[0], times[-1])
        assert all(0 <= b - a <= idle_us for a, b in zip(times, times[1:]))
        assert f.last_ts - f.first_ts <= active_us

    shuffled = data.draw(st.permutations(stream))
    assert (assemble_flows(shuffled, idle_timeout=idle, active_timeout=active)
            == assemble_flows(sorted(shuffled, key=lambda p: p.ts_micros),
                              idle_timeout=idle, active_timeout=active))


def _closing_index(flow):
    """Index of the packet that closes a TCP flow: an RST, or the FIN that
    completes FINs in both directions. None if no packet closes it."""
    fin_directions = set()
    for i, (forward, p) in enumerate(flow.packets):
        if p.protocol != 6:
            return None
        if p.tcp_flags & RST:
            return i
        if p.tcp_flags & FIN:
            fin_directions.add(forward)
            if len(fin_directions) == 2:
                return i
    return None


def _same_key(p, key):
    return p.protocol == key.protocol and (
        {(p.src_ip, p.src_port), (p.dst_ip, p.dst_port)}
        == {(key.ip_a, key.port_a), (key.ip_b, key.port_b)})


@settings(max_examples=150)
@given(stream=st.lists(packets(), max_size=30), idle=st.sampled_from([1.0, 2.5, 5.0]),
       active=st.sampled_from([3.0, 10.0, 120.0]))
def test_expiry_reason_matches_packets(stream, idle, active):
    flows = assemble_flows(stream, idle_timeout=idle, active_timeout=active)
    ordered = sorted(stream, key=lambda p: p.ts_micros)
    position = {id(p): i for i, p in enumerate(ordered)}
    idle_us, active_us = int(idle * 1_000_000), int(active * 1_000_000)
    for f in flows:
        # fin_rst exactly when the last packet closes the flow; a flow that
        # expired another way holds no closing packet at all.
        last = len(f.packets) - 1
        assert _closing_index(f) == (last if f.expiry_reason == FIN_RST else None)

        after = ordered[position[id(f.packets[last][1])] + 1:]
        following = next((p for p in after if _same_key(p, f.key)), None)
        if f.expiry_reason == END_OF_CAPTURE:
            assert following is None
        elif f.expiry_reason == IDLE_TIMEOUT:
            assert following.ts_micros - f.last_ts > idle_us
        elif f.expiry_reason == ACTIVE_TIMEOUT:
            assert following.ts_micros - f.first_ts > active_us
