"""Feature vectors: worked examples computed by hand, plus the ordering,
conservation, determinism, and direction-symmetry invariants."""

import numpy as np
import pytest

from flowlens import pcap
from flowlens.dataset import write_feature_csv
from flowlens.features import (compute_cic_features, compute_features,
                               compute_netflow_features, vector_for)
from flowlens.flows import assemble_flows
from flowlens.schema import IDENTIFIER, SchemaError, load_schema
from flowlens.synth import ScenarioParams, generate_scenario
from conftest import make_flow, tcp_packet

NF = load_schema("netflow_v2")
CIC = load_schema("cic")


def nf_dict(flow):
    return dict(zip(NF.column_names, compute_netflow_features(flow, NF)))


def cic_dict(flow, activity_timeout=5.0):
    return dict(zip(CIC.column_names, compute_cic_features(flow, CIC, activity_timeout)))


def test_schema_widths():
    assert NF.width() == 45  # 43 exporter columns + flow id + timestamp
    assert len(NF.learnable_names) == 39
    assert CIC.width() == 83
    assert len(CIC.learnable_names) == 77
    assert {c.name for c in NF.columns if c.kind == IDENTIFIER} == {
        "FLOW_ID", "TIMESTAMP", "IPV4_SRC_ADDR", "L4_SRC_PORT",
        "IPV4_DST_ADDR", "L4_DST_PORT",
    }
    assert {c.name for c in CIC.columns if c.kind == IDENTIFIER} == {
        "Flow ID", "Src IP", "Src Port", "Dst IP", "Dst Port", "Timestamp",
    }


def test_vector_for_needs_the_schema_columns_in_order():
    values = {name: j for j, name in enumerate(NF.column_names)}
    assert vector_for(NF, values) == list(range(NF.width()))
    reordered = dict(reversed(list(values.items())))
    with pytest.raises(SchemaError, match="order"):
        vector_for(NF, reordered)
    with pytest.raises(SchemaError, match="missing.*'TIMESTAMP'"):
        vector_for(NF, {k: v for k, v in values.items() if k != "TIMESTAMP"})
    with pytest.raises(SchemaError, match="unknown.*'extra'"):
        vector_for(NF, {**values, "extra": 0})


def test_single_forward_packet_netflow():
    # one 60-byte TCP packet, window 8192
    flow = make_flow([(1_000_000, 60, 0, 20, 0x02, 8192, 64)])
    d = nf_dict(flow)
    assert d["FLOW_DURATION_MILLISECONDS"] == 0
    assert d["LONGEST_FLOW_PKT"] == 60 and d["SHORTEST_FLOW_PKT"] == 60
    assert d["TCP_WIN_MAX_IN"] == 8192 and d["TCP_WIN_MAX_OUT"] == 0
    assert d["IN_PKTS"] == 1 and d["OUT_PKTS"] == 0
    assert d["SRC_TO_DST_SECOND_BYTES"] == 0  # zero duration, by convention


def test_ttl_extrema():
    flow = make_flow(
        [(0, 60, 0, 20, 0, 0, 64), (1, 60, 0, 20, 0, 0, 63)],
        [(2, 60, 0, 20, 0, 0, 128)],
        protocol=17,
    )
    d = nf_dict(flow)
    assert d["MIN_TTL"] == 63 and d["MAX_TTL"] == 128


def test_directional_byte_and_packet_counts():
    # 3 fwd packets of 100 B at t = 0, 1, 2 s; 1 bwd of 40 B
    flow = make_flow(
        [(0, 100, 60, 20, 0, 0, 64), (1_000_000, 100, 60, 20, 0, 0, 64),
         (2_000_000, 100, 60, 20, 0, 0, 64)],
        [(500_000, 40, 0, 20, 0, 0, 64)],
        protocol=17,
    )
    d = nf_dict(flow)
    assert d["IN_BYTES"] == 300 and d["OUT_BYTES"] == 40
    assert d["IN_PKTS"] == 3 and d["OUT_PKTS"] == 1
    assert d["FLOW_DURATION_MILLISECONDS"] == 2000


def test_l7_proto_port_map():
    from flowlens.flows import FlowKey

    assert nf_dict(make_flow([(0, 40, 0, 20, 0, 0, 64)]))["L7_PROTO"] == 7  # port 80
    dns = make_flow([(0, 28, 0, 8, 0, 0, 64)], protocol=17,
                    key=FlowKey("10.0.0.1", 5353, "10.0.0.2", 53, 17))
    assert nf_dict(dns)["L7_PROTO"] == 5
    unknown = make_flow([(0, 28, 0, 8, 0, 0, 64)], protocol=17,
                        key=FlowKey("10.0.0.1", 999, "10.0.0.2", 4444, 17))
    assert nf_dict(unknown)["L7_PROTO"] == 0


def test_cumulative_flag_or_per_direction():
    flow = make_flow(
        [(0, 40, 0, 20, pcap.SYN, 100, 64), (10, 40, 0, 20, pcap.ACK | pcap.PSH, 100, 64)],
        [(5, 40, 0, 20, pcap.SYN | pcap.ACK, 200, 64)],
    )
    d = nf_dict(flow)
    assert d["CLIENT_TCP_FLAGS"] == pcap.SYN | pcap.ACK | pcap.PSH
    assert d["SERVER_TCP_FLAGS"] == pcap.SYN | pcap.ACK
    assert d["TCP_FLAGS"] == pcap.SYN | pcap.ACK | pcap.PSH


def test_packet_size_histogram():
    sizes = [60, 128, 129, 300, 600, 1200, 1514]
    flow = make_flow([(i, s, 0, 20, 0, 0, 64) for i, s in enumerate(sizes)])
    d = nf_dict(flow)
    assert d["NUM_PKTS_UP_TO_128_BYTES"] == 2
    assert d["NUM_PKTS_128_TO_256_BYTES"] == 1
    assert d["NUM_PKTS_256_TO_512_BYTES"] == 1
    assert d["NUM_PKTS_512_TO_1024_BYTES"] == 1
    assert d["NUM_PKTS_1024_TO_1514_BYTES"] == 2


def test_fwd_iat_statistics():
    # 3 fwd packets at t = 0, 1, 2 s
    flow = make_flow(
        [(0, 100, 50, 20, 0, 0, 64), (1_000_000, 100, 50, 20, 0, 0, 64),
         (2_000_000, 100, 50, 20, 0, 0, 64)]
    )
    d = cic_dict(flow)
    assert d["Fwd IAT Mean"] == 1_000_000
    assert d["Fwd IAT Min"] == 1_000_000
    assert d["Fwd IAT Std"] == 0
    assert d["Fwd IAT Total"] == 2_000_000


def test_single_packet_flow_degenerate_statistics():
    flow = make_flow([(5_000_000, 60, 20, 20, 0, 0, 64)])
    d = cic_dict(flow)
    for col in ("Flow IAT Mean", "Fwd IAT Mean", "Bwd IAT Mean", "Active Mean",
                "Idle Mean", "Flow Packets/s", "Flow Bytes/s", "Fwd Packets/s"):
        assert d[col] == 0, col


def test_syn_flag_count_both_directions():
    flow = make_flow(
        [(0, 40, 0, 20, pcap.SYN, 100, 64)],
        [(10, 40, 0, 20, pcap.SYN | pcap.ACK, 100, 64)],
    )
    d = cic_dict(flow)
    assert d["SYN Flag Count"] == 2
    assert d["ACK Flag Count"] == 1


def test_fwd_seg_size_min_is_minimum_forward_payload():
    flow = make_flow(
        [(0, 140, 100, 20, 0, 0, 64), (10, 60, 20, 20, 0, 0, 64), (20, 90, 50, 20, 0, 0, 64)]
    )
    assert cic_dict(flow)["Fwd Seg Size Min"] == 20


def test_active_idle_periods():
    # gaps: 1 s, 12 s (idle), 1 s -> two active spans of 1 s each, one idle gap
    ts = [0, 1_000_000, 13_000_000, 14_000_000]
    flow = make_flow([(t, 60, 10, 20, 0, 0, 64) for t in ts])
    d = cic_dict(flow, activity_timeout=5.0)
    assert d["Idle Mean"] == 12_000_000 and d["Idle Max"] == 12_000_000
    assert d["Active Mean"] == 1_000_000 and d["Active Max"] == 1_000_000
    assert d["Active Std"] == 0


def test_header_lengths_and_init_windows():
    flow = make_flow(
        [(0, 60, 0, 32, pcap.SYN, 4096, 64), (10, 52, 0, 20, pcap.ACK, 8192, 64)],
        [(5, 60, 0, 28, pcap.SYN | pcap.ACK, 1024, 64)],
    )
    d = cic_dict(flow)
    assert d["Fwd Header Length"] == 52
    assert d["Bwd Header Length"] == 28
    assert d["FWD Init Win Bytes"] == 4096
    assert d["Bwd Init Win Bytes"] == 1024


def test_ordering_invariants_on_random_flows():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(50):
        n_fwd = int(rng.integers(1, 8))
        n_bwd = int(rng.integers(0, 8))
        mk = lambda t: (t, int(rng.integers(40, 1500)), int(rng.integers(0, 1000)),
                        20, int(rng.integers(0, 64)), int(rng.integers(0, 65535)),
                        int(rng.integers(1, 255)))
        ts = np.sort(rng.integers(0, 30_000_000, size=n_fwd + n_bwd))
        flow = make_flow([mk(int(t)) for t in ts[:n_fwd]],
                         [mk(int(t)) for t in ts[n_fwd:]])
        nd = nf_dict(flow)
        assert nd["SHORTEST_FLOW_PKT"] <= nd["LONGEST_FLOW_PKT"]
        assert nd["MIN_TTL"] <= nd["MAX_TTL"]
        assert nd["MIN_IP_PKT_LEN"] <= nd["MAX_IP_PKT_LEN"]
        cd = cic_dict(flow)
        for fam in ("Flow IAT", "Fwd IAT", "Bwd IAT"):
            assert cd[f"{fam} Min"] <= cd[f"{fam} Mean"] <= cd[f"{fam} Max"]
        assert cd["Packet Length Min"] <= cd["Packet Length Mean"] <= cd["Packet Length Max"]


def test_conservation_of_bytes_over_scenario():
    packets, _ = generate_scenario(ScenarioParams(benign_http=20, benign_dns=10,
                                                  flood_flows=15, dos_flows=5, seed=3))
    flows = assemble_flows(packets)
    total_in_out = 0
    for flow in flows:
        d = nf_dict(flow)
        total_in_out += d["IN_BYTES"] + d["OUT_BYTES"]
    assert total_in_out == sum(p.ip_total_len for p in packets)


def _extract_csv_bytes(packets, schema, path) -> bytes:
    flows = assemble_flows(packets)
    write_feature_csv(path, schema, [compute_features(f, schema) for f in flows])
    return path.read_bytes()


def test_extraction_is_deterministic(tmp_path):
    packets, _ = generate_scenario(ScenarioParams(benign_http=10, benign_dns=5,
                                                  flood_flows=10, dos_flows=3, seed=9))
    for schema in (NF, CIC):
        assert (_extract_csv_bytes(packets, schema, tmp_path / "first.csv")
                == _extract_csv_bytes(packets, schema, tmp_path / "second.csv"))


SWAP_PAIRS_NF = [
    ("IN_BYTES", "OUT_BYTES"), ("IN_PKTS", "OUT_PKTS"),
    ("CLIENT_TCP_FLAGS", "SERVER_TCP_FLAGS"), ("DURATION_IN", "DURATION_OUT"),
    ("SRC_TO_DST_SECOND_BYTES", "DST_TO_SRC_SECOND_BYTES"),
    ("RETRANSMITTED_IN_BYTES", "RETRANSMITTED_OUT_BYTES"),
    ("RETRANSMITTED_IN_PKTS", "RETRANSMITTED_OUT_PKTS"),
    ("SRC_TO_DST_AVG_THROUGHPUT", "DST_TO_SRC_AVG_THROUGHPUT"),
    ("TCP_WIN_MAX_IN", "TCP_WIN_MAX_OUT"),
]

SWAP_PAIRS_CIC = [
    ("Total Fwd Packet", "Total Bwd packets"),
    ("Total Length of Fwd Packet", "Total Length of Bwd Packet"),
    ("Fwd Packet Length Max", "Bwd Packet Length Max"),
    ("Fwd Packet Length Min", "Bwd Packet Length Min"),
    ("Fwd Packet Length Mean", "Bwd Packet Length Mean"),
    ("Fwd Packet Length Std", "Bwd Packet Length Std"),
    ("Fwd IAT Total", "Bwd IAT Total"), ("Fwd IAT Mean", "Bwd IAT Mean"),
    ("Fwd IAT Std", "Bwd IAT Std"), ("Fwd IAT Max", "Bwd IAT Max"),
    ("Fwd IAT Min", "Bwd IAT Min"), ("Fwd PSH Flags", "Bwd PSH Flags"),
    ("Fwd URG Flags", "Bwd URG Flags"), ("Fwd Header Length", "Bwd Header Length"),
    ("Fwd Packets/s", "Bwd Packets/s"),
    ("Fwd Bytes/Bulk Avg", "Bwd Bytes/Bulk Avg"),
    ("Fwd Packet/Bulk Avg", "Bwd Packet/Bulk Avg"),
    ("Fwd Bulk Rate Avg", "Bwd Bulk Rate Avg"),
    ("Subflow Fwd Packets", "Subflow Bwd Packets"),
    ("Subflow Fwd Bytes", "Subflow Bwd Bytes"),
    ("FWD Init Win Bytes", "Bwd Init Win Bytes"),
    ("Fwd Segment Size Avg", "Bwd Segment Size Avg"),
]

# direction-sensitive columns with no mirror partner
CIC_UNPAIRED = {"Down/Up Ratio", "Fwd Act Data Pkts", "Fwd Seg Size Min"}
NF_UNPAIRED = {"L7_PROTO"}  # port map prefers the responder port


def _role_swapped_captures():
    """Two captures over the same alternating time grid: in the second, the
    replies come first (the other side speaks at each slot). Per-direction
    attribute sequences are preserved, so direction-split features must
    exchange exactly."""
    A = ("10.5.0.1", 999)
    B = ("10.5.0.2", 80)
    # (flags, window, payload, ttl) per packet of each role; 3 per side keeps
    # bulk features inactive so the exchange is exact everywhere.
    side_a = [(pcap.SYN, 4096, 0, 63), (pcap.PSH | pcap.ACK, 4096, 200, 63),
              (pcap.ACK, 4096, 40, 63)]
    side_b = [(pcap.SYN | pcap.ACK, 29200, 0, 127), (pcap.PSH | pcap.ACK, 29200, 900, 127),
              (pcap.PSH | pcap.ACK, 29200, 300, 127)]
    gap = 50_000

    def build(first, second, first_attrs, second_attrs):
        pkts = []
        for i in range(3):
            fl, w, pl, ttl = first_attrs[i]
            pkts.append(tcp_packet(2 * i * gap, first[0], first[1], second[0], second[1],
                                   flags=fl, window=w, payload=pl, ttl=ttl))
            fl, w, pl, ttl = second_attrs[i]
            pkts.append(tcp_packet((2 * i + 1) * gap, second[0], second[1], first[0], first[1],
                                   flags=fl, window=w, payload=pl, ttl=ttl))
        return pkts

    return build(A, B, side_a, side_b), build(B, A, side_b, side_a)


@pytest.mark.parametrize("schema,pairs,unpaired", [
    (NF, SWAP_PAIRS_NF, NF_UNPAIRED),
    (CIC, SWAP_PAIRS_CIC, CIC_UNPAIRED),
])
def test_direction_symmetry_swap(schema, pairs, unpaired):
    capture, swapped = _role_swapped_captures()
    flows_fwd = assemble_flows(capture)
    flows_rev = assemble_flows(swapped)
    assert len(flows_fwd) == len(flows_rev) == 1
    assert (flows_fwd[0].key.ip_a, flows_fwd[0].key.port_a) == ("10.5.0.1", 999)
    assert (flows_rev[0].key.ip_a, flows_rev[0].key.port_a) == ("10.5.0.2", 80)
    d1 = dict(zip(schema.column_names, compute_features(flows_fwd[0], schema)))
    d2 = dict(zip(schema.column_names, compute_features(flows_rev[0], schema)))
    paired = set()
    for a, b in pairs:
        assert d1[a] == d2[b], f"{a} should swap into {b}"
        assert d1[b] == d2[a], f"{b} should swap into {a}"
        paired |= {a, b}
    for col in schema.learnable_names:
        if col not in paired and col not in unpaired:
            assert d1[col] == d2[col], f"{col} should be direction-neutral"
