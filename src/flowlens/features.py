"""Per-flow feature vectors for the two shipped schemas.

Builders return values keyed by column name, in the schema's column order;
:func:`vector_for` checks the names and their order and fails loudly on any
mismatch, so the manifest stays the single source of truth for what a feature
CSV contains.
"""

from __future__ import annotations

import math

from .flows import DEFAULT_ACTIVITY_TIMEOUT, FlowRecord
from .pcap import ACK, CWR, ECE, FIN, PROTO_TCP, PSH, RST, SYN, URG, PacketRecord
from .schema import FeatureSchema, SchemaError

# Well-known service ports to application codes (HTTP, TLS, DNS, FTP, SSH).
# Deep packet inspection is out of scope; unknown ports map to 0.
L7_PORT_CODES = {80: 7, 443: 91, 53: 5, 21: 1, 22: 92}


def _stats(values: list) -> tuple[float, float, float, float]:
    """(min, max, mean, population std); zeros for an empty list."""
    if not values:
        return 0.0, 0.0, 0.0, 0.0
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return float(min(values)), float(max(values)), mean, math.sqrt(var)


def _iats(timestamps: list[int]) -> list[int]:
    return [b - a for a, b in zip(timestamps, timestamps[1:])]


def _rate(amount: float, duration_us: int) -> float:
    if duration_us <= 0:
        return 0.0
    return amount / (duration_us / 1_000_000.0)


def _l7_proto(port_a: int, port_b: int) -> int:
    return L7_PORT_CODES.get(port_b, L7_PORT_CODES.get(port_a, 0))


def vector_for(schema: FeatureSchema, values: dict) -> list:
    """The values of a name->value mapping, which must hold exactly the
    schema's columns in the schema's order."""
    names = schema.column_names
    if list(values) == names:
        return list(values.values())
    missing = [name for name in names if name not in values]
    if missing:
        raise SchemaError(f"feature builder missing columns: {missing}")
    extra = sorted(set(values) - set(names))
    if extra:
        raise SchemaError(f"feature builder produced unknown columns: {extra}")
    raise SchemaError("feature builder produced the columns out of schema order")


# --- exporter-style counters (netflow_v2_style) -----------------------------

def compute_netflow_features(flow: FlowRecord, schema: FeatureSchema) -> list:
    key = flow.key
    fwd = flow.fwd_packets
    bwd = flow.bwd_packets
    everything = flow.packets
    duration_us = flow.last_ts - flow.first_ts

    in_bytes = sum(p.ip_total_len for p in fwd)
    out_bytes = sum(p.ip_total_len for p in bwd)
    sizes = [p.ip_total_len for p in everything]
    ttls = [p.ttl for p in everything]

    def or_flags(pkts: list[PacketRecord]) -> int:
        acc = 0
        for p in pkts:
            acc |= p.tcp_flags
        return acc

    def dir_duration_ms(pkts: list[PacketRecord]) -> int:
        if len(pkts) < 2:
            return 0
        return (pkts[-1].ts_micros - pkts[0].ts_micros) // 1000

    hist = [0, 0, 0, 0, 0]
    for s in sizes:
        if s <= 128:
            hist[0] += 1
        elif s <= 256:
            hist[1] += 1
        elif s <= 512:
            hist[2] += 1
        elif s <= 1024:
            hist[3] += 1
        else:
            hist[4] += 1

    values = {
        "FLOW_ID": key.flow_id(),
        "TIMESTAMP": flow.first_ts,
        "IPV4_SRC_ADDR": key.ip_a,
        "L4_SRC_PORT": key.port_a,
        "IPV4_DST_ADDR": key.ip_b,
        "L4_DST_PORT": key.port_b,
        "PROTOCOL": key.protocol,
        "L7_PROTO": _l7_proto(key.port_a, key.port_b),
        "IN_BYTES": in_bytes,
        "IN_PKTS": len(fwd),
        "OUT_BYTES": out_bytes,
        "OUT_PKTS": len(bwd),
        "TCP_FLAGS": or_flags(everything),
        "CLIENT_TCP_FLAGS": or_flags(fwd),
        "SERVER_TCP_FLAGS": or_flags(bwd),
        "FLOW_DURATION_MILLISECONDS": duration_us // 1000,
        "DURATION_IN": dir_duration_ms(fwd),
        "DURATION_OUT": dir_duration_ms(bwd),
        "MIN_TTL": min(ttls),
        "MAX_TTL": max(ttls),
        "LONGEST_FLOW_PKT": max(sizes),
        "SHORTEST_FLOW_PKT": min(sizes),
        "MIN_IP_PKT_LEN": min(sizes),
        "MAX_IP_PKT_LEN": max(sizes),
        "SRC_TO_DST_SECOND_BYTES": _rate(in_bytes, duration_us),
        "DST_TO_SRC_SECOND_BYTES": _rate(out_bytes, duration_us),
        # Retransmission detection needs TCP sequence tracking, which packet
        # records do not carry; columns stay for schema parity.
        "RETRANSMITTED_IN_BYTES": 0,
        "RETRANSMITTED_IN_PKTS": 0,
        "RETRANSMITTED_OUT_BYTES": 0,
        "RETRANSMITTED_OUT_PKTS": 0,
        "SRC_TO_DST_AVG_THROUGHPUT": _rate(in_bytes * 8, duration_us),
        "DST_TO_SRC_AVG_THROUGHPUT": _rate(out_bytes * 8, duration_us),
        "NUM_PKTS_UP_TO_128_BYTES": hist[0],
        "NUM_PKTS_128_TO_256_BYTES": hist[1],
        "NUM_PKTS_256_TO_512_BYTES": hist[2],
        "NUM_PKTS_512_TO_1024_BYTES": hist[3],
        "NUM_PKTS_1024_TO_1514_BYTES": hist[4],
        "TCP_WIN_MAX_IN": max((p.tcp_window for p in fwd), default=0),
        "TCP_WIN_MAX_OUT": max((p.tcp_window for p in bwd), default=0),
        # ICMP type/code and payload-derived fields are not observable from
        # the decoded header set; kept at 0 for schema parity.
        "ICMP_TYPE": 0,
        "ICMP_IPV4_TYPE": 0,
        "DNS_QUERY_ID": 0,
        "DNS_QUERY_TYPE": 0,
        "DNS_TTL_ANSWER": 0,
        "FTP_COMMAND_RET_CODE": 0,
    }
    return vector_for(schema, values)


# --- statistical aggregates (cic_style) --------------------------------------

class _BulkTracker:
    """Bulk transfer detector: runs of >=4 payload packets with <=1 s gaps.

    A bulk run in one direction resets when the other direction starts its
    own run, mirroring the reference flow meter behaviour.
    """

    GAP_US = 1_000_000
    MIN_PACKETS = 4

    def __init__(self):
        self.duration = 0
        self.packet_count = 0
        self.size_total = 0
        self.state_count = 0
        self._count_helper = 0
        self._start_helper = 0
        self._size_helper = 0
        self.last_ts = 0

    def update(self, ts: int, payload: int, other_last_bulk_ts: int):
        if other_last_bulk_ts > self._start_helper:
            self._start_helper = 0
        if payload <= 0:
            return
        if self._start_helper == 0 or ts - self.last_ts > self.GAP_US:
            self._start_helper = ts
            self._count_helper = 1
            self._size_helper = payload
            self.last_ts = ts
            return
        self._count_helper += 1
        self._size_helper += payload
        if self._count_helper == self.MIN_PACKETS:
            self.state_count += 1
            self.packet_count += self._count_helper
            self.size_total += self._size_helper
            self.duration += ts - self._start_helper
        elif self._count_helper > self.MIN_PACKETS:
            self.packet_count += 1
            self.size_total += payload
            self.duration += ts - self.last_ts
        self.last_ts = ts

    def bytes_per_bulk(self) -> float:
        return self.size_total / self.state_count if self.state_count else 0.0

    def packets_per_bulk(self) -> float:
        return self.packet_count / self.state_count if self.state_count else 0.0

    def bulk_rate(self) -> float:
        return _rate(self.size_total, self.duration)


def _active_idle_periods(timestamps: list[int], activity_us: int) -> tuple[list[int], list[int]]:
    """Active spans between gaps and the idle gaps exceeding the threshold."""
    active: list[int] = []
    idle: list[int] = []
    start = end = timestamps[0]
    for ts in timestamps[1:]:
        if ts - end > activity_us:
            if end - start > 0:
                active.append(end - start)
            idle.append(ts - end)
            start = ts
        end = ts
    if end - start > 0:
        active.append(end - start)
    return active, idle


def compute_cic_features(
    flow: FlowRecord,
    schema: FeatureSchema,
    activity_timeout: float = DEFAULT_ACTIVITY_TIMEOUT,
) -> list:
    key = flow.key
    fwd = flow.fwd_packets
    bwd = flow.bwd_packets
    ordered = flow.packets
    duration_us = flow.last_ts - flow.first_ts

    fwd_payloads = [p.payload_len for p in fwd]
    bwd_payloads = [p.payload_len for p in bwd]
    all_payloads = [p.payload_len for p in ordered]

    fwd_pl_min, fwd_pl_max, fwd_pl_mean, fwd_pl_std = _stats(fwd_payloads)
    bwd_pl_min, bwd_pl_max, bwd_pl_mean, bwd_pl_std = _stats(bwd_payloads)
    pl_min, pl_max, pl_mean, pl_std = _stats(all_payloads)

    flow_iats = _iats([p.ts_micros for p in ordered])
    fwd_iats = _iats([p.ts_micros for p in fwd])
    bwd_iats = _iats([p.ts_micros for p in bwd])
    fiat_min, fiat_max, fiat_mean, fiat_std = _stats(flow_iats)
    fwiat_min, fwiat_max, fwiat_mean, fwiat_std = _stats(fwd_iats)
    bwiat_min, bwiat_max, bwiat_mean, bwiat_std = _stats(bwd_iats)

    def flag_count(bit: int, pkts: list[PacketRecord]) -> int:
        return sum(1 for p in pkts if p.tcp_flags & bit)

    fwd_bulk, bwd_bulk = _BulkTracker(), _BulkTracker()
    for is_fwd, p in zip(flow.forward, ordered):
        if is_fwd:
            fwd_bulk.update(p.ts_micros, p.payload_len, bwd_bulk.last_ts)
        else:
            bwd_bulk.update(p.ts_micros, p.payload_len, fwd_bulk.last_ts)

    # Subflow boundaries: gaps over one second, per the reference meter.
    subflows = sum(1 for gap in flow_iats if gap > 1_000_000)

    active, idle = _active_idle_periods(
        [p.ts_micros for p in ordered], int(activity_timeout * 1_000_000)
    )
    act_min, act_max, act_mean, act_std = _stats(active)
    idl_min, idl_max, idl_mean, idl_std = _stats(idle)

    is_tcp = key.protocol == PROTO_TCP

    values = {
        "Flow ID": key.flow_id(),
        "Src IP": key.ip_a,
        "Src Port": key.port_a,
        "Dst IP": key.ip_b,
        "Dst Port": key.port_b,
        "Timestamp": flow.first_ts,
        "Protocol": key.protocol,
        "Flow Duration": duration_us,
        "Total Fwd Packet": len(fwd),
        "Total Bwd packets": len(bwd),
        "Total Length of Fwd Packet": sum(fwd_payloads),
        "Total Length of Bwd Packet": sum(bwd_payloads),
        "Fwd Packet Length Max": fwd_pl_max,
        "Fwd Packet Length Min": fwd_pl_min,
        "Fwd Packet Length Mean": fwd_pl_mean,
        "Fwd Packet Length Std": fwd_pl_std,
        "Bwd Packet Length Max": bwd_pl_max,
        "Bwd Packet Length Min": bwd_pl_min,
        "Bwd Packet Length Mean": bwd_pl_mean,
        "Bwd Packet Length Std": bwd_pl_std,
        "Flow Bytes/s": _rate(sum(all_payloads), duration_us),
        "Flow Packets/s": _rate(len(ordered), duration_us),
        "Flow IAT Mean": fiat_mean,
        "Flow IAT Std": fiat_std,
        "Flow IAT Max": fiat_max,
        "Flow IAT Min": fiat_min,
        "Fwd IAT Total": sum(fwd_iats),
        "Fwd IAT Mean": fwiat_mean,
        "Fwd IAT Std": fwiat_std,
        "Fwd IAT Max": fwiat_max,
        "Fwd IAT Min": fwiat_min,
        "Bwd IAT Total": sum(bwd_iats),
        "Bwd IAT Mean": bwiat_mean,
        "Bwd IAT Std": bwiat_std,
        "Bwd IAT Max": bwiat_max,
        "Bwd IAT Min": bwiat_min,
        "Fwd PSH Flags": flag_count(PSH, fwd),
        "Bwd PSH Flags": flag_count(PSH, bwd),
        "Fwd URG Flags": flag_count(URG, fwd),
        "Bwd URG Flags": flag_count(URG, bwd),
        "Fwd Header Length": sum(p.l4_header_len for p in fwd),
        "Bwd Header Length": sum(p.l4_header_len for p in bwd),
        "Fwd Packets/s": _rate(len(fwd), duration_us),
        "Bwd Packets/s": _rate(len(bwd), duration_us),
        "Packet Length Min": pl_min,
        "Packet Length Max": pl_max,
        "Packet Length Mean": pl_mean,
        "Packet Length Std": pl_std,
        "Packet Length Variance": pl_std**2,
        "FIN Flag Count": flag_count(FIN, ordered),
        "SYN Flag Count": flag_count(SYN, ordered),
        "RST Flag Count": flag_count(RST, ordered),
        "PSH Flag Count": flag_count(PSH, ordered),
        "ACK Flag Count": flag_count(ACK, ordered),
        "URG Flag Count": flag_count(URG, ordered),
        "CWR Flag Count": flag_count(CWR, ordered),
        "ECE Flag Count": flag_count(ECE, ordered),
        "Down/Up Ratio": len(bwd) / len(fwd) if fwd else 0.0,
        "Average Packet Size": sum(all_payloads) / len(ordered),
        "Fwd Segment Size Avg": sum(fwd_payloads) / len(fwd) if fwd else 0.0,
        "Bwd Segment Size Avg": sum(bwd_payloads) / len(bwd) if bwd else 0.0,
        "Fwd Bytes/Bulk Avg": fwd_bulk.bytes_per_bulk(),
        "Fwd Packet/Bulk Avg": fwd_bulk.packets_per_bulk(),
        "Fwd Bulk Rate Avg": fwd_bulk.bulk_rate(),
        "Bwd Bytes/Bulk Avg": bwd_bulk.bytes_per_bulk(),
        "Bwd Packet/Bulk Avg": bwd_bulk.packets_per_bulk(),
        "Bwd Bulk Rate Avg": bwd_bulk.bulk_rate(),
        "Subflow Fwd Packets": len(fwd) / subflows if subflows else 0.0,
        "Subflow Fwd Bytes": sum(fwd_payloads) / subflows if subflows else 0.0,
        "Subflow Bwd Packets": len(bwd) / subflows if subflows else 0.0,
        "Subflow Bwd Bytes": sum(bwd_payloads) / subflows if subflows else 0.0,
        "FWD Init Win Bytes": fwd[0].tcp_window if fwd and is_tcp else 0,
        "Bwd Init Win Bytes": bwd[0].tcp_window if bwd and is_tcp else 0,
        "Fwd Act Data Pkts": sum(1 for p in fwd if p.payload_len >= 1),
        "Fwd Seg Size Min": min(fwd_payloads) if fwd_payloads else 0,
        "Active Mean": act_mean,
        "Active Std": act_std,
        "Active Max": act_max,
        "Active Min": act_min,
        "Idle Mean": idl_mean,
        "Idle Std": idl_std,
        "Idle Max": idl_max,
        "Idle Min": idl_min,
    }
    return vector_for(schema, values)


def compute_features(
    flow: FlowRecord,
    schema: FeatureSchema,
    activity_timeout: float = DEFAULT_ACTIVITY_TIMEOUT,
) -> list:
    """Dispatch on schema name."""
    if schema.name == "netflow_v2_style":
        return compute_netflow_features(flow, schema)
    if schema.name == "cic_style":
        return compute_cic_features(flow, schema, activity_timeout)
    raise SchemaError(f"no feature builder for schema {schema.name!r}")
