"""Synthetic capture generator: benign request/response traffic mixed with
two attack behaviours, plus the matching ground-truth events.

The generator is its own oracle: attack flows are separable from benign ones
by construction (flag patterns for the half-open flood, inter-arrival rates
for the repetitive DoS), while packet counts, sizes, and durations overlap
across classes so the separating signal lives in the flag and rate families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import GroundTruthEvent
from .pcap import ACK, FIN, PROTO_TCP, PROTO_UDP, PSH, SYN, PacketRecord

FLOOD_VICTIM = "10.0.9.9"
DOS_VICTIM = "10.0.9.10"
FLOOD_CATEGORY = "SynFlood"
DOS_CATEGORY = "Dos"

_US = 1_000_000


@dataclass
class ScenarioParams:
    benign_http: int = 150
    benign_dns: int = 70
    flood_flows: int = 160
    dos_flows: int = 70
    seed: int = 7


_TTLS = (63, 64, 127, 128)
_DOS_TTLS = (63, 64)
_SERVICE_PORTS = (80, 443, 22)


def _pick(rng, options: tuple[int, ...]) -> int:
    """The draw of ``rng.choice(options)``, without building an array."""
    return options[int(rng.integers(0, len(options)))]


def _tcp(ts, src, sport, dst, dport, ttl, payload, flags, window):
    return PacketRecord(int(ts), src, dst, sport, dport, PROTO_TCP, ttl, 40 + payload, 20,
                        payload, flags, window)


def _udp(ts, src, sport, dst, dport, ttl, payload):
    return PacketRecord(int(ts), src, dst, sport, dport, PROTO_UDP, ttl, 28 + payload, 8,
                        payload, 0, 0)


def _benign_http_flow(rng, start, client, cport, server, sport) -> list[PacketRecord]:
    cttl = _pick(rng, _TTLS)
    sttl = _pick(rng, _TTLS)
    cwin = int(rng.integers(8192, 65535))
    swin = int(rng.integers(8192, 65535))
    gap = lambda: int(rng.integers(5_000, 80_000))
    t = start
    pkts = [_tcp(t, client, cport, server, sport, cttl, 0, SYN, cwin)]
    t += gap()
    pkts.append(_tcp(t, server, sport, client, cport, sttl, 0, SYN | ACK, swin))
    t += gap()
    pkts.append(_tcp(t, client, cport, server, sport, cttl, 0, ACK, cwin))
    t += gap()
    pkts.append(_tcp(t, client, cport, server, sport, cttl, int(rng.integers(80, 700)), PSH | ACK, cwin))
    for _ in range(int(rng.integers(1, 4))):
        t += gap()
        pkts.append(_tcp(t, server, sport, client, cport, sttl, int(rng.integers(200, 1400)), PSH | ACK, swin))
    t += gap()
    pkts.append(_tcp(t, client, cport, server, sport, cttl, 0, ACK, cwin))
    t += gap()
    pkts.append(_tcp(t, client, cport, server, sport, cttl, 0, FIN | ACK, cwin))
    t += gap()
    pkts.append(_tcp(t, server, sport, client, cport, sttl, 0, FIN | ACK, swin))
    t += gap()
    pkts.append(_tcp(t, client, cport, server, sport, cttl, 0, ACK, cwin))
    return pkts


def _benign_dns_flow(rng, start, client, cport, server) -> list[PacketRecord]:
    # Tiny two-packet exchanges keep packet counts and durations overlapping
    # with the short attack flows.
    ttl = _pick(rng, _TTLS)
    reply_gap = int(rng.integers(800, 30_000))
    return [
        _udp(start, client, cport, server, 53, ttl, int(rng.integers(20, 60))),
        _udp(start + reply_gap, server, 53, client, cport, 64, int(rng.integers(40, 220))),
    ]


def _flood_flow(rng, start, src, sport) -> list[PacketRecord]:
    ttl = _pick(rng, _TTLS)
    pkts = [_tcp(start, src, sport, FLOOD_VICTIM, 80, ttl, 0, SYN, int(rng.integers(512, 4096)))]
    if rng.random() < 0.3:
        pkts.append(
            _tcp(start + int(rng.integers(200, 2_000)), FLOOD_VICTIM, 80, src, sport, 64, 0,
                 SYN | ACK, 8192)
        )
    return pkts


def _dos_flow(rng, start, src, sport) -> list[PacketRecord]:
    ttl = _pick(rng, _DOS_TTLS)
    win = int(rng.integers(8192, 32768))
    n = int(rng.integers(30, 60))
    iat = int(rng.integers(200, 600))  # constant per flow: thousands of packets/s
    payload = int(rng.integers(400, 900))  # repeated identical size
    pkts = []
    t = start
    for _ in range(n):
        pkts.append(_tcp(t, src, sport, DOS_VICTIM, 80, ttl, payload, PSH | ACK, win))
        t += iat
    pkts.append(_tcp(t, DOS_VICTIM, 80, src, sport, 64, 0, ACK, 1024))
    return pkts


def generate_scenario(params: ScenarioParams | None = None) -> tuple[list[PacketRecord], list[GroundTruthEvent]]:
    """Packets (time-ordered) and ground-truth events for the mixed scenario."""
    if params is None:
        params = ScenarioParams()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([params.seed])))
    packets: list[PacketRecord] = []

    flood_window = (120 * _US, 180 * _US)
    dos_window = (300 * _US, 420 * _US)

    for i in range(params.benign_http):
        start = int(rng.integers(0, 600 * _US))
        client = f"10.0.1.{1 + i % 40}"
        server = f"10.0.2.{1 + i % 6}"
        sport = _pick(rng, _SERVICE_PORTS)
        packets.extend(_benign_http_flow(rng, start, client, 20_000 + i, server, sport))

    for i in range(params.benign_dns):
        start = int(rng.integers(0, 600 * _US))
        client = f"10.0.1.{1 + i % 40}"
        server = f"10.0.2.{1 + i % 6}"
        packets.extend(_benign_dns_flow(rng, start, client, 30_000 + i, server))

    for i in range(params.flood_flows):
        start = int(rng.integers(flood_window[0], flood_window[1] - 2 * _US))
        src = f"10.9.{1 + i % 200}.{1 + i % 250}"
        packets.extend(_flood_flow(rng, start, src, 40_000 + i))

    for i in range(params.dos_flows):
        start = int(rng.integers(dos_window[0], dos_window[1] - 2 * _US))
        src = f"10.9.9.{1 + i % 5}"
        packets.extend(_dos_flow(rng, start, src, 50_000 + i))

    packets.sort(key=lambda p: p.ts_micros)
    events = [
        GroundTruthEvent(None, FLOOD_VICTIM, PROTO_TCP, flood_window[0], flood_window[1],
                         FLOOD_CATEGORY),
        GroundTruthEvent(None, DOS_VICTIM, PROTO_TCP, dos_window[0], dos_window[1],
                         DOS_CATEGORY),
    ]
    return packets, events
