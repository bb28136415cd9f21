"""Synthetic trace construction: the workload mixes of the evaluation.

The paper replays two packet traces — a university-to-cloud trace [24]
and a data-center trace [19] — which we cannot redistribute. These
builders generate seeded synthetic equivalents with the characteristics
the evaluation actually depends on:

* a configurable number of concurrently active flows (moves operate on
  "state for 500 flows");
* an HTTP fraction with full request/response structure, some carrying
  known-malware bodies and some sent by outdated browsers (the IDS
  scenarios of §6 and §8.4);
* a long-tailed flow-duration distribution (~9 % of HTTP flows longer
  than 25 minutes drives the §8.4 scale-in result);
* port scans from external hosts (multi-flow scan counters).

A trace is an ordered list of :class:`~repro.traffic.generator.FlowBlueprint`
interleaved round-robin so all flows stay simultaneously active — the
situation a mid-trace move must cope with.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.flowspace.fivetuple import FiveTuple
from repro.sim.rng import derive_rng
from repro.traffic.generator import FlowBlueprint, PacketBlueprint, http_exchange, port_scan, tcp_flow

OUTDATED_AGENT = "Mozilla/4.0 (compatible; MSIE 6.0)"
MODERN_AGENT = "Mozilla/5.0 (X11; Linux x86_64) Gecko/2010"

#: Body planted in "malicious" HTTP replies; the IDS signature database is
#: seeded with its md5 (see :func:`malware_signatures`).
MALWARE_BODY = "MZP\x00EVIL-PAYLOAD-" + "x" * 480
BENIGN_BODY_UNIT = "The quick brown fox jumps over the lazy dog. "


def malware_signatures() -> List[str]:
    """MD5 digests the IDS should alert on."""
    return [hashlib.md5(MALWARE_BODY.encode("utf-8")).hexdigest()]


@dataclass
class TraceConfig:
    """Knobs for synthetic trace construction."""

    seed: int = 1
    n_flows: int = 100
    http_fraction: float = 0.6
    malware_fraction: float = 0.05
    outdated_browser_fraction: float = 0.1
    long_flow_fraction: float = 0.09
    data_packets: int = 8
    http_body_bytes: int = 3000
    local_net: str = "10.0.0.0/16"
    n_local_hosts: int = 50
    n_servers: int = 20
    n_scanners: int = 0
    scan_targets: int = 20
    close_flows: bool = False


@dataclass
class Trace:
    """An interleaved packet schedule plus its flow inventory."""

    packets: List[PacketBlueprint]
    flows: List[FlowBlueprint]
    config: Optional[TraceConfig] = None

    @property
    def flow_count(self) -> int:
        return len(self.flows)

    def __len__(self) -> int:
        return len(self.packets)

    def flows_of_kind(self, kind: str) -> List[FlowBlueprint]:
        return [flow for flow in self.flows if flow.kind == kind]


def _local_host(config: TraceConfig, index: int) -> str:
    return "10.0.%d.%d" % (1 + (index // 200), 1 + (index % 200))


def _server(index: int) -> str:
    return "203.0.113.%d" % (1 + (index % 250))


def _interleave(flows: Sequence[FlowBlueprint]) -> List[PacketBlueprint]:
    """Round-robin merge so all flows stay concurrently active."""
    cursors = [0] * len(flows)
    merged: List[PacketBlueprint] = []
    remaining = sum(len(flow) for flow in flows)
    while remaining:
        for index, flow in enumerate(flows):
            if cursors[index] < len(flow.packets):
                merged.append(flow.packets[cursors[index]])
                cursors[index] += 1
                remaining -= 1
    return merged


def build_university_cloud_trace(config: TraceConfig) -> Trace:
    """Local clients talking to cloud servers: mostly HTTP, some bulk TCP."""
    rng = derive_rng(config.seed, "university-cloud")
    body_units = max(1, config.http_body_bytes // len(BENIGN_BODY_UNIT))
    benign_body = BENIGN_BODY_UNIT * body_units
    flows: List[FlowBlueprint] = []
    for index in range(config.n_flows):
        client = _local_host(config, rng.randrange(config.n_local_hosts))
        server = _server(rng.randrange(config.n_servers))
        client_port = 20000 + index
        long_flow = rng.random() < config.long_flow_fraction
        data_packets = config.data_packets * (6 if long_flow else 1)
        if rng.random() < config.http_fraction:
            malicious = rng.random() < config.malware_fraction
            outdated = rng.random() < config.outdated_browser_fraction
            body = MALWARE_BODY if malicious else benign_body
            flow = http_exchange(
                client,
                client_port,
                server,
                url="/obj/%d" % index,
                host="svc%d.cloud.example" % (index % config.n_servers),
                user_agent=OUTDATED_AGENT if outdated else MODERN_AGENT,
                reply_body=body,
                close=config.close_flows,
            )
            flow.kind = "http-malware" if malicious else "http"
            if long_flow:
                flow.kind += "-long"
        else:
            flow = tcp_flow(
                FiveTuple(client, client_port, server, 443),
                data_packets=data_packets,
                close=config.close_flows,
            )
            if long_flow:
                flow.kind = "tcp-long"
        flows.append(flow)

    for scanner_index in range(config.n_scanners):
        scanner = "198.51.100.%d" % (10 + scanner_index)
        targets = [
            _local_host(config, rng.randrange(config.n_local_hosts))
            for _ in range(max(1, config.scan_targets // 4))
        ]
        probes = port_scan(scanner, targets, ports=(22, 23, 80, 445))
        flows.extend(probes)

    return Trace(_interleave(flows), flows, config)


def build_datacenter_trace(config: TraceConfig) -> Trace:
    """Rack-to-rack mix: many short flows, a few heavy ones, some HTTP."""
    rng = derive_rng(config.seed, "datacenter")
    benign_body = BENIGN_BODY_UNIT * max(1, config.http_body_bytes // 45)
    flows: List[FlowBlueprint] = []
    for index in range(config.n_flows):
        src = "10.0.%d.%d" % (rng.randrange(1, 9), rng.randrange(1, 200))
        dst = "10.0.%d.%d" % (rng.randrange(1, 9), rng.randrange(1, 200))
        if src == dst:
            dst = "10.0.9.1"
        src_port = 30000 + index
        roll = rng.random()
        if roll < 0.4:
            flow = http_exchange(
                src,
                src_port,
                dst,
                url="/svc/%d" % index,
                host="internal.example",
                reply_body=benign_body,
                close=config.close_flows,
            )
        elif roll < 0.9:
            flow = tcp_flow(
                FiveTuple(src, src_port, dst, 9000 + index % 100),
                data_packets=max(2, config.data_packets // 2),
                close=config.close_flows,
            )
            flow.kind = "mice"
        else:
            flow = tcp_flow(
                FiveTuple(src, src_port, dst, 5001),
                data_packets=config.data_packets * 4,
                payload_size=1400,
                close=config.close_flows,
            )
            flow.kind = "elephant"
        flows.append(flow)
    return Trace(_interleave(flows), flows, config)

