"""Synthetic traffic: flow builders, trace mixes, and rate-based replay."""

from repro.traffic.generator import (
    FlowBlueprint,
    PacketBlueprint,
    ftp_session,
    http_exchange,
    port_scan,
    tcp_flow,
)
from repro.traffic.replay import TraceReplayer
from repro.traffic.traces import (
    MALWARE_BODY,
    MODERN_AGENT,
    OUTDATED_AGENT,
    Trace,
    TraceConfig,
    build_datacenter_trace,
    build_university_cloud_trace,
    malware_signatures,
)

__all__ = [
    "FlowBlueprint",
    "MALWARE_BODY",
    "MODERN_AGENT",
    "OUTDATED_AGENT",
    "PacketBlueprint",
    "Trace",
    "TraceConfig",
    "TraceReplayer",
    "build_datacenter_trace",
    "build_university_cloud_trace",
    "ftp_session",
    "http_exchange",
    "malware_signatures",
    "port_scan",
    "tcp_flow",
]
