"""PRADS-like passive asset monitor.

State inventory (the shape §7 of the paper describes for PRADS):

* **per-flow** — one connection record per transport flow (first/last
  seen, packet and byte counts, TCP flags observed);
* **multi-flow** — one :class:`~repro.nfs.monitor.assets.AssetRecord`
  per end-host (merged on ``putMultiflow``);
* **all-flows** — a global statistics structure (merged by addition on
  ``putAllflows``, the natural combination at scale-in where instances
  observed disjoint traffic).

The per-flow invariant the loss-freedom property tests lean on: after a
loss-free move, the connection record's packet count at the destination
equals the number of packets of that flow the switch ever forwarded.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.flowspace.filter import FlowId
from repro.flowspace.index import FlowKeyedStore
from repro.nf.base import NetworkFunction
from repro.nf.costs import PRADS_COSTS, NFCostModel
from repro.nf.record import Record, add_counters, earliest, latest, union
from repro.nf.state import (
    ADD, HOST_FIELDS, MERGE, MERGE_UNLESS_SNAPSHOT, Scope, StateSpec,
)
from repro.net.packet import Packet
from repro.nfs.monitor.assets import AssetRecord, sniff_service
from repro.sim.core import Simulator

_STATS_FIELDS = ("packets", "bytes", "flows")


class ConnRecord(Record):
    """Per-flow metadata PRADS keeps for one transport connection."""

    __slots__ = FIELDS = ("first_seen", "last_seen", "packets", "bytes",
                          "flags_seen")
    #: Counters add, so the packet total across all instances is
    #: conserved through arbitrary move chains.
    MERGE = dict(first_seen=earliest, last_seen=latest, packets=add_counters,
                 bytes=add_counters, flags_seen=union)

    def __init__(self, now: float) -> None:
        self.first_seen = now
        self.last_seen = now
        self.packets = 0
        self.bytes = 0
        self.flags_seen: List[str] = []

    def observe(self, packet: Packet, now: float) -> None:
        self.last_seen = now
        self.packets += 1
        self.bytes += packet.size_bytes
        for flag in packet.tcp_flags:
            if flag not in self.flags_seen:
                self.flags_seen.append(flag)
                self.flags_seen.sort()


class AssetMonitor(NetworkFunction):
    """The PRADS-like NF."""

    def __init__(
        self, sim: Simulator, name: str, costs: Optional[NFCostModel] = None
    ) -> None:
        super().__init__(sim, name, costs or PRADS_COSTS)
        self.conns: FlowKeyedStore = FlowKeyedStore()
        self.assets: FlowKeyedStore = FlowKeyedStore()
        self.stats: Dict[str, int] = {field: 0 for field in _STATS_FIELDS}

    # ------------------------------------------------------------- processing

    def process_packet(self, packet: Packet) -> None:
        now = self.sim.now
        five_tuple = packet.five_tuple
        stats = self.stats
        conn_id = FlowId.for_flow(five_tuple.canonical())
        conn = self.conns.get(conn_id)
        new_connection = conn is None
        if new_connection:
            conn = ConnRecord(now)
            self.conns[conn_id] = conn
            stats["flows"] += 1
        conn.observe(packet, now)

        service = sniff_service(packet.payload)
        src_ip = five_tuple.src_ip
        assets = self.assets
        for ip in (src_ip, five_tuple.dst_ip):
            asset_id = FlowId.for_host(ip)
            asset = assets.get(asset_id)
            if asset is None:
                asset = AssetRecord(ip, now)
                assets[asset_id] = asset
            # A payload signature describes the host that sent it.
            asset.observe(now, service if ip == src_ip else "", new_connection)

        stats["packets"] += 1
        stats["bytes"] += packet.size_bytes

        if packet.is_fin_or_rst():
            # The connection ended: prune its record (PRADS expires ended
            # connections; this also lets a drain-watcher observe an
            # instance becoming flow-free).
            self.conns.pop(conn_id, None)

    # ------------------------------------------------------------ state export

    #: Per-flow imports merge: a destination may have improvised a record
    #: while it briefly owned the flow. The asymmetry is intended: a share
    #: snapshot, already counting what the replica holds, replaces the
    #: additive per-flow record but merges into the idempotent host one.
    STATE = {
        Scope.PERFLOW: StateSpec("conns", ConnRecord, MERGE_UNLESS_SNAPSHOT),
        Scope.MULTIFLOW: StateSpec("assets", AssetRecord, MERGE, HOST_FIELDS),
        Scope.ALLFLOWS: StateSpec("stats", on_import=ADD),
    }

    # --------------------------------------------------------------- inspection

    def conn_count(self) -> int:
        return len(self.conns)

    def asset_for(self, ip: str) -> Optional[AssetRecord]:
        return self.assets.get(FlowId.for_host(ip))

    def conn_for(self, five_tuple) -> Optional[ConnRecord]:
        return self.conns.get(FlowId.for_flow(five_tuple.canonical()))
