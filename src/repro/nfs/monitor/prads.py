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

from typing import Any, Dict, List, Optional, Tuple

from repro.flowspace.filter import Filter, FlowId
from repro.flowspace.index import FlowKeyedStore
from repro.nf import merge
from repro.nf.base import NetworkFunction
from repro.nf.costs import PRADS_COSTS, NFCostModel
from repro.nf.state import Scope, StateChunk
from repro.net.packet import Packet
from repro.nfs.monitor.assets import AssetRecord, sniff_service
from repro.sim.core import Simulator

_STATS_FIELDS = ("packets", "bytes", "flows")


class ConnRecord:
    """Per-flow metadata PRADS keeps for one transport connection."""

    __slots__ = ("first_seen", "last_seen", "packets", "bytes", "flags_seen")

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

    def to_dict(self) -> Dict[str, Any]:
        return {
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
            "packets": self.packets,
            "bytes": self.bytes,
            "flags_seen": list(self.flags_seen),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ConnRecord":
        record = cls(data["first_seen"])
        record.last_seen = data["last_seen"]
        record.packets = data["packets"]
        record.bytes = data["bytes"]
        record.flags_seen = sorted(data.get("flags_seen", []))
        return record

    def merge_from(self, data: Dict[str, Any]) -> None:
        """Combine an incoming serialized record into this one (§4.2 merge).

        Packet and byte counters add, timestamps take earliest/latest,
        flags take the union — so the packet total across all instances
        is conserved through arbitrary move chains.
        """
        self.first_seen = merge.earliest(self.first_seen, data["first_seen"])
        self.last_seen = merge.latest(self.last_seen, data["last_seen"])
        self.packets = merge.add_counters(self.packets, data["packets"])
        self.bytes = merge.add_counters(self.bytes, data["bytes"])
        self.flags_seen = merge.union(
            self.flags_seen, data.get("flags_seen", [])
        )


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
        conn_id = FlowId.for_flow(packet.five_tuple.canonical())
        conn = self.conns.get(conn_id)
        new_connection = conn is None
        if new_connection:
            conn = ConnRecord(now)
            self.conns[conn_id] = conn
            self.stats["flows"] += 1
        conn.observe(packet, now)

        service = sniff_service(packet.payload)
        for ip in (packet.five_tuple.src_ip, packet.five_tuple.dst_ip):
            asset_id = FlowId.for_host(ip)
            asset = self.assets.get(asset_id)
            if asset is None:
                asset = AssetRecord(ip, now)
                self.assets[asset_id] = asset
            # A payload signature describes the host that sent it.
            is_source = ip == packet.five_tuple.src_ip
            asset.observe(
                now,
                service=service if is_source else "",
                new_connection=new_connection,
            )

        self.stats["packets"] += 1
        self.stats["bytes"] += packet.size_bytes

        if packet.is_fin_or_rst():
            # The connection ended: prune its record (PRADS expires ended
            # connections; this also lets a drain-watcher observe an
            # instance becoming flow-free).
            self.conns.pop(conn_id, None)

    # ------------------------------------------------------------ state export

    def relevant_fields(self, scope: Scope) -> Tuple[str, ...]:
        if scope is Scope.MULTIFLOW:
            return ("nw_src", "nw_dst")
        return self.DEFAULT_RELEVANT_FIELDS

    def _store(self, scope: Scope):
        if scope is Scope.PERFLOW:
            return self.conns
        if scope is Scope.MULTIFLOW:
            return self.assets
        return None

    def state_keys(self, scope: Scope, flt: Filter) -> List[Any]:
        if scope is Scope.ALLFLOWS:
            return ["stats"]
        store = self._store(scope)
        return store.keys_matching(flt, self.relevant_fields(scope))

    def export_chunk(self, scope: Scope, key: Any) -> Optional[StateChunk]:
        if scope is Scope.ALLFLOWS:
            return StateChunk(scope, None, {"stats": dict(self.stats)})
        record = self._store(scope).get(key)
        if record is None:
            return None
        return StateChunk(scope, key, record.to_dict())

    def import_chunk(self, chunk: StateChunk) -> None:
        if chunk.scope is Scope.PERFLOW:
            existing = self.conns.get(chunk.flowid)
            if existing is None or chunk.snapshot:
                self.conns[chunk.flowid] = ConnRecord.from_dict(chunk.data)
            else:
                # The destination may have improvised a record while it
                # briefly owned the flow (overlapping moves retarget
                # forwarding before the state catches up); fold the
                # counts together instead of losing either side's.
                existing.merge_from(chunk.data)
        elif chunk.scope is Scope.MULTIFLOW:
            existing = self.assets.get(chunk.flowid)
            if existing is None:
                self.assets[chunk.flowid] = AssetRecord.from_dict(chunk.data)
            else:
                existing.merge_from(chunk.data)
        else:
            incoming = chunk.data["stats"]
            for field in _STATS_FIELDS:
                self.stats[field] = merge.add_counters(
                    self.stats[field], incoming.get(field, 0)
                )

    def delete_by_flowid(self, scope: Scope, flowid: FlowId) -> int:
        store = self._store(scope)
        if store is None:
            return 0
        return 1 if store.pop(flowid, None) is not None else 0

    # --------------------------------------------------------------- inspection

    def conn_count(self) -> int:
        return len(self.conns)

    def asset_for(self, ip: str) -> Optional[AssetRecord]:
        return self.assets.get(FlowId.for_host(ip))

    def conn_for(self, five_tuple) -> Optional[ConnRecord]:
        return self.conns.get(FlowId.for_flow(five_tuple.canonical()))
