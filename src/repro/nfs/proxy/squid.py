"""Squid-like caching proxy.

An on-path NF (Figure 4(b) of the paper): clients request objects with
``GET`` packets and pull the response with subsequent ACK packets; the
proxy serves each pull from its object cache.

State inventory (§7):

* **per-flow** — one :class:`Transaction` per client connection (socket
  context + request context + reply progress);
* **multi-flow** — the object cache
  (:class:`~repro.nfs.proxy.cache.CacheEntry` per object, exported
  individually);
* **all-flows** — hit/miss/byte statistics.

The Table 1 failure mode: continuing an in-progress transaction whose
cache entry is absent raises :class:`~repro.nf.base.NFCrash` — that is
what happens when multi-flow state is ignored during a rebalance.

Client-IP referencing of cache entries (§4.1) is implemented in
:meth:`state_keys`: a ``{nw_src: <client>}`` filter selects exactly the
entries an active transaction is serving to matching clients.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.flowspace.filter import Filter, FlowId
from repro.flowspace.index import FlowKeyedStore
from repro.flowspace.ip import ip_in_prefix
from repro.nf.base import NetworkFunction, NFCrash
from repro.nf.costs import SQUID_COSTS, NFCostModel
from repro.nf.state import Scope, StateChunk
from repro.net.packet import Packet
from repro.nfs.proxy.cache import CacheEntry
from repro.sim.core import Simulator

#: Bytes of object data served per client pull packet.
CHUNK_BYTES = 65536


class Transaction:
    """Per-flow state: one client connection's in-progress request."""

    __slots__ = ("client_ip", "url", "total_bytes", "sent_bytes", "opened_at")

    def __init__(self, client_ip: str, url: str, total_bytes: int, now: float):
        self.client_ip = client_ip
        self.url = url
        self.total_bytes = total_bytes
        self.sent_bytes = 0
        self.opened_at = now

    @property
    def complete(self) -> bool:
        return self.sent_bytes >= self.total_bytes

    def to_dict(self) -> Dict[str, Any]:
        return {
            "client_ip": self.client_ip,
            "url": self.url,
            "total_bytes": self.total_bytes,
            "sent_bytes": self.sent_bytes,
            "opened_at": self.opened_at,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Transaction":
        txn = cls(
            data["client_ip"], data["url"], data["total_bytes"], data["opened_at"]
        )
        txn.sent_bytes = data["sent_bytes"]
        return txn


def request_payload(url: str, size_bytes: int) -> str:
    """Payload of a client GET (carries the object size for the origin)."""
    return "GET %s SQUIDSIZE=%d" % (url, size_bytes)


def pull_payload() -> str:
    """Payload of a client pull packet (requests the next chunk)."""
    return "PULL"


class CachingProxy(NetworkFunction):
    """The Squid-like NF."""

    def __init__(
        self, sim: Simulator, name: str, costs: Optional[NFCostModel] = None
    ) -> None:
        super().__init__(sim, name, costs or SQUID_COSTS)
        self.transactions: FlowKeyedStore = FlowKeyedStore()
        self.cache: Dict[str, CacheEntry] = {}
        self.stats: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "bytes_served": 0,
            "requests": 0,
        }

    # ------------------------------------------------------------- processing

    def process_packet(self, packet: Packet) -> None:
        payload = packet.payload
        flow_id = FlowId.for_flow(packet.five_tuple.canonical())
        if payload.startswith("GET "):
            self._handle_request(flow_id, packet)
        elif payload.startswith("PULL"):
            self._handle_pull(flow_id, packet)
        elif packet.is_fin_or_rst():
            self.transactions.pop(flow_id, None)

    def _handle_request(self, flow_id: FlowId, packet: Packet) -> None:
        parts = packet.payload.split(" ")
        url = parts[1]
        size = 0
        for part in parts[2:]:
            if part.startswith("SQUIDSIZE="):
                size = int(part.split("=", 1)[1])
        self.stats["requests"] += 1
        entry = self.cache.get(url)
        if entry is not None:
            self.stats["hits"] += 1
            entry.hits += 1
        else:
            self.stats["misses"] += 1
            entry = CacheEntry(
                url, packet.five_tuple.dst_ip, size, self.sim.now
            )
            self.cache[url] = entry
        self.transactions[flow_id] = Transaction(
            packet.five_tuple.src_ip, url, entry.size_bytes, self.sim.now
        )
        # First chunk rides on the request's response.
        self._serve_chunk(flow_id, self.transactions[flow_id])

    def _handle_pull(self, flow_id: FlowId, packet: Packet) -> None:
        txn = self.transactions.get(flow_id)
        if txn is None:
            return  # stray pull for an unknown connection
        self._serve_chunk(flow_id, txn)

    def _serve_chunk(self, flow_id: FlowId, txn: Transaction) -> None:
        if txn.url not in self.cache:
            raise NFCrash(
                "cache object %s missing for in-progress transfer to %s"
                % (txn.url, txn.client_ip)
            )
        remaining = txn.total_bytes - txn.sent_bytes
        chunk = min(CHUNK_BYTES, remaining)
        txn.sent_bytes += chunk
        self.stats["bytes_served"] += chunk
        if txn.complete:
            self.transactions.pop(flow_id, None)

    # ------------------------------------------------------------ state export

    def relevant_fields(self, scope: Scope) -> Tuple[str, ...]:
        if scope is Scope.MULTIFLOW:
            return ("nw_src", "nw_dst", "http_url")
        return self.DEFAULT_RELEVANT_FIELDS

    def clients_being_served(self, url: str) -> Set[str]:
        """Client IPs with an in-progress transaction for ``url``."""
        return {
            txn.client_ip
            for txn in self.transactions.values()
            if txn.url == url and not txn.complete
        }

    def state_keys(self, scope: Scope, flt: Filter) -> List[Any]:
        if scope is Scope.ALLFLOWS:
            return ["stats"]
        if scope is Scope.PERFLOW:
            return self.transactions.keys_matching(
                flt, self.relevant_fields(scope)
            )
        # Multi-flow: cache entries, with client-IP referencing.
        keys: List[str] = []
        client_prefix = flt.fields.get("nw_src")
        for url, entry in self.cache.items():
            if client_prefix is not None:
                serving = self.clients_being_served(url)
                if any(ip_in_prefix(ip, client_prefix) for ip in serving):
                    keys.append(url)
                continue
            url_constraint = flt.fields.get("http_url")
            if url_constraint is not None and url_constraint != url:
                continue
            server_constraint = flt.fields.get("nw_dst")
            if server_constraint is not None and not ip_in_prefix(
                entry.server_ip, server_constraint
            ):
                continue
            keys.append(url)
        return keys

    def export_chunk(self, scope: Scope, key: Any) -> Optional[StateChunk]:
        if scope is Scope.ALLFLOWS:
            return StateChunk(scope, None, {"stats": dict(self.stats)})
        if scope is Scope.PERFLOW:
            txn = self.transactions.get(key)
            if txn is None:
                return None
            return StateChunk(scope, key, txn.to_dict())
        entry = self.cache.get(key)
        if entry is None:
            return None
        return StateChunk(
            scope, entry.flowid(), entry.to_dict(),
            size_bytes=entry.chunk_size_bytes,
        )

    def import_chunk(self, chunk: StateChunk) -> None:
        if chunk.scope is Scope.PERFLOW:
            self.transactions[chunk.flowid] = Transaction.from_dict(chunk.data)
        elif chunk.scope is Scope.MULTIFLOW:
            url = chunk.data["url"]
            existing = self.cache.get(url)
            if existing is None:
                self.cache[url] = CacheEntry.from_dict(chunk.data)
            else:
                existing.merge_from(chunk.data)
        else:
            incoming = chunk.data["stats"]
            for field in self.stats:
                self.stats[field] += incoming.get(field, 0)

    def delete_by_flowid(self, scope: Scope, flowid: FlowId) -> int:
        if scope is Scope.PERFLOW:
            return 1 if self.transactions.pop(flowid, None) is not None else 0
        if scope is Scope.MULTIFLOW:
            url = flowid.fields.get("http_url")
            if url is not None and url in self.cache:
                del self.cache[url]
                return 1
        return 0

    # --------------------------------------------------------------- inspection

    def cache_bytes(self) -> int:
        return sum(entry.size_bytes for entry in self.cache.values())

    def hit_ratio(self) -> float:
        total = self.stats["hits"] + self.stats["misses"]
        return self.stats["hits"] / total if total else 0.0
