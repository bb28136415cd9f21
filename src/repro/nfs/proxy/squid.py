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

Client-IP referencing of cache entries (§4.1) is the multi-flow keys
hook, ``_cached_keys``: a ``{nw_src: <client>}`` filter selects exactly the
entries an active transaction is serving to matching clients.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.flowspace.filter import Filter, FlowId
from repro.flowspace.index import FlowKeyedStore
from repro.flowspace.ip import ip_in_prefix
from repro.nf.base import NetworkFunction, NFCrash
from repro.nf.costs import SQUID_COSTS, NFCostModel
from repro.nf.record import Record
from repro.nf.state import ADD, Scope, StateChunk, StateSpec, merge_into
from repro.net.packet import Packet
from repro.nfs.proxy.cache import CacheEntry
from repro.sim.core import Simulator

#: Bytes of object data served per client pull packet.
CHUNK_BYTES = 65536


class Transaction(Record):
    """Per-flow state: one client connection's in-progress request."""

    __slots__ = FIELDS = ("client_ip", "url", "total_bytes", "sent_bytes",
                          "opened_at")

    def __init__(self, client_ip: str, url: str, total_bytes: int, now: float):
        self.client_ip = client_ip
        self.url = url
        self.total_bytes = total_bytes
        self.sent_bytes = 0
        self.opened_at = now

    @property
    def complete(self) -> bool:
        return self.sent_bytes >= self.total_bytes


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

    def _cached_keys(self, flt: Filter) -> List[str]:
        # Cache entries (keyed by URL), with client-IP referencing: an
        # entry matches a client filter while it serves a matching client.
        client = flt.fields.get("nw_src")
        server = flt.fields.get("nw_dst")
        wanted = flt.fields.get("http_url")
        keys: List[str] = []
        for url, entry in self.cache.items():
            if client is not None:
                hit = any(ip_in_prefix(txn.client_ip, client)
                          for txn in self.transactions.values()
                          if txn.url == url and not txn.complete)
            else:
                hit = wanted in (None, url) and (
                    server is None or ip_in_prefix(entry.server_ip, server))
            if hit:
                keys.append(url)
        return keys

    def _export_cached(self, scope, url, entry):
        return StateChunk(scope, entry.flowid(), entry.to_dict(),
                          size_bytes=entry.chunk_size_bytes)

    def _merge_cached(self, spec, chunk):
        return merge_into(self.cache, chunk.data["url"], CacheEntry, chunk.data)

    def _delete_cached(self, spec, flowid):
        return self.cache.pop(flowid.fields.get("http_url"), None)

    STATE = {
        Scope.PERFLOW: StateSpec("transactions", Transaction),
        Scope.MULTIFLOW: StateSpec(
            "cache", CacheEntry, _merge_cached, ("nw_src", "nw_dst", "http_url"),
            keys=_cached_keys, export=_export_cached, on_delete=_delete_cached,
        ),
        Scope.ALLFLOWS: StateSpec("stats", on_import=ADD),
    }

    # --------------------------------------------------------------- inspection

    def hit_ratio(self) -> float:
        total = self.stats["hits"] + self.stats["misses"]
        return self.stats["hits"] / total if total else 0.0
