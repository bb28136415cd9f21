"""The proxy's in-memory object cache (multi-flow state).

Each :class:`CacheEntry` is one cached web object. Entries are
"referenced by client IP (to refer to cached objects actively being
served), server IP, or URL" (§4.1 of the paper), and are serialized
individually "to allow for fine-grained state control" (§7). Object
bodies are represented by their size, not stored bytes — the state
chunk advertises the true object size so transfer costs scale with it
(Table 1's 3.8 MB vs 54.4 MB contrast).
"""

from __future__ import annotations

from repro.flowspace.filter import FlowId
from repro.nf.record import Record, keep, latest

#: Serialization overhead per entry beyond the object body itself.
ENTRY_METADATA_BYTES = 220


class CacheEntry(Record):
    """One cached web object."""

    __slots__ = FIELDS = ("url", "server_ip", "size_bytes", "stored_at", "hits")
    #: An incoming copy of the same object: keep freshest, max hit count.
    MERGE = dict(url=keep, server_ip=keep, size_bytes=keep, stored_at=latest,
                 hits=max)

    def __init__(self, url: str, server_ip: str, size_bytes: int, now: float):
        self.url = url
        self.server_ip = server_ip
        self.size_bytes = size_bytes
        self.stored_at = now
        self.hits = 0

    def flowid(self) -> FlowId:
        return FlowId({"nw_dst": self.server_ip, "http_url": self.url})

    @property
    def chunk_size_bytes(self) -> int:
        """Wire size of this entry's state chunk (body + metadata)."""
        return self.size_bytes + ENTRY_METADATA_BYTES
