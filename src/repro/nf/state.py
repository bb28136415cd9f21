"""State taxonomy and state chunks (§4.1–4.2 of the paper).

State an NF creates while processing traffic is classified by *scope*:

* ``PERFLOW`` — read/updated only for packets of one flow (e.g. a TCP
  connection object and its analyzers);
* ``MULTIFLOW`` — read/updated for multiple but not all flows (e.g. a
  per-host scan counter, a cached web object);
* ``ALLFLOWS`` — touched for every packet/flow (e.g. global statistics).

A :class:`StateChunk` is the unit the southbound API transfers: one or
more related internal structures for the same flow (or flow aggregate),
serialized to a JSON-friendly dict, tagged with the
:class:`~repro.flowspace.filter.FlowId` it pertains to. The chunk's JSON
size drives transfer and (de)serialization costs.
"""

from __future__ import annotations

import enum
import json
import zlib
from typing import Any, Dict, List, Mapping, Optional

from repro.flowspace.filter import FlowId
from repro.nf.protocol import WIRE_JSON


class Scope(enum.Enum):
    """How many flows a piece of NF state applies to."""

    PERFLOW = "perflow"
    MULTIFLOW = "multiflow"
    ALLFLOWS = "allflows"


#: Scope combinations accepted by the northbound ``scope`` argument.
PER = (Scope.PERFLOW,)
MULTI = (Scope.MULTIFLOW,)
ALL = (Scope.ALLFLOWS,)
PER_AND_MULTI = (Scope.PERFLOW, Scope.MULTIFLOW)
EVERYTHING = (Scope.PERFLOW, Scope.MULTIFLOW, Scope.ALLFLOWS)


def normalize_scope(scope) -> tuple:
    """Accept a Scope, an iterable of Scopes, or a string alias."""
    if isinstance(scope, Scope):
        return (scope,)
    if isinstance(scope, str):
        aliases = {
            "per": PER,
            "perflow": PER,
            "multi": MULTI,
            "multiflow": MULTI,
            "all": ALL,
            "allflows": ALL,
            "per+multi": PER_AND_MULTI,
            "everything": EVERYTHING,
        }
        try:
            return aliases[scope.lower()]
        except KeyError:
            raise ValueError("unknown scope alias %r" % (scope,))
    return tuple(scope)


class StateChunk:
    """One transferable unit of NF state."""

    __slots__ = ("scope", "flowid", "data", "_size", "_compressed_size",
                 "compressed", "snapshot")

    def __init__(
        self,
        scope: Scope,
        flowid: Optional[FlowId],
        data: Mapping[str, Any],
        size_bytes: Optional[int] = None,
    ) -> None:
        self.scope = scope
        self.flowid = flowid  # None for all-flows chunks
        self.data: Dict[str, Any] = dict(data)
        self._size = size_bytes
        self._compressed_size: Optional[int] = None
        #: Whether this chunk travels compressed (§8.3's optimization).
        self.compressed = False
        #: True when the chunk is an authoritative snapshot of state the
        #: receiver already holds a (stale) copy of — share replication
        #: marks its pushes so importers replace instead of merging.
        self.snapshot = False

    @property
    def size_bytes(self) -> int:
        """Serialized size; computed from the JSON encoding if not preset."""
        if self._size is None:
            self._size = len(self.to_json_bytes())
        return self._size

    @property
    def compressed_size_bytes(self) -> int:
        """Size after zlib compression of the wire encoding (§8.3).

        Computed with real zlib on the JSON encoding, so the compression
        ratio is authentic for the state at hand. For chunks with a
        preset size (large synthetic objects), the paper's measured 38 %
        reduction is applied instead.
        """
        if self._compressed_size is None:
            if self._size is not None and self._size > 4096:
                self._compressed_size = int(self._size * 0.62)
            else:
                self._compressed_size = len(
                    zlib.compress(self.to_json_bytes(), 6)
                )
        return self._compressed_size

    @property
    def wire_size_bytes(self) -> int:
        """Size as transferred: compressed when the flag is set."""
        return self.compressed_size_bytes if self.compressed else self.size_bytes

    def to_json_bytes(self) -> bytes:
        """The wire encoding of this chunk (JSON, as in the prototype)."""
        body = {
            "scope": self.scope.value,
            "flowid": None if self.flowid is None else self.flowid.to_dict(),
            "data": self.data,
        }
        return WIRE_JSON.encode(body).encode("utf-8")

    @classmethod
    def from_json_bytes(cls, raw: bytes) -> "StateChunk":
        """Decode a chunk from its wire encoding."""
        body = json.loads(raw.decode("utf-8"))
        flowid = None if body["flowid"] is None else FlowId.from_dict(body["flowid"])
        return cls(Scope(body["scope"]), flowid, body["data"], size_bytes=len(raw))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<StateChunk %s %r %dB>" % (
            self.scope.value,
            self.flowid,
            self.size_bytes,
        )


def chunks_total_bytes(chunks: List[StateChunk]) -> int:
    """Total serialized size of a chunk list."""
    return sum(chunk.size_bytes for chunk in chunks)


def chunks_wire_bytes(chunks: List[StateChunk]) -> int:
    """Total as-transferred size (honours per-chunk compression)."""
    total = 0
    for chunk in chunks:  # (mostly one chunk: a generator costs more)
        total += chunk.wire_size_bytes
    return total
