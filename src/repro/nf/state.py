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
size drives transfer and (de)serialization costs; it is summed from the
chunk's parts, so nothing encodes a chunk just to size it.

A :class:`StateSpec` writes that taxonomy down as data: an NF declares,
per scope, which store holds the state, the record codec and the import
rule, and :class:`~repro.nf.base.NetworkFunction` derives get / put /
del from the declaration.
"""

from __future__ import annotations

import enum
import json
import zlib
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.flowspace.filter import FlowId
from repro.nf.protocol import WIRE_JSON, filter_bytes, wire_length


class Scope(enum.Enum):
    """How many flows a piece of NF state applies to.

    ``tag`` is the value as a plain attribute. The state-transfer path
    names a scope by it once per chunk: ``value`` is a Python-level
    property, and hashing a member runs a Python method.
    """

    PERFLOW = "perflow"
    MULTIFLOW = "multiflow"
    ALLFLOWS = "allflows"

    def __init__(self, tag: str) -> None:
        self.tag = tag


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


#: Encoded length of a chunk's envelope ``{"data":,"flowid":,"scope":""}``
#: without its three values (keys sort, so they always sit in this order).
_ENVELOPE_BYTES = len('{"data":,"flowid":,"scope":""}')
#: Encoded length of an all-flows chunk's flowid, ``null``.
_NULL_BYTES = len("null")


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
        """Serialized size, ``len(to_json_bytes())``, unless preset.

        Summed from the parts of the encoding instead of encoding the
        chunk: the envelope plus the scope's tag, the flowid's JSON (its
        length is measured once per flowid object) and ``data``'s.
        """
        size = self._size
        if size is None:
            flowid = self.flowid
            size = self._size = (
                _ENVELOPE_BYTES + len(self.scope.tag)
                + (_NULL_BYTES if flowid is None else filter_bytes(flowid))
                + wire_length(self.data)
            )
        return size

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
        if self.compressed:
            return self.compressed_size_bytes
        size = self._size  # (known by now on the transfer path)
        return self.size_bytes if size is None else size

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


def chunks_wire_bytes(chunks: List[StateChunk]) -> int:
    """Total as-transferred size (honours per-chunk compression)."""
    total = 0
    for chunk in chunks:  # (mostly one chunk: a generator costs more)
        total += chunk.wire_size_bytes
    return total


# ------------------------------------------------------------ the state table

#: Filter fields a per-flow record is matched on (§4.2).
FLOW_FIELDS = ("nw_src", "nw_dst", "nw_proto", "tp_src", "tp_dst")
#: Host records: "only the IP fields in a filter will be considered when
#: determining which end-host connection counters to return" (§4.2).
HOST_FIELDS = ("nw_src", "nw_dst")


def merge_into(store, key, codec, data: Dict[str, Any]):
    """Merge ``data`` into the record at ``store[key]``, or create it."""
    record = store.get(key)
    if record is None:
        record = store[key] = codec.from_dict(data)
    else:
        record.merge_from(data)
    return record


def REPLACE(nf, spec: "StateSpec", chunk: StateChunk):
    """The chunk's record replaces whatever is held for its flowid."""
    data = chunk.data
    record = dict(data) if spec.codec is None else spec.codec.from_dict(data)
    getattr(nf, spec.store)[chunk.flowid] = record
    return record


def MERGE(nf, spec: "StateSpec", chunk: StateChunk):
    """Merge into the held record or create it (all-flows state is the
    store itself, so it always exists)."""
    store = getattr(nf, spec.store)
    if chunk.scope is Scope.ALLFLOWS:
        store.merge_from(chunk.data)
        return store
    return merge_into(store, chunk.flowid, spec.codec, chunk.data)


def MERGE_UNLESS_SNAPSHOT(nf, spec: "StateSpec", chunk: StateChunk):
    """Merge, except that a share's authoritative snapshot replaces."""
    if chunk.snapshot:
        return REPLACE(nf, spec, chunk)
    return MERGE(nf, spec, chunk)


def ADD(nf, spec: "StateSpec", chunk: StateChunk):
    """All-flows counters: the incoming dict adds field by field."""
    counters = getattr(nf, spec.store)
    for field, value in chunk.data[spec.store].items():
        counters[field] = counters.get(field, 0) + value
    return counters


def POP(nf, spec: "StateSpec", flowid: FlowId):
    """Delete the record keyed by ``flowid``: the record, or None."""
    return getattr(nf, spec.store).pop(flowid, None)


class StateSpec(NamedTuple):
    """Where one scope's state lives at an NF, and how it travels.

    ``store`` names the NF attribute that holds it: a
    :class:`~repro.flowspace.index.FlowKeyedStore` for per- and
    multi-flow state; for all-flows state, the one record (a plain dict
    travels as ``{store: dict}``). ``codec`` is the record class (a
    :class:`~repro.nf.record.Record`, whose declared fields derive
    ``to_dict`` / ``from_dict`` / ``merge_from``), None for plain dict
    records. ``fields`` are the filter fields the state is matched on.
    ``on_import`` is the import rule: one of the functions above, called
    ``(nf, spec, chunk)``, returning the record the chunk landed in; an
    NF method of that signature may stand in for one (usually wrapping
    it), and returns None to pass the chunk to the scope's next spec.

    Each hook replaces one default and is a function of the NF's class
    body: ``keys(nf, flt)`` enumerates instead of ``keys_matching``;
    ``export(nf, scope, key, record)`` builds the chunk instead of
    ``StateChunk(scope, key, <record as a dict>)``; ``on_delete(nf, spec,
    flowid)`` removes instead of :func:`POP`.
    """

    store: str
    codec: Optional[type] = None
    on_import: Callable = REPLACE
    fields: Tuple[str, ...] = FLOW_FIELDS
    keys: Optional[Callable] = None
    export: Optional[Callable] = None
    on_delete: Callable = POP
