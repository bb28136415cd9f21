"""Southbound wire protocol: JSON control messages.

"The controller and NFs exchange JSON messages to invoke southbound
functions, provide function results, and send events" (§7 of the
paper). This module defines that message vocabulary and its encoding,
so control-message sizes on the channels follow actual content rather
than constants — a filter with many fields genuinely costs more bytes
than a bare wildcard.

The channels only need a message's *length*, so the stubs never encode
a request: a :class:`Request` computes its size from its field lengths
(a filter's or flowid's own JSON is measured once per object). The
``*_request`` constructors below stay the definition of what is on the
wire, and ``tests/test_southbound.py`` pins :meth:`Request.size`
against ``len(encode(...))`` of what they build.

Message kinds::

    {"op": "getPerflow",  "filter": {...}, "opts": {...}}
    {"op": "putPerflow",  "chunks": N}            (chunks ride separately)
    {"op": "delPerflow",  "flowids": [...]}
    {"op": "enableEvents", "filter": {...}, "action": "drop"}
    {"op": "disableEvents", "filter": {...}}
    {"op": "response", "call": "...", "status": "ok" | "error", ...}
    {"op": "event", "nf": "...", "action": "...", "packet": {...}}
    {"op": "batch", "fid": N, "msgs": [...]}      (§8.3 batching fast path)
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from repro.flowspace.filter import Filter, FlowId

#: Fixed framing overhead per message (length prefix + TCP/IP headers
#: amortized), matching the prototype's ≈128-byte control messages for
#: simple calls.
FRAME_OVERHEAD_BYTES = 64

#: Per-entry prefix inside a batch frame (length + kind tag). Batched
#: messages shed their own FRAME_OVERHEAD_BYTES — one frame pays the
#: framing once — which is precisely the §8.3 amortization.
BATCH_ENTRY_OVERHEAD_BYTES = 4


def batch_frame_size(sizes: Iterable[int]) -> int:
    """Wire size of a batch frame carrying messages of ``sizes``.

    Each entry contributes its payload (its standalone size minus the
    per-message framing it no longer pays) plus a small length prefix;
    the frame as a whole pays ``FRAME_OVERHEAD_BYTES`` once.
    """
    payload = sum(
        max(size - FRAME_OVERHEAD_BYTES, 0) + BATCH_ENTRY_OVERHEAD_BYTES
        for size in sizes
    )
    return FRAME_OVERHEAD_BYTES + payload


#: The canonical wire encoder, shared with
#: :meth:`repro.nf.state.StateChunk.to_json_bytes`.
WIRE_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode(message: Dict[str, Any]) -> bytes:
    """Encode one control message to its wire form."""
    return WIRE_JSON.encode(message).encode("utf-8")


def decode(raw: bytes) -> Dict[str, Any]:
    """Decode one control message from its wire form."""
    return json.loads(raw.decode("utf-8"))


def message_size(message: Dict[str, Any]) -> int:
    """Wire size of a message including framing."""
    return len(encode(message)) + FRAME_OVERHEAD_BYTES


# --------------------------------------------------------------------- sizing

# Encoded length of ``{"op":""}`` and of each further field's
# ``,"key":`` prefix (keys sort, so "rid" joining last adds no more).
_OP_BYTES = len('{"op":""}')
_ACTION_BYTES = len(',"action":""')
_CHUNKS_BYTES = len(',"chunks":')
_FILTER_BYTES = len(',"filter":')
_FLOWIDS_BYTES = len(',"flowids":[]')
_OPTS_BYTES = len(',"opts":{}')
_FLAG_BYTES = len(',"":true')
_RID_BYTES = len(',"rid":')


def _filter_bytes(flt: Filter) -> int:
    """Encoded length of ``flt.to_dict()``, measured once per object."""
    size = flt._wire_size
    if size is None:
        size = flt._wire_size = len(WIRE_JSON.encode(flt.to_dict()))
    return size


class Request:
    """One southbound request, sized from its fields for the stubs.

    Takes what the ``*_request`` constructors take: ``opts`` are a get's
    options (each enabled one travels as ``"name":true``), ``action`` is
    an event action's wire string. ``op`` and ``action`` are protocol
    identifiers, never text that JSON would escape.
    """

    __slots__ = ("_bytes",)

    def __init__(
        self,
        op: str,
        flt: Optional[Filter] = None,
        chunks: Optional[int] = None,
        flowids: Optional[List[FlowId]] = None,
        action: Optional[str] = None,
        **opts: bool,
    ) -> None:
        size = FRAME_OVERHEAD_BYTES + _OP_BYTES + len(op)
        if chunks is not None:
            size += _CHUNKS_BYTES + len(str(chunks))
        if flt is not None:
            size += _FILTER_BYTES + _filter_bytes(flt)
        if flowids is not None:
            size += _FLOWIDS_BYTES + max(len(flowids) - 1, 0)
            for flowid in flowids:
                size += _filter_bytes(flowid)
        if action is not None:
            size += _ACTION_BYTES + len(action)
        flags = [name for name, on in opts.items() if on]
        if flags:
            size += _OPTS_BYTES - 1  # no comma before the first flag
            for flag in flags:
                size += _FLAG_BYTES + len(flag)
        self._bytes = size

    def size(self, rid: Optional[int] = None) -> int:
        """Wire size including framing; ``rid`` is reliable mode's id."""
        if rid is None:
            return self._bytes
        return self._bytes + _RID_BYTES + len(str(rid))


# --------------------------------------------------------------- constructors


def with_request_id(message: Dict[str, Any], request_id: int) -> Dict[str, Any]:
    """Stamp a request id onto a request (reliable-delivery mode).

    Request ids let the peer-side dispatcher recognize a replayed request
    (sent again after a southbound timeout) and re-send the cached
    response instead of applying the operation twice. The classic path
    never stamps one, so its wire sizes and channel timing are untouched.
    """
    message["rid"] = request_id
    return message


def get_request(call: str, flt: Filter, **opts: Any) -> Dict[str, Any]:
    """A get{Perflow,Multiflow,Allflows} request."""
    message: Dict[str, Any] = {"op": call, "filter": flt.to_dict()}
    enabled = {key: value for key, value in opts.items() if value}
    if enabled:
        message["opts"] = enabled
    return message


def put_request(call: str, chunk_count: int) -> Dict[str, Any]:
    """A put* request header (chunk payloads are accounted separately)."""
    return {"op": call, "chunks": chunk_count}


def delete_request(call: str, flowids: Iterable[FlowId]) -> Dict[str, Any]:
    """A del* request carrying the flowids to remove."""
    return {"op": call, "flowids": [fid.to_dict() for fid in flowids]}


def events_request(
    call: str, flt: Filter, action: Optional[str] = None
) -> Dict[str, Any]:
    """An enableEvents/disableEvents request."""
    message: Dict[str, Any] = {"op": call, "filter": flt.to_dict()}
    if action is not None:
        message["action"] = action
    return message


def response(call: str, status: str = "ok", **extra: Any) -> Dict[str, Any]:
    """A response frame for any call."""
    message: Dict[str, Any] = {"op": "response", "call": call,
                               "status": status}
    message.update(extra)
    return message
