"""Southbound wire protocol: JSON control messages.

"The controller and NFs exchange JSON messages to invoke southbound
functions, provide function results, and send events" (§7 of the
paper). This module defines that message vocabulary and its encoding,
so control-message sizes on the channels are derived from actual
content rather than constants — a filter with many fields genuinely
costs more bytes than a bare wildcard.

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


def encode(message: Dict[str, Any]) -> bytes:
    """Encode one control message to its wire form."""
    return json.dumps(message, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def decode(raw: bytes) -> Dict[str, Any]:
    """Decode one control message from its wire form."""
    return json.loads(raw.decode("utf-8"))


def message_size(message: Dict[str, Any]) -> int:
    """Wire size of a message including framing."""
    return len(encode(message)) + FRAME_OVERHEAD_BYTES


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
