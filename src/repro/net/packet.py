"""The packet model.

Packets carry a transport five-tuple, TCP flags, a sequence offset, and an
application payload (a string; its length stands in for the wire size
together with a fixed header overhead). Every packet has a unique ``uid``
assigned at creation: the loss-freedom and order-preservation properties
from §5.1 of the paper are stated — and tested — in terms of these uids.

``marks`` carries OpenNF's out-of-band annotations: the controller tags
packets it re-injects with ``"do-not-buffer"`` (order-preserving move,
§5.1.2) or ``"do-not-drop"`` (share, §5.2.2).

A packet is built per emission, and again on every read of a replay's
record, so it allocates no container it rarely uses: an unmarked packet
shares one empty ``marks`` set, a packet built from a frozenset of flags
(as every :class:`~repro.traffic.generator.PacketBlueprint` hands it)
shares it, and a packet holds no ``extra_headers`` dict until one is
written (reading ``extra_headers`` makes it, for a writer such as the RE
encoder; :meth:`Packet.extra_header`, :meth:`Packet.headers` and
:meth:`Packet.match_keys` read without making one). Its payload is
shared as well: a ``str`` is immutable and is only ever rebound.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, FrozenSet, Iterable, Optional

from repro.flowspace.filter import packet_match_keys
from repro.flowspace.fivetuple import FiveTuple

HEADER_OVERHEAD_BYTES = 54  # Ethernet + IPv4 + TCP headers

#: The flags that end a connection (``is_fin_or_rst``).
_TERMINATING_FLAGS = frozenset(("FIN", "RST"))
#: The ``marks`` of every unmarked packet; :meth:`Packet.mark` rebinds.
_NO_MARKS: FrozenSet[str] = frozenset()

_uid_counter = itertools.count(1)


def reset_uid_counter() -> None:
    """Restart packet uid assignment (used by tests for determinism)."""
    global _uid_counter
    _uid_counter = itertools.count(1)


class Packet:
    """A single packet traversing the simulated network.

    ``size_bytes`` (headers plus payload length, the approximate wire
    size) is a fact of the payload, so it is computed once here; the
    payload is only ever rewritten through :meth:`rewrite_payload`,
    which keeps the two in step.
    """

    __slots__ = (
        "uid",
        "five_tuple",
        "tcp_flags",
        "seq",
        "payload",
        "size_bytes",
        "marks",
        "created_at",
        "_extra_headers",
    )

    def __init__(
        self,
        five_tuple: FiveTuple,
        tcp_flags: Iterable[str] = (),
        seq: int = 0,
        payload: str = "",
        created_at: float = 0.0,
        extra_headers: Optional[Dict[str, Any]] = None,
        uid: Optional[int] = None,
    ) -> None:
        # A replay's read-back passes the uid the packet drew when it
        # was built, so rebuilding it mints none.
        self.uid = next(_uid_counter) if uid is None else uid
        self.five_tuple = five_tuple
        # (``frozenset`` of a frozenset is that frozenset: no copy.)
        self.tcp_flags: FrozenSet[str] = frozenset(tcp_flags)
        self.seq = seq
        self.payload = payload
        self.size_bytes = HEADER_OVERHEAD_BYTES + len(payload)
        self.marks: FrozenSet[str] = _NO_MARKS
        self.created_at = created_at
        #: ``None`` until a header is written (see ``extra_headers``).
        self._extra_headers = extra_headers or None

    @property
    def extra_headers(self) -> Dict[str, Any]:
        """Header fields beyond the five-tuple and flags, writable in
        place (``packet.extra_headers[name] = value``); the dict is made
        on first access."""
        extra = self._extra_headers
        if extra is None:
            extra = self._extra_headers = {}
        return extra

    def extra_header(self, name: str) -> Any:
        """The extra header ``name``, or ``None``; makes no dict."""
        extra = self._extra_headers
        return None if extra is None else extra.get(name)

    def rewrite_payload(self, payload: str) -> None:
        """Replace the payload in place (e.g. an RE encoder's stripping),
        keeping ``size_bytes`` its length plus the header overhead."""
        self.payload = payload
        self.size_bytes = HEADER_OVERHEAD_BYTES + len(payload)

    def flow_key(self) -> str:
        """Canonical (direction-insensitive) flow name for this packet.

        Both directions of a connection map to the same key, matching
        the symmetric per-flow grouping the §5.1 properties are stated
        over; auditors and trace records use it to name flows.

        Memoized *on the five-tuple object* (both directions of a flow
        reuse their tuples across every packet): a hit is one string-key
        dict probe, with no five-tuple hashing, and the cache dies with
        the tuple instead of growing a process-global map. The tuple
        dataclass is frozen, hence the ``object.__setattr__``.
        """
        five_tuple = self.five_tuple
        key = five_tuple._flow_key
        if key is None:
            c = five_tuple.canonical()
            key = "%s:%s-%s:%s/%s" % (
                c.src_ip, c.src_port, c.dst_ip, c.dst_port, c.proto
            )
            object.__setattr__(five_tuple, "_flow_key", key)
        return key

    def match_keys(self):
        """The ``(oriented, symmetric)`` exact-match keys of this packet.

        The one flow key every table lookup on the packet's path uses
        (flow table, NF event-rule index, XFSM rings, shard map) and
        every compiled ``Filter.matches_packet`` compares against, see
        :func:`~repro.flowspace.filter.packet_match_keys`. It is a fact
        of the flow direction, so it is extracted once and memoized on
        the five-tuple all packets of that direction share. Only a
        packet with ``extra_headers`` — which may override a 5-tuple
        field, and which ``nfs/redup`` adds to after creation — pays
        the extraction from its header dict every time.
        """
        five_tuple = self.five_tuple
        keys = five_tuple._match_keys
        extra = self._extra_headers
        if keys is None or extra:
            keys = packet_match_keys(self.headers())
            if not extra:
                object.__setattr__(five_tuple, "_match_keys", keys)
        return keys

    def headers(self) -> Dict[str, Any]:
        """Header-field dict for filter matching."""
        fields = self.five_tuple.headers()
        if self.tcp_flags:
            fields["tcp_flags"] = self.tcp_flags
        if self._extra_headers:
            fields.update(self._extra_headers)
        return fields

    def mark(self, name: str) -> "Packet":
        """Attach an out-of-band annotation (e.g. ``"do-not-buffer"``)."""
        self.marks = self.marks | {name}
        return self

    def has_mark(self, name: str) -> bool:
        """Whether the annotation ``name`` is attached."""
        return name in self.marks

    def is_syn(self) -> bool:
        """A pure SYN (no ACK): the start of a new connection."""
        return "SYN" in self.tcp_flags and "ACK" not in self.tcp_flags

    def is_fin_or_rst(self) -> bool:
        """Whether this packet terminates its connection."""
        return not self.tcp_flags.isdisjoint(_TERMINATING_FLAGS)

    def __repr__(self) -> str:
        flags = "+".join(sorted(self.tcp_flags)) or "-"
        return "<pkt #%d %s %s seq=%d len=%d>" % (
            self.uid,
            self.five_tuple,
            flags,
            self.seq,
            len(self.payload),
        )
