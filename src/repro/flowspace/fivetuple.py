"""The classic transport five-tuple and its bidirectional canonical form."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

TCP = 6
UDP = 17
ICMP = 1

_PROTO_NAMES = {TCP: "tcp", UDP: "udp", ICMP: "icmp"}


@dataclass(frozen=True)
class FiveTuple:
    """An immutable ``(src_ip, src_port, dst_ip, dst_port, proto)`` tuple.

    NFs key per-flow state by the *bidirectional* flow, so
    :meth:`canonical` returns a direction-independent form (the endpoint
    with the lexicographically smaller ``(ip_int, port)`` first); both
    directions of a connection canonicalize identically.
    """

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    proto: int = TCP

    def __post_init__(self) -> None:
        # Memo slots (never part of identity — filled in lazily by
        # canonical()/flow-key/flowid/match-key caching).
        # Pre-inserting them here keeps every instance dict on CPython's
        # shared-key layout: late insertion of a *new* key un-shares the
        # dict and slows attribute reads on every FiveTuple in the
        # process. Per-flow facts live here, not in process-global
        # tables, so they die with the tuple.
        object.__setattr__(self, "_canonical", None)
        object.__setattr__(self, "_flow_key", None)
        object.__setattr__(self, "_flow_id", None)
        object.__setattr__(self, "_match_keys", None)

    def _flipped(self) -> "FiveTuple":
        return FiveTuple(
            self.dst_ip, self.dst_port, self.src_ip, self.src_port, self.proto
        )

    def reversed(self) -> "FiveTuple":
        """The same flow seen from the opposite direction.

        The new tuple inherits this one's canonical form (both
        directions of a flow have the same one), so whatever is memoized
        on it — the flow's :class:`~repro.flowspace.filter.FlowId` above
        all — is one object per flow, not one per direction.
        """
        other = self._flipped()
        object.__setattr__(other, "_canonical", self.canonical())
        return other

    def canonical(self) -> "FiveTuple":
        """Direction-normalized form shared by both directions of the flow.

        Cached on the instance (via ``object.__setattr__`` — the
        dataclass is frozen): NFs canonicalize per packet and packets of
        one flow direction share their tuple, so the normalization runs
        once per flow direction instead of once per packet.
        """
        cached = self._canonical
        if cached is not None:
            return cached
        from repro.flowspace.ip import ip_to_int

        left = (ip_to_int(self.src_ip), self.src_port)
        right = (ip_to_int(self.dst_ip), self.dst_port)
        if left <= right:
            result = self
        else:
            result = self._flipped()
            object.__setattr__(result, "_canonical", result)
        object.__setattr__(self, "_canonical", result)
        return result

    def headers(self) -> Dict[str, Union[str, int]]:
        """Header-field dict in the OpenFlow-ish naming the filters use."""
        return {
            "nw_src": self.src_ip,
            "nw_dst": self.dst_ip,
            "nw_proto": self.proto,
            "tp_src": self.src_port,
            "tp_dst": self.dst_port,
        }

    @property
    def proto_name(self) -> str:
        """Human-readable protocol name ("tcp", "udp", "icmp", or number)."""
        return _PROTO_NAMES.get(self.proto, str(self.proto))

    def __str__(self) -> str:
        return "%s:%d->%s:%d/%s" % (
            self.src_ip,
            self.src_port,
            self.dst_ip,
            self.dst_port,
            self.proto_name,
        )
