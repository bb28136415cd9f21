"""Filters and flow ids: OpenFlow-style header predicates.

A :class:`Filter` is a dictionary of header-field constraints
(§4.2 of the paper): unspecified fields are wildcards, ``nw_src`` /
``nw_dst`` values may be CIDR prefixes, ``tcp_flags`` names flags that
must be set, and everything else matches exactly. A :class:`FlowId` is
the same shape but *describes* the flow (or flow aggregate, e.g. a host)
a chunk of state pertains to; it is hashable so it can key the
``multimap<flowid, chunk>`` results of the southbound API.

Directionality: OpenFlow rules are directional, but per-flow NF state is
bidirectional (a TCP connection). A filter constructed with
``symmetric=True`` matches a packet (or flowid) in either orientation —
this models the rule *pair* (one per direction) the paper's prototype
installs, as one unit.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Mapping, Optional, Tuple, Union

from repro.flowspace.ip import (
    ip_in_prefix,
    ip_to_int,
    memoize,
    parse_prefix,
    prefix_covers,
    prefixes_overlap,
)

_IP_FIELDS = ("nw_src", "nw_dst")
_SWAP = {"nw_src": "nw_dst", "nw_dst": "nw_src", "tp_src": "tp_dst", "tp_dst": "tp_src"}

_FULL_MASK = 0xFFFFFFFF

#: Sentinel distinct from None, which is a valid cached result ("this
#: filter has no exact key" / "these constraints do not compile").
_UNSET = object()


def packet_match_keys(headers: Mapping[str, Any]):
    """The two exact-match keys a packet's headers can hit.

    Returns ``(oriented_key, symmetric_key)``: the key an oriented
    exact-match filter for this packet would carry, and the
    direction-normalized key a symmetric one would. Either hash index
    bucket holds *only* filters that match this packet. Returns
    ``(None, None)`` when the headers are not a fully-specified 5-tuple
    (such a packet cannot match any exact filter).
    """
    proto = headers.get("nw_proto")
    tp_src = headers.get("tp_src")
    tp_dst = headers.get("tp_dst")
    if (
        not isinstance(proto, int)
        or not isinstance(tp_src, int)
        or not isinstance(tp_dst, int)
    ):
        return (None, None)
    try:
        src = ip_to_int(headers["nw_src"])
        dst = ip_to_int(headers["nw_dst"])
    except (AttributeError, KeyError, TypeError, ValueError):
        return (None, None)
    left = (src, tp_src)
    right = (dst, tp_dst)
    oriented = ("o", proto, left, right)
    if right < left:
        left, right = right, left
    return (oriented, ("s", proto, left, right))


def _flags_as_set(value: Any) -> FrozenSet[str]:
    if isinstance(value, str):
        return frozenset({value})
    return frozenset(value)


def _field_matches(field: str, constraint: Any, value: Any) -> bool:
    """Whether one header ``value`` satisfies one filter ``constraint``."""
    if value is None:
        return False
    if field in _IP_FIELDS:
        return ip_in_prefix(value, constraint)
    if field == "tcp_flags":
        return _flags_as_set(constraint) <= _flags_as_set(value)
    return constraint == value


def _swap_headers(headers: Mapping[str, Any]) -> Dict[str, Any]:
    return {_SWAP.get(field, field): value for field, value in headers.items()}


def _identity_fields(fields: Dict[str, Any]) -> Dict[str, Any]:
    """``fields`` as filter identity sees them: flags as a frozenset.

    ``"SYN"``, ``["SYN"]`` (what the wire codec decodes) and
    ``frozenset({"SYN"})`` spell one predicate, so they are one filter;
    ``fields`` itself keeps the caller's spelling (and ``to_dict`` its
    bytes).
    """
    flags = fields.get("tcp_flags")
    if flags is None or isinstance(flags, frozenset):
        return fields
    return dict(fields, tcp_flags=_flags_as_set(flags))


def compile_fields(fields: Mapping[str, Any]) -> Optional[Tuple]:
    """5-tuple constraints as integers, or ``None`` if they are not that.

    The record is ``(proto, src_net, src_mask, tp_src, dst_net,
    dst_mask, tp_dst)``: an unconstrained address is mask 0 (every
    ``ip & 0 == 0``), an unconstrained port or protocol ``None``.
    ``tcp_flags``, an application field, a non-integer port/protocol or
    an unparsable prefix has no such form — those constraints stay on
    the dict-walking definition (:meth:`Filter.matches_headers`,
    :meth:`Filter.matches_flowid`).
    """
    proto = tp_src = tp_dst = None
    src_net = src_mask = dst_net = dst_mask = 0
    try:
        for field, value in fields.items():
            if field == "nw_src":
                src_net, src_mask = parse_prefix(value)
            elif field == "nw_dst":
                dst_net, dst_mask = parse_prefix(value)
            elif not isinstance(value, int):
                return None
            elif field == "nw_proto":
                proto = value
            elif field == "tp_src":
                tp_src = value
            elif field == "tp_dst":
                tp_dst = value
            else:
                return None
    except (AttributeError, TypeError, ValueError):
        return None
    return (proto, src_net, src_mask, tp_src, dst_net, dst_mask, tp_dst)


def key_matches(compiled: Tuple, key: Tuple, either_way: bool) -> bool:
    """Whether an exact key satisfies a :func:`compile_fields` record.

    ``key`` is a packet's oriented match key or a flowid's exact key;
    with ``either_way`` (a symmetric side) the swapped orientation is
    tried too.
    """
    proto, src_net, src_mask, tp_src, dst_net, dst_mask, tp_dst = compiled
    _tag, key_proto, (src, sport), (dst, dport) = key
    if proto is not None and proto != key_proto:
        return False
    if (
        src & src_mask == src_net
        and dst & dst_mask == dst_net
        and (tp_src is None or tp_src == sport)
        and (tp_dst is None or tp_dst == dport)
    ):
        return True
    return (
        either_way
        and dst & src_mask == src_net
        and src & dst_mask == dst_net
        and (tp_src is None or tp_src == dport)
        and (tp_dst is None or tp_dst == sport)
    )


class Filter:
    """An immutable header predicate with wildcard semantics."""

    __slots__ = ("fields", "symmetric", "_hash", "_exact_key", "_compiled",
                 "_wire_size", "_repr")

    #: The leading word of :meth:`__repr__`.
    _KIND = "Filter"

    def __init__(
        self, fields: Optional[Mapping[str, Any]] = None, symmetric: bool = False
    ) -> None:
        self.fields: Dict[str, Any] = dict(fields or {})
        self.symmetric = symmetric
        self._hash: Optional[int] = None
        self._exact_key: Any = _UNSET
        self._compiled: Any = _UNSET
        #: Encoded length of :meth:`to_dict`, filled in by the wire codec.
        self._wire_size: Optional[int] = None
        self._repr: Optional[str] = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def wildcard(cls) -> "Filter":
        """The match-everything filter."""
        return cls({})

    @classmethod
    def for_flow(cls, five_tuple, symmetric: bool = True) -> "Filter":
        """An exact-match filter for one flow (both directions by default)."""
        return cls(five_tuple.headers(), symmetric=symmetric)

    def with_fields(self, **extra: Any) -> "Filter":
        """A copy of this filter with additional/overridden constraints."""
        merged = dict(self.fields)
        merged.update(extra)
        return Filter(merged, symmetric=self.symmetric)

    # -- packet matching ------------------------------------------------------

    def matches_headers(self, headers: Mapping[str, Any]) -> bool:
        """Whether a packet's header dict satisfies every constraint.

        A symmetric filter also tries the other orientation, by reading
        each constraint's *swapped* header rather than building a
        swapped copy of ``headers``.
        """
        get = headers.get
        constraints = self.fields.items()
        for field, constraint in constraints:
            if not _field_matches(field, constraint, get(field)):
                break
        else:
            return True
        if not self.symmetric:
            return False
        for field, constraint in constraints:
            if not _field_matches(
                field, constraint, get(_SWAP.get(field, field))
            ):
                return False
        return True

    def matches_packet(self, packet) -> bool:
        """Whether a :class:`~repro.net.packet.Packet` satisfies the filter.

        ``matches_headers(packet.headers())`` by definition; computed as
        integer compares of the :func:`compile_fields` record (built
        once per filter) with the packet's shared oriented match key
        whenever both exist.
        """
        compiled = self._compiled
        if compiled is _UNSET:
            compiled = self._compiled = compile_fields(self.fields)
        if compiled is not None:
            key = packet.match_keys()[0]
            if key is not None:
                return key_matches(compiled, key, self.symmetric)
        return self.matches_headers(packet.headers())

    # -- exact-match fast path ------------------------------------------------

    def exact_key(self) -> Optional[Tuple]:
        """Canonical hashable key for a fully-specified exact-match filter.

        A filter is *exact* when it constrains precisely the transport
        5-tuple — ``nw_src``/``nw_dst`` as single addresses (bare or
        ``/32``), integer ``nw_proto``/``tp_src``/``tp_dst`` — with no
        extra fields. For such filters the key is
        ``(orientation_tag, proto, endpoint, endpoint)`` with IPs
        normalized to integers; symmetric filters get their endpoints
        direction-normalized (smaller ``(ip, port)`` first) so both
        orientations of a flow produce the same key, while oriented
        filters keep their direction and a distinct tag. Returns ``None``
        for wildcard/partial/prefix filters, which must stay on the
        linear match path. The key is cached (filters are immutable).

        The defining property, relied on by every hash index built on
        this: two exact filters match the same fully-specified packet
        if and only if :func:`packet_match_keys` of that packet yields
        their key.
        """
        key = self._exact_key
        if key is _UNSET:
            key = self._exact_key = self._compute_exact_key()
        return key

    def _compute_exact_key(self) -> Optional[Tuple]:
        # A view of the compiled record: five compilable fields are the
        # five 5-tuple fields. The record is not kept here — a per-flow
        # id is only ever asked for its key.
        compiled = compile_fields(self.fields) if len(self.fields) == 5 else None
        if compiled is None:
            return None
        proto, src_net, src_mask, tp_src, dst_net, dst_mask, tp_dst = compiled
        if src_mask != _FULL_MASK or dst_mask != _FULL_MASK:
            return None
        left = (src_net, tp_src)
        right = (dst_net, tp_dst)
        if not self.symmetric:
            return ("o", proto, left, right)
        if right < left:
            left, right = right, left
        return ("s", proto, left, right)

    # -- state (flowid) matching ----------------------------------------------

    def matches_flowid(
        self,
        flowid: "FlowId",
        relevant_fields: Optional[Iterable[str]] = None,
    ) -> bool:
        """Whether state described by ``flowid`` falls under this filter.

        Implements §4.2's rule that "only fields relevant to the state are
        matched against the filter; other fields in the filter are
        ignored": constraints outside ``relevant_fields`` are dropped
        first. If nothing remains, every flowid matches (the filter is
        vacuous for this kind of state — e.g. a ``tp_dst`` filter against
        host counters, where "only the IP fields ... will be considered").

        Otherwise the flowid (in either orientation if symmetric, and
        against the swapped filter too if the filter is symmetric) must
        *engage* at least one remaining constraint — carry at least one
        constrained field — and every field it carries must satisfy its
        constraint. Constraints on fields the flowid lacks are ignored
        (the flowid is coarser, e.g. a host counter has no ports), but a
        flowid that shares no constrained field in some orientation does
        not match through that orientation: a counter for host H matches
        an IP filter only if H itself satisfies an IP constraint.
        """
        relevant = None if relevant_fields is None else set(relevant_fields)
        constraints = {
            field: value
            for field, value in self.fields.items()
            if relevant is None or field in relevant
        }
        if not constraints:
            return True
        constraint_sets = [constraints]
        if self.symmetric:
            constraint_sets.append(_swap_headers(constraints))
        flowid_views = [flowid.fields]
        if flowid.symmetric:
            flowid_views.append(_swap_headers(flowid.fields))
        for oriented_constraints in constraint_sets:
            for fields in flowid_views:
                if self._flowid_view_matches(oriented_constraints, fields):
                    return True
        return False

    @staticmethod
    def _flowid_view_matches(
        constraints: Mapping[str, Any], fields: Mapping[str, Any]
    ) -> bool:
        engaged = False
        for field, constraint in constraints.items():
            if field not in fields:
                continue
            engaged = True
            value = fields[field]
            if field in _IP_FIELDS:
                # flowid IP values may themselves be prefixes (e.g. subnets)
                if not prefix_covers(constraint, value):
                    return False
            elif not _field_matches(field, constraint, value):
                return False
        return engaged

    # -- flow-space algebra ---------------------------------------------------

    def covers(self, other: "Filter") -> bool:
        """Whether every header set matched by ``other`` is matched by self.

        A symmetric ``self`` covers through either orientation of its
        constraints (a per-flow filter is stored canonically, so the end
        a prefix names may sit in either role).
        """
        return self._covers(self.fields, other) or (
            self.symmetric and self._covers(_swap_headers(self.fields), other)
        )

    @staticmethod
    def _covers(mine: Mapping[str, Any], other: "Filter") -> bool:
        for field, constraint in mine.items():
            if field not in other.fields:
                return False
            theirs = other.fields[field]
            if field in _IP_FIELDS:
                if not prefix_covers(constraint, theirs):
                    return False
            elif field == "tcp_flags":
                if not _flags_as_set(constraint) <= _flags_as_set(theirs):
                    return False
            elif constraint != theirs:
                return False
        return True

    def intersects(self, other: "Filter") -> bool:
        """Whether some header set is matched by both filters."""
        for field, constraint in self.fields.items():
            if field not in other.fields:
                continue
            theirs = other.fields[field]
            if field in _IP_FIELDS:
                if not prefixes_overlap(constraint, theirs):
                    return False
            elif field == "tcp_flags":
                continue  # "flag set" constraints are always co-satisfiable
            elif constraint != theirs:
                return False
        return True

    # -- dunder plumbing --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        # Same constraints, same orientation flag. Field names are
        # unique, so comparing the dicts is comparing the name-sorted
        # item tuples without sorting anything.
        if self is other:
            return True
        if not isinstance(other, Filter) or self.symmetric != other.symmetric:
            return False
        mine, theirs = self.fields, other.fields
        return mine == theirs or (
            "tcp_flags" in mine
            and _identity_fields(mine) == _identity_fields(theirs)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            items = sorted(
                _identity_fields(self.fields).items(), key=lambda kv: kv[0]
            )
            self._hash = hash((tuple(items), self.symmetric))
        return self._hash

    def __repr__(self) -> str:
        # Spelled once per filter, like its hash: trace records and
        # operation reports name a filter or a chunk's flowid by it.
        text = self._repr
        if text is None:
            tag = "~" if self.symmetric else ""
            body = ", ".join(
                "%s=%s" % kv for kv in sorted(self.fields.items())
            )
            text = self._repr = "%s%s{%s}" % (self._KIND, tag, body or "*")
        return text

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation (used by the wire codec)."""
        flat = {
            field: sorted(value) if isinstance(value, (set, frozenset)) else value
            for field, value in self.fields.items()
        }
        return {"fields": flat, "symmetric": self.symmetric}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Filter":
        """Inverse of :meth:`to_dict` (a :class:`FlowId` decodes as one)."""
        fields = dict(data.get("fields", {}))
        if isinstance(fields.get("tcp_flags"), list):  # to_dict's sorted set
            fields["tcp_flags"] = frozenset(fields["tcp_flags"])
        return cls(fields, symmetric=bool(data.get("symmetric")))


_HOST_IDS: Dict[str, "FlowId"] = {}


class FlowId(Filter):
    """A description of the flow (or flow aggregate) a state chunk covers.

    Structurally identical to a filter, but used on the *state* side of the
    southbound API: per-flow chunks carry a full five-tuple flowid, a
    host-granularity counter carries just an IP, a Squid cache entry may
    carry a URL. Hashable, so usable as a multimap key.
    """

    _KIND = "FlowId"

    @classmethod
    def for_flow(cls, five_tuple, symmetric: bool = True) -> "FlowId":
        """Flowid for one transport connection (bidirectional by default).

        The bidirectional flowid is memoized on the five-tuple, so every
        packet of the flow, every store keyed by it and every chunk
        exported for it name the flow by the *same* object: a dict
        probe with it is answered by identity, without ``__eq__``.
        """
        if not symmetric:
            return cls(five_tuple.headers(), symmetric=False)
        flow_id = five_tuple._flow_id
        if flow_id is None:
            flow_id = cls(five_tuple.headers(), symmetric=True)
            object.__setattr__(five_tuple, "_flow_id", flow_id)
        return flow_id

    @classmethod
    def for_host(cls, ip: str) -> "FlowId":
        """Flowid for host-granularity state (matches the IP in either role).

        Interned per distinct address (bounded like the address memos
        in :mod:`repro.flowspace.ip`; after an eviction a fresh, equal
        flowid is built), for the same identity shortcut as
        :meth:`for_flow`.
        """
        host_id = _HOST_IDS.get(ip)
        if host_id is None:
            host_id = memoize(
                _HOST_IDS, ip, cls({"nw_src": ip}, symmetric=True)
            )
        return host_id
