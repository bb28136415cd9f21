"""Indexed flowid-keyed storage for NF state tables.

Every NF keeps its per-flow (and some multi-flow) state in mappings
keyed by :class:`~repro.flowspace.filter.FlowId`. The southbound
``get``/``delete`` calls ask each store for "all keys matching this
filter" — historically a linear ``matches_flowid`` scan over every
stored flowid, which makes a fine-grained per-flow move over *n* flows
cost O(n²) matches.

:class:`FlowKeyedStore` is a drop-in dict replacement that additionally
maintains a hash index over the direction-normalized exact keys of its
flowids (see :meth:`Filter.exact_key`). ``keys_matching`` then resolves
fully-specified filters in O(1): the canonical bucket plus a linear pass
over only the *partial* flowids (host aggregates, prefix flowids), which
cannot be hash-indexed. Results are returned in insertion order — the
exact order a linear scan over the store produces, which is what the
oracle in ``tests/oracles.py`` pins the fast path against.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.flowspace.filter import Filter, FlowId, compile_fields, key_matches


#: What :meth:`FlowKeyedStore.pop` finds for a flowid it does not hold.
_ABSENT = object()


def _canonical_bucket(key: Tuple) -> Tuple:
    """Direction-normalized bucket for an exact key of either orientation."""
    _tag, proto, left, right = key
    if right < left:
        left, right = right, left
    return (proto, left, right)


class FlowKeyedStore:
    """A ``FlowId -> value`` mapping with an exact-match key index.

    Supports the dict operations the NFs use (get/set/del/pop/len/
    iteration/values) plus :meth:`keys_matching`, the indexed
    replacement for the per-``state_keys`` linear filter scan. Iteration
    and ``keys_matching`` results follow insertion order, exactly like
    the plain dict this replaces.

    A write or a removal probes the dict once (one ``FlowId`` hash): the
    index entries carry their insertion number themselves, so nothing
    else is keyed by the flowid.
    """

    __slots__ = ("_data", "_next_seq", "_exact", "_partial")

    def __init__(self) -> None:
        self._data: Dict[FlowId, Any] = {}
        self._next_seq = 0
        #: canonical (proto, endpoint, endpoint) -> the ``(insertion
        #: number, flowid)`` entries in that bucket, oldest first
        self._exact: Dict[Tuple, List[Tuple[int, FlowId]]] = {}
        #: entries with no exact key (host/prefix/partial); linear fallback
        self._partial: List[Tuple[int, FlowId]] = []

    # -- mapping protocol -----------------------------------------------------

    def __setitem__(self, flowid: FlowId, value: Any) -> None:
        data = self._data
        size = len(data)
        data[flowid] = value
        if len(data) != size:  # a new key (an overwrite keeps its place)
            self._index(flowid)

    def __getitem__(self, flowid: FlowId) -> Any:
        return self._data[flowid]

    def __delitem__(self, flowid: FlowId) -> None:
        del self._data[flowid]
        self._unindex(flowid)

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[FlowId]:
        return iter(self._data)

    def get(self, flowid: FlowId, default: Any = None) -> Any:
        return self._data.get(flowid, default)

    def pop(self, flowid: FlowId, *default: Any) -> Any:
        value = self._data.pop(flowid, _ABSENT)
        if value is not _ABSENT:
            self._unindex(flowid)
            return value
        if default:
            return default[0]
        raise KeyError(flowid)

    def values(self):
        return self._data.values()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "FlowKeyedStore(%r)" % (self._data,)

    # -- index maintenance ----------------------------------------------------

    def _index(self, flowid: FlowId) -> None:
        self._next_seq += 1
        entry = (self._next_seq, flowid)
        key = flowid.exact_key()
        if key is None:
            self._partial.append(entry)
        else:
            self._exact.setdefault(_canonical_bucket(key), []).append(entry)

    def _unindex(self, flowid: FlowId) -> None:
        key = flowid.exact_key()
        if key is None:
            entries = self._partial
        else:
            bucket_key = _canonical_bucket(key)
            entries = self._exact[bucket_key]
            if len(entries) == 1:  # the flowid's own entry, alone
                del self._exact[bucket_key]
                return
        for position, (_seq, held) in enumerate(entries):
            if held is flowid or held == flowid:
                del entries[position]
                return

    # -- filter queries -------------------------------------------------------

    def keys_matching(
        self,
        flt: Filter,
        relevant_fields: Optional[Iterable[str]] = None,
    ) -> List[FlowId]:
        """All stored flowids matching ``flt`` under §4.2 semantics.

        Equivalent to
        ``[fid for fid in store if flt.matches_flowid(fid, relevant_fields)]``
        (same members, same order). When the filter is fully-specified
        — it has an exact key and the relevant-fields projection drops
        none of its constraints — candidate flowids come from the
        canonical hash bucket instead of a full scan; only partial
        flowids are still matched linearly. Any other filter scans, but
        its projection is compiled once and each full-5-tuple flowid is
        an integer compare against its cached exact key (a full flowid
        engages every constraint; the swapped orientation counts when
        either side is symmetric).
        """
        relevant = None if relevant_fields is None else set(relevant_fields)
        constraints = {
            field: value for field, value in flt.fields.items()
            if relevant is None or field in relevant
        }
        if not constraints:
            # Vacuous filter for this state kind: everything matches.
            return list(self._data)
        key = flt.exact_key()
        if key is None or len(constraints) != len(flt.fields):
            compiled = compile_fields(constraints)
            scanned: List[FlowId] = []
            for fid in self._data:
                fid_key = None if compiled is None else fid.exact_key()
                if fid_key is None:
                    hit = flt.matches_flowid(fid, relevant_fields)
                else:
                    hit = key_matches(
                        compiled, fid_key, flt.symmetric or fid.symmetric)
                if hit:
                    scanned.append(fid)
            return scanned
        # Fast path. A full-5-tuple flowid matches an exact filter iff
        # their canonical keys agree and, when both are oriented, the
        # orientations agree too (matches_flowid tries the swapped view
        # whenever either side is symmetric).
        matched: List[Tuple[int, FlowId]] = []
        symmetric_probe = key[0] == "s"
        for entry in self._exact.get(_canonical_bucket(key), ()):
            fid = entry[1]
            if symmetric_probe or fid.symmetric or fid.exact_key() == key:
                matched.append(entry)
        for entry in self._partial:
            if flt.matches_flowid(entry[1], relevant_fields):
                matched.append(entry)
        if len(matched) > 1:
            matched.sort()  # by insertion number: each is unique
        return [fid for _seq, fid in matched]
