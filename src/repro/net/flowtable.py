"""Priority flow table, OpenFlow-style.

Entries pair a :class:`~repro.flowspace.filter.Filter` with a priority and
an action list; lookup returns the highest-priority matching entry (most
recently installed wins ties, which is what the two-phase update in §5.1.2
relies on when it layers a HIGH_PRIORITY entry over a LOW_PRIORITY one).
Each entry keeps packet/byte counters — the paper's footnote 9 uses these
to confirm the controller has seen the last packet sent to srcInst.

The table is indexed for the regimes where rule counts grow with flow
counts (§5.1.3's per-flow pipelined moves, §8.4's reroute-only pinning):
fully-specified entries live in hash buckets keyed by their
direction-normalized :meth:`Filter.exact_key`, so a packet lookup probes
at most two buckets (its oriented and symmetric keys) plus the small
sorted list of wildcard/prefix entries — O(1 + wildcards) instead of
O(rules). Install and remove splice the sorted entry list incrementally;
there is no full re-sort on flow-mods. Iterating the table yields its
entries in match order — the linear-scan oracle in ``tests/oracles.py``
reads that and nothing else.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.flowspace.filter import Filter
from repro.net.packet import Packet

LOW_PRIORITY = 10
MID_PRIORITY = 100
HIGH_PRIORITY = 1000

_entry_ids = itertools.count(1)


def _order(entry: "FlowEntry") -> Tuple[int, int]:
    """Sort key: priority desc, then newest (highest id) first among equals."""
    return (-entry.priority, -entry.entry_id)


def _bisect(entries: List["FlowEntry"], key: Tuple[int, int]) -> int:
    """Leftmost insertion point for ``key`` in a list sorted by ``_order``."""
    lo, hi = 0, len(entries)
    while lo < hi:
        mid = (lo + hi) // 2
        if _order(entries[mid]) < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _insert_sorted(entries: List["FlowEntry"], entry: "FlowEntry") -> None:
    entries.insert(_bisect(entries, _order(entry)), entry)


def _discard_sorted(entries: List["FlowEntry"], entry: "FlowEntry") -> None:
    """Remove ``entry`` from a list kept sorted by ``_order`` (unique keys)."""
    index = _bisect(entries, _order(entry))
    while entries[index] is not entry:  # defensive; keys are unique
        index += 1
    del entries[index]


class FlowEntry:
    """One installed rule: filter + priority + forwarding actions."""

    __slots__ = ("entry_id", "filter", "priority", "actions", "packets", "bytes",
                 "installed_at")

    def __init__(
        self,
        flt: Filter,
        priority: int,
        actions: Sequence[str],
        installed_at: float,
    ) -> None:
        self.entry_id = next(_entry_ids)
        self.filter = flt
        self.priority = priority
        self.actions: Tuple[str, ...] = tuple(actions)
        self.packets = 0
        self.bytes = 0
        self.installed_at = installed_at

    def count(self, packet: Packet) -> None:
        self.packets += 1
        self.bytes += packet.size_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<FlowEntry #%d p=%d %r -> %s>" % (
            self.entry_id,
            self.priority,
            self.filter,
            "/".join(self.actions),
        )


class FlowTable:
    """An ordered rule set with highest-priority-wins lookup."""

    def __init__(self) -> None:
        #: All entries, sorted by (priority desc, entry_id desc) — the
        #: order matches resolve in (and the iteration order).
        self._entries: List[FlowEntry] = []
        #: exact_key -> bucket of exact-match entries, each bucket sorted
        #: like ``_entries`` so ``bucket[0]`` is its best candidate.
        self._exact: Dict[Tuple, List[FlowEntry]] = {}
        #: Entries with no exact key (wildcards, prefixes, extra fields),
        #: sorted like ``_entries``; the lookup fallback scans only these.
        self._wildcards: List[FlowEntry] = []

    def install(
        self, flt: Filter, priority: int, actions: Sequence[str], now: float
    ) -> FlowEntry:
        """Add a rule; replaces an existing rule with identical filter+priority."""
        self.remove(flt, priority)
        entry = FlowEntry(flt, priority, actions, now)
        _insert_sorted(self._entries, entry)
        key = flt.exact_key()
        if key is None:
            _insert_sorted(self._wildcards, entry)
        else:
            _insert_sorted(self._exact.setdefault(key, []), entry)
        return entry

    def _matching(
        self, flt: Filter, priority: Optional[int]
    ) -> List[FlowEntry]:
        """Entries with exactly this filter (and priority), in table order."""
        key = flt.exact_key()
        pool: Sequence[FlowEntry] = (
            self._wildcards if key is None else self._exact.get(key, ())
        )
        return [
            e
            for e in pool
            if e.filter == flt and (priority is None or e.priority == priority)
        ]

    def remove(self, flt: Filter, priority: Optional[int] = None) -> int:
        """Remove rules with this exact filter (and priority, if given).

        A no-op — no scan-and-rebuild, no allocation — when nothing
        matches.
        """
        doomed = self._matching(flt, priority)
        if not doomed:
            return 0
        for entry in doomed:
            _discard_sorted(self._entries, entry)
            key = entry.filter.exact_key()
            if key is None:
                _discard_sorted(self._wildcards, entry)
            else:
                bucket = self._exact[key]
                _discard_sorted(bucket, entry)
                if not bucket:
                    del self._exact[key]
        return len(doomed)

    def lookup(self, packet: Packet) -> Optional[FlowEntry]:
        """Highest-priority entry matching ``packet``, or None."""
        best: Optional[FlowEntry] = None
        if self._exact:
            for key in packet.match_keys():
                bucket = self._exact.get(key)
                if bucket:
                    head = bucket[0]
                    if best is None or _order(head) < _order(best):
                        best = head
        limit = None if best is None else _order(best)
        for entry in self._wildcards:
            if limit is not None and _order(entry) > limit:
                break  # every remaining wildcard loses to the exact hit
            if entry.filter.matches_packet(packet):
                return entry
        return best

    def find(self, flt: Filter, priority: Optional[int] = None) -> Optional[FlowEntry]:
        """The entry with this exact filter (and priority, if given)."""
        matches = self._matching(flt, priority)
        return matches[0] if matches else None

    def entries_overlapping(self, flt: Filter) -> List[FlowEntry]:
        """All entries whose filter shares flow space with ``flt``.

        Used by the strict-consistency share operation (§5.2.2) to find
        "all relevant forwarding entries" to redirect to the controller.
        For a fully-specified ``flt``, only the two hash buckets its
        5-tuple can collide with — plus the wildcard list — are checked;
        a coarser ``flt`` falls back to the full scan.
        """
        key = flt.exact_key()
        if key is None:
            return [e for e in self._entries if e.filter.intersects(flt)]
        # ``intersects`` compares the *stored* field values, ignoring the
        # symmetric flag — so candidate exact entries are those sharing
        # flt's oriented tuple (oriented entries) or its canonical form
        # (symmetric entries, which the intersects check then re-verifies).
        if flt.symmetric:
            oriented = Filter(flt.fields, symmetric=False).exact_key()
        else:
            oriented = key
        _tag, proto, left, right = oriented
        if right < left:
            left, right = right, left
        candidates = list(self._exact.get(oriented, ()))
        candidates.extend(self._exact.get(("s", proto, left, right), ()))
        candidates.extend(self._wildcards)
        matches = [e for e in candidates if e.filter.intersects(flt)]
        matches.sort(key=_order)
        return matches

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)
