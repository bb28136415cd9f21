"""Common state-combination helpers (§4.2).

"Common methods of combining state include adding or averaging values
(for counters), selecting the greatest or least value (for timestamps),
and calculating the union or intersection of sets." NFs merge in their
record codecs' ``merge_from`` (the import rule in their ``STATE`` table
picks when); these helpers cover the recurring cases so each codec's
merge stays declarative.
"""

from __future__ import annotations

from typing import Any, Iterable, List


def add_counters(existing: float, incoming: float) -> float:
    """Counter merge: addition."""
    return existing + incoming


def latest(existing: float, incoming: float) -> float:
    """Timestamp merge: keep the most recent."""
    return max(existing, incoming)


def earliest(existing: float, incoming: float) -> float:
    """Timestamp merge: keep the oldest (e.g. flow start time)."""
    return min(existing, incoming)


def union(existing: Iterable[Any], incoming: Iterable[Any]) -> List[Any]:
    """Set merge: union, returned as a sorted list (JSON-friendly)."""
    merged = set(existing) | set(incoming)
    return sorted(merged)
