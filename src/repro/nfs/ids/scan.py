"""Port-scan detection state: the IDS's multi-flow counters.

For each source host the detector keeps the set of distinct
``(target_ip, target_port)`` pairs it attempted (Figure 1's
"host-specific connection counters"). The record is multi-flow state —
every flow from that host updates it — so when flows of one host are
split across IDS instances, the records must be copied/shared and, at
scale-in, merged: the merge is a set union, which is both commutative
and idempotent (safe under the repeated re-copying of Fig. 8).
"""

from __future__ import annotations

from operator import or_
from typing import Set, Tuple

from repro.nf.record import Convert, Field, Record, Tag, earliest, keep, latest

#: Distinct targets before a host is flagged as scanning.
DEFAULT_SCAN_THRESHOLD = 20

#: The target set travels as sorted ``"ip:port"`` strings.
_TARGETS = Convert(
    lambda targets: sorted(["%s:%d" % target for target in targets]),
    lambda items: {(ip, int(port)) for ip, port in
                   (item.rsplit(":", 1) for item in items)},
)


class ScanRecord(Record):
    """Per-source-host connection-attempt tracking."""

    __slots__ = ("host", "targets", "alerted", "first_seen", "last_seen")
    FIELDS = ("host", Field("targets", _TARGETS), "alerted", "first_seen",
              "last_seen", Tag("kind", "scan"))
    #: The union of the incoming record.
    MERGE = dict(host=keep, targets=or_, alerted=or_, first_seen=earliest,
                 last_seen=latest)

    def __init__(self, host: str, now: float) -> None:
        self.host = host
        self.targets: Set[Tuple[str, int]] = set()
        self.alerted = False
        self.first_seen = now
        self.last_seen = now

    def attempt(self, target_ip: str, target_port: int, now: float) -> None:
        self.targets.add((target_ip, target_port))
        self.last_seen = max(self.last_seen, now)

    @property
    def attempt_count(self) -> int:
        return len(self.targets)

    def should_alert(self, threshold: int = DEFAULT_SCAN_THRESHOLD) -> bool:
        return not self.alerted and self.attempt_count >= threshold
