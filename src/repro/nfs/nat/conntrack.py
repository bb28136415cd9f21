"""Connection-tracking entries: the NAT's (only) state.

iptables keeps "the 5-tuple, TCP state, security marks, etc. for all
active flows" (§7 of the paper) in the kernel's conntrack table. Each
entry is small and fixed-size, which makes the NAT the cheapest NF in
Figure 12's export/import comparison.
"""

from __future__ import annotations

from repro.nf.record import Record

NEW = "NEW"
ESTABLISHED = "ESTABLISHED"
CLOSED = "CLOSED"


class ConntrackEntry(Record):
    """One tracked (and translated) connection."""

    __slots__ = FIELDS = ("state", "external_port", "packets", "bytes",
                          "created_at", "last_seen", "mark")

    def __init__(self, external_port: int, now: float) -> None:
        self.state = NEW
        self.external_port = external_port
        self.packets = 0
        self.bytes = 0
        self.created_at = now
        self.last_seen = now
        self.mark = 0

    def observe(self, size_bytes: int, now: float) -> None:
        self.packets += 1
        self.bytes += size_bytes
        self.last_seen = now
