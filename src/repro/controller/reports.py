"""Per-operation metric reports.

Every northbound operation returns an :class:`OperationReport` describing
what the paper's evaluation measures: total operation time, phase
breakdown, packets dropped during the operation, how many packets were
carried in events or buffered (these are the packets that incur added
latency, Fig. 10(b)), and bytes of state transferred (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set


@dataclass
class OperationReport:
    """Outcome and accounting of one northbound operation."""

    kind: str = ""
    #: The parsed :class:`~repro.controller.move.Guarantee` enum member
    #: for moves; other operation kinds may store a plain string (e.g. a
    #: share's consistency level) or leave it empty.
    guarantee: Any = ""
    filter_repr: str = ""
    src: str = ""
    dst: str = ""
    started_at: float = 0.0
    finished_at: float = 0.0
    #: chunks transferred per scope name.
    chunks_moved: Dict[str, int] = field(default_factory=dict)
    #: serialized bytes transferred per scope name.
    bytes_moved: Dict[str, int] = field(default_factory=dict)
    #: as-transferred bytes per scope (smaller when compression is on).
    wire_bytes_moved: Dict[str, int] = field(default_factory=dict)
    #: packets dropped at the source during the operation window.
    packets_dropped: int = 0
    #: packets carried inside events from the source instance.
    packets_in_events: int = 0
    #: packets buffered at the destination instance (OP move only).
    packets_buffered_at_dst: int = 0
    #: packets parked in switch-local XFSM rings (offloaded move only).
    packets_buffered_at_switch: int = 0
    #: uids of packets affected by the operation (evented or buffered);
    #: the latency analysis computes their added delay.
    affected_uids: Set[int] = field(default_factory=set)
    #: labelled phase completion times (offsets from started_at).
    phases: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: Set when the operation did not complete (e.g. an NF crashed
    #: mid-transfer): a short description of the abort cause.
    aborted: Optional[str] = None
    #: Southbound RPC retries issued while this operation ran (nonzero
    #: only under a fault plan; counted across the involved clients).
    retries: int = 0
    #: Southbound per-call timeouts that fired while this operation ran.
    timeouts: int = 0
    #: Chunks that had already been delivered to the destination when
    #: the operation aborted (state the caller must reconcile or purge).
    partial_chunks: int = 0

    @property
    def duration_ms(self) -> float:
        """Total operation time."""
        return self.finished_at - self.started_at

    @property
    def guarantee_label(self) -> str:
        """The guarantee as its wire string (enum members unwrap)."""
        return getattr(self.guarantee, "value", self.guarantee)

    @property
    def total_chunks(self) -> int:
        return sum(self.chunks_moved.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_moved.values())

    @property
    def total_wire_bytes(self) -> int:
        return sum(self.wire_bytes_moved.values()) or self.total_bytes

    def mark_phase(self, name: str, now: float) -> None:
        """Record that phase ``name`` completed at absolute time ``now``."""
        self.phases[name] = now - self.started_at

    def add_chunk(
        self, scope_name: str, size_bytes: int, wire_bytes: Optional[int] = None
    ) -> None:
        if wire_bytes is None:
            wire_bytes = size_bytes
        if scope_name in self.chunks_moved:
            self.chunks_moved[scope_name] += 1
            self.bytes_moved[scope_name] += size_bytes
            self.wire_bytes_moved[scope_name] += wire_bytes
        else:
            self.chunks_moved[scope_name] = 1
            self.bytes_moved[scope_name] = size_bytes
            self.wire_bytes_moved[scope_name] = wire_bytes

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly dump (for bench output files or journals)."""
        return {
            "kind": self.kind,
            "guarantee": self.guarantee_label,
            "filter": self.filter_repr,
            "src": self.src,
            "dst": self.dst,
            "duration_ms": self.duration_ms,
            "phases": dict(self.phases),
            "chunks_moved": dict(self.chunks_moved),
            "bytes_moved": dict(self.bytes_moved),
            "wire_bytes_moved": dict(self.wire_bytes_moved),
            "packets_dropped": self.packets_dropped,
            "packets_in_events": self.packets_in_events,
            "packets_buffered_at_dst": self.packets_buffered_at_dst,
            "packets_buffered_at_switch": self.packets_buffered_at_switch,
            "affected_packets": len(self.affected_uids),
            "notes": list(self.notes),
            "aborted": self.aborted,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "partial_chunks": self.partial_chunks,
        }

    def summary(self) -> str:
        """One-line human-readable description."""
        return (
            "%s[%s] %s->%s: %.1fms, %d chunks (%.1f KB), "
            "%d dropped, %d evented, %d buffered"
            % (
                self.kind,
                self.guarantee_label or "-",
                self.src,
                self.dst,
                self.duration_ms,
                self.total_chunks,
                self.total_bytes / 1024.0,
                self.packets_dropped,
                self.packets_in_events,
                self.packets_buffered_at_dst,
            )
        )
