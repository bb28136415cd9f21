"""Per-direction TCP stream reassembly for the IDS.

Buffers out-of-order segments, delivers the in-order byte stream to the
upper-layer analyzer, and records *content gaps* — holes that can never
be filled because the IDS (which watches a copy of traffic and cannot
request retransmission) missed a segment. A gap is what turns a lost
packet during an unsafe state move into a missed malware detection:
the md5 over the HTTP body is only trustworthy when the stream had no
gap (§5.1.1 and footnote 2 of the paper).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.nf.record import Convert, Field, Record

#: Buffered segments travel keyed by their offset as a string (JSON keys).
_OFFSET_KEYS = Convert(lambda pending: {str(seq): d for seq, d in pending.items()},
                       lambda pending: {int(seq): d for seq, d in pending.items()})


class TcpReassembler(Record):
    """In-order delivery of one direction of a TCP byte stream."""

    __slots__ = ("next_seq", "pending", "delivered_bytes", "gaps", "_sink")
    FIELDS = ("next_seq", Field("pending", _OFFSET_KEYS), "delivered_bytes", "gaps")

    def __init__(self, sink: Optional[Callable[[str], None]] = None) -> None:
        #: Next expected stream offset.
        self.next_seq = 0
        #: Out-of-order segments waiting for the hole to fill: seq -> data.
        self.pending: Dict[int, str] = {}
        self.delivered_bytes = 0
        #: Number of holes that were skipped over (content gaps).
        self.gaps = 0
        self._sink = sink

    def set_sink(self, sink: Callable[[str], None]) -> None:
        self._sink = sink

    def segment(self, seq: int, data: str) -> None:
        """Accept one segment at stream offset ``seq``."""
        if not data:
            return
        if seq + len(data) <= self.next_seq:
            return  # full retransmission of already-delivered data
        if seq < self.next_seq:
            data = data[self.next_seq - seq :]  # partial overlap
            seq = self.next_seq
        if seq == self.next_seq:
            self._deliver(data)
            self._drain_pending()
        else:
            existing = self.pending.get(seq)
            if existing is None or len(existing) < len(data):
                self.pending[seq] = data

    def skip_gap(self) -> bool:
        """Give up on the current hole and resume at the earliest buffered
        segment. Returns True if a gap was recorded."""
        if not self.pending:
            return False
        earliest = min(self.pending)
        if earliest <= self.next_seq:
            self._drain_pending()
            return False
        self.gaps += 1
        self.next_seq = earliest
        self._drain_pending()
        return True

    def has_hole(self) -> bool:
        """Whether buffered data exists beyond an unfilled hole."""
        return any(seq > self.next_seq for seq in self.pending)

    def _deliver(self, data: str) -> None:
        self.next_seq += len(data)
        self.delivered_bytes += len(data)
        if self._sink is not None:
            self._sink(data)

    def _drain_pending(self) -> None:
        while self.next_seq in self.pending:
            data = self.pending.pop(self.next_seq)
            self._deliver(data)
        # Discard fully-shadowed segments.
        for seq in [s for s in self.pending if s + len(self.pending[s]) <= self.next_seq]:
            del self.pending[seq]

    def _rebuild(self) -> None:
        self._sink = None
