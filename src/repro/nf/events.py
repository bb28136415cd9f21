"""Packet-received events and event rules (§4.3).

``enableEvents(filter, action)`` tells an NF to raise an event to the
controller for every received packet matching ``filter``, and to
*process*, *buffer*, or *drop* the packet itself. The controller uses
DROP to prevent state updates during a move (while still learning, via
the event's packet copy, what update was intended), BUFFER to hold
packets at the destination until ordering is safe, and PROCESS for
observation (``notify``, §5.2.1) and for share's serialized processing.

Two packet marks override an action: ``"do-not-buffer"`` (set on packets
the controller re-injects during an order-preserving move) and
``"do-not-drop"`` (set on packets released one-at-a-time during share).
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

from repro.flowspace.filter import Filter
from repro.net.packet import Packet

DO_NOT_BUFFER = "do-not-buffer"
DO_NOT_DROP = "do-not-drop"

#: Fixed wire overhead of an event message beyond the embedded packet copy.
EVENT_OVERHEAD_BYTES = 74

#: Wire size of an event acknowledgment (reliable event channel).
EVENT_ACK_BYTES = 64

_event_ids = itertools.count(1)


class EventAction(enum.Enum):
    """What the NF does with a packet that triggers an event."""

    PROCESS = "process"
    BUFFER = "buffer"
    DROP = "drop"


class EventRule:
    """One active ``enableEvents`` registration inside an NF.

    ``silent=True`` applies the disposition without raising events — this
    is not part of OpenNF's API; it models the Split/Merge behaviour of
    dropping packets at the source with no record (§5.1.1) and is used by
    the no-guarantee move and the baselines.
    """

    __slots__ = ("filter", "action", "silent", "trace_id", "cause_id", "seq")

    def __init__(
        self,
        flt: Filter,
        action: EventAction,
        silent: bool = False,
        trace_id: Optional[int] = None,
        cause_id: Optional[int] = None,
    ) -> None:
        self.filter = flt
        self.action = action
        self.silent = silent
        #: The operation, and its RPC span, that installed the rule (None
        #: untraced): the ``nf.drop`` / ``nf.buffer`` it causes say so.
        self.trace_id = trace_id
        self.cause_id = cause_id
        #: Registration order within the owning NF: among rules matching a
        #: packet, the highest ``seq`` (most recently enabled) wins.
        self.seq = 0

    def effective_action(self, packet: Packet) -> EventAction:
        """The rule's action after applying packet-mark overrides."""
        if self.action is EventAction.BUFFER and packet.has_mark(DO_NOT_BUFFER):
            return EventAction.PROCESS
        if self.action is EventAction.DROP and packet.has_mark(DO_NOT_DROP):
            return EventAction.PROCESS
        return self.action

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<EventRule %r %s>" % (self.filter, self.action.value)


class PacketEvent:
    """A packet-received event raised by an NF to the controller."""

    __slots__ = (
        "event_id", "nf_name", "packet", "action_taken", "raised_at", "seq"
    )

    def __init__(
        self,
        nf_name: str,
        packet: Packet,
        action_taken: EventAction,
        raised_at: float,
    ) -> None:
        self.event_id = next(_event_ids)
        self.nf_name = nf_name
        self.packet = packet
        self.action_taken = action_taken
        self.raised_at = raised_at
        #: Per-NF sequence number under the reliable event channel;
        #: ``None`` on the classic fire-and-forget path.
        self.seq: Optional[int] = None

    @property
    def size_bytes(self) -> int:
        """Wire size: the embedded packet copy plus message overhead."""
        return self.packet.size_bytes + EVENT_OVERHEAD_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PacketEvent #%d from %s pkt#%d %s>" % (
            self.event_id,
            self.nf_name,
            self.packet.uid,
            self.action_taken.value,
        )
