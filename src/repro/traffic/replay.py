"""Trace replay: inject blueprint packets at a target packet rate.

The paper replays traces "at 2500 packets/second" (and sweeps 1–10 kpps
in Figure 11). :class:`TraceReplayer` instantiates each blueprint at its
scheduled time and injects it into a callable (normally
``switch.inject``). It keeps no packet: what it injected stays readable
for later property checks through :class:`InjectedPackets`, which holds
8 B per packet (its uid) and builds each packet again on read.
"""

from __future__ import annotations

from array import array
from typing import Callable, Sequence

from repro.net.packet import Packet
from repro.sim.core import Simulator
from repro.traffic.generator import PacketBlueprint


class InjectedPackets:
    """The packets a replay has injected so far, in injection order.

    A read-only sequence (``len``, indexing, slicing, iteration) that
    holds no packet. Emission ``k`` built blueprint ``k`` at
    ``start + k * interval_ms`` and drew one uid; the uid is all that is
    recorded (8 B, in an ``array('q')``), and reading packet ``k`` builds
    it again from the three: the same uid, the same ``created_at`` float
    the emission ran at, and the blueprint's own five-tuple (so per-flow
    memos keyed on it still hit), flags, seq and payload. A read mints
    no uid, so it moves no later packet's.

    A rebuilt packet is the packet *as built*: what an NF did to it in
    place (an RE encoder's rewritten payload, marks, extra headers) is
    not reflected, and every read returns a new object.
    """

    __slots__ = ("_blueprints", "_uids", "_start_ms", "_interval_ms")

    def __init__(self, blueprints: Sequence[PacketBlueprint],
                 interval_ms: float) -> None:
        self._blueprints = blueprints
        self._uids = array("q")
        self._start_ms = 0.0
        self._interval_ms = interval_ms

    def __len__(self) -> int:
        return len(self._uids)

    def __getitem__(self, index):
        # Iteration runs through here too: an object with no __iter__ is
        # walked by index until IndexError, with no generator frame.
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self._uids)))]
        uid = self._uids[index]  # (IndexError ends an iteration)
        if index < 0:
            index += len(self._uids)
        return self._blueprints[index].build(
            self._start_ms + index * self._interval_ms, uid
        )


class TraceReplayer:
    """Feeds a packet schedule into the network at a constant rate."""

    def __init__(
        self,
        sim: Simulator,
        inject: Callable[[Packet], None],
        blueprints: Sequence[PacketBlueprint],
        rate_pps: float = 2500.0,
    ) -> None:
        if not rate_pps > 0:
            raise ValueError("rate_pps must be positive, got %r" % (rate_pps,))
        self.sim = sim
        self.inject = inject
        #: The caller's sequence, not a copy: it must not change while
        #: the replay runs or its packets are read.
        self.blueprints = blueprints
        self.interval_ms = 1000.0 / rate_pps
        #: Every packet injected so far, rebuilt on read.
        self.injected = InjectedPackets(blueprints, self.interval_ms)
        self._uids = self.injected._uids
        self._started = False
        #: Stream entry to run next: a packet index, or ``len(blueprints)``
        #: for the ``finished`` trigger that closes the stream.
        self._next = 0
        self.finished = sim.event("replay-finished")

    @property
    def duration_ms(self) -> float:
        """Wall length of the replay at the configured rate."""
        return len(self.blueprints) * self.interval_ms

    def start(self) -> "TraceReplayer":
        """Arm the replay (call once).

        The replay is a stream: one entry on the simulator's queue, which
        each emission re-arms for the next. Emission ``k`` runs at
        ``start + k * interval_ms`` under the ``k``-th of a block of
        reserved tie-break numbers, and ``finished`` fires as entry
        ``len(blueprints)`` of the same stream: the keys a ``schedule``
        call per packet would have drawn, hence the same run.
        """
        if self._started:
            raise RuntimeError("replay already started")
        self._started = True
        sim = self.sim
        self._start_ms = self.injected._start_ms = sim.now
        sim.schedule(0.0, self._emit)
        #: Entry ``k`` runs under tie-break number ``_seq0 + k``: entry 0
        #: drew its own just now, the block behind it is for the rest.
        self._seq0 = sim.reserve(len(self.blueprints)) - 1
        return self

    def _emit(self) -> None:
        index = self._next
        if index == len(self.blueprints):
            self.finished.trigger()
            return
        sim = self.sim
        self._next = following = index + 1
        # The next entry first, so the queue is never empty while packets
        # remain. Its time is always this product, never a running sum:
        # the float ``schedule(following * interval_ms)`` computed at
        # ``start``, which is also the ``created_at`` a read rebuilds.
        sim.rearm(
            self._start_ms + following * self.interval_ms,
            self._seq0 + following,
        )
        packet = self.blueprints[index].build(created_at=sim.now)
        self._uids.append(packet.uid)
        self.inject(packet)
