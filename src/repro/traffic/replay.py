"""Trace replay: inject blueprint packets at a target packet rate.

The paper replays traces "at 2500 packets/second" (and sweeps 1–10 kpps
in Figure 11). :class:`TraceReplayer` instantiates each blueprint at its
scheduled time and injects it into a callable (normally
``switch.inject``), recording every packet for later property checks.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.net.packet import Packet
from repro.sim.core import Simulator
from repro.traffic.generator import PacketBlueprint


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
        self.blueprints = list(blueprints)
        self.interval_ms = 1000.0 / rate_pps
        #: Every packet instantiated, in injection order.
        self.injected: List[Packet] = []
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
        self._start_ms = sim.now
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
        # ``start``.
        sim.rearm(
            self._start_ms + following * self.interval_ms,
            self._seq0 + following,
        )
        packet = self.blueprints[index].build(created_at=sim.now)
        self.injected.append(packet)
        self.inject(packet)
