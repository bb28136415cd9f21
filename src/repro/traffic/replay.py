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
        self.sim = sim
        self.inject = inject
        self.blueprints = list(blueprints)
        self.interval_ms = 1000.0 / rate_pps
        #: Every packet instantiated, in injection order.
        self.injected: List[Packet] = []
        self._started = False
        self.finished = sim.event("replay-finished")

    @property
    def duration_ms(self) -> float:
        """Wall length of the replay at the configured rate."""
        return len(self.blueprints) * self.interval_ms

    def start(self) -> "TraceReplayer":
        """Schedule the whole replay (call once)."""
        if self._started:
            raise RuntimeError("replay already started")
        self._started = True
        for index, blueprint in enumerate(self.blueprints):
            self.sim.schedule(
                index * self.interval_ms, self._emit, blueprint
            )
        self.sim.schedule(self.duration_ms, self.finished.trigger)
        return self

    def _emit(self, blueprint: PacketBlueprint) -> None:
        packet = blueprint.build(created_at=self.sim.now)
        self.injected.append(packet)
        self.inject(packet)

    def time_of_packet(self, index: int) -> float:
        """When the ``index``-th packet is (or will be) injected."""
        return index * self.interval_ms
