"""Point-to-point links with latency, jitter, and loss.

Links are where the paper's race conditions live: a packet "in transit to
srcInst" (§5.1.1) is exactly a packet sitting in one of these scheduled
deliveries. Delivery order is FIFO for equal latencies; enabling jitter
lets property tests explore reorderings on the wire.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from repro.costs import NF_LINK_LATENCY_MS
from repro.sim.core import Simulator


class Link:
    """A unidirectional delivery pipe between two simulated components."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "",
        latency_ms: float = NF_LINK_LATENCY_MS,
        jitter_ms: float = 0.0,
        loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if loss_rate and rng is None:
            raise ValueError("a loss_rate requires an explicit rng for determinism")
        if jitter_ms and rng is None:
            raise ValueError("jitter requires an explicit rng for determinism")
        self.sim = sim
        self.name = name
        self.latency_ms = latency_ms
        self.jitter_ms = jitter_ms
        self.loss_rate = loss_rate
        self.rng = rng
        self.delivered = 0
        self.dropped = 0

    def send(self, item: Any, deliver: Callable[[Any], None]) -> bool:
        """Schedule delivery of ``item`` via ``deliver``; False if lost."""
        if self.loss_rate and self.rng.random() < self.loss_rate:
            self.dropped += 1
            return False
        delay = self.latency_ms
        if self.jitter_ms:
            delay += self.rng.uniform(0.0, self.jitter_ms)
        self.sim.schedule(delay, self._deliver, item, deliver)
        return True

    def _deliver(self, item: Any, deliver: Callable[[Any], None]) -> None:
        self.delivered += 1
        deliver(item)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Link %s %.3fms>" % (self.name, self.latency_ms)
