"""Controller-side serialized message handling.

§8.3's profile of the prototype found controller "threads are busy
reading from sockets most of the time": every message from an NF —
including each streamed state chunk — costs handling time at the
controller before the corresponding action (a per-chunk ``put``) can be
issued. :class:`ChunkPump` models that single-threaded handling loop;
when chunks arrive faster than the controller can handle them, a
backlog builds, which is what stretches parallelized operations and the
early-release windows in the paper's measurements.

The batching fast path (§8.3) pushes one queue item per multi-chunk
*frame* via :meth:`ChunkPump.push`'s ``weight`` parameter: the frame
pays one ``per_item_ms`` handling cost however many chunks it carries,
while ``messages_handled`` still accounts the logical message count so
backlog statistics stay comparable across batched and unbatched runs.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Tuple

from repro.sim.core import Event, Simulator


class ChunkPump:
    """A FIFO work queue draining at a fixed per-item handling cost."""

    def __init__(
        self,
        sim: Simulator,
        per_item_ms: float,
        handle: Callable[[Any], None],
    ) -> None:
        self.sim = sim
        self.per_item_ms = per_item_ms
        self.handle = handle
        self._queue: Deque[Any] = deque()
        self._busy = False
        #: ``(items_handled target, Event)`` pairs, targets ascending.
        self._markers: Deque[Tuple[int, Event]] = deque()
        self.items_handled = 0
        #: Logical messages handled (a weight-N frame counts N).
        self.messages_handled = 0
        self.max_backlog = 0

    def push(self, item: Any, weight: int = 1) -> None:
        """Enqueue one item for handling.

        ``weight`` is the number of logical messages the item stands
        for — a multi-chunk frame from the batching fast path costs one
        handling slot but accounts for all its chunks.
        """
        self._queue.append((item, weight))
        depth = len(self._queue)
        if depth > self.max_backlog:
            self.max_backlog = depth
        if not self._busy:
            self._busy = True
            self.sim.schedule(self.per_item_ms, self._drain)

    def _drain(self) -> None:
        if not self._queue:
            self._busy = False
            return
        item, weight = self._queue.popleft()
        self.handle(item)
        # (Counted after the handler: a marker set while it runs counts
        # the item in hand among those it waits for.)
        handled = self.items_handled = self.items_handled + 1
        self.messages_handled += weight
        markers = self._markers
        while markers and markers[0][0] <= handled:
            markers.popleft()[1].trigger()
        if self._queue:
            self.sim.schedule(self.per_item_ms, self._drain)
        else:
            self._busy = False

    def drained(self) -> Event:
        """An event that fires once everything queued *so far* is handled.

        Later pushes do not extend the wait (marker semantics, like the
        switch's packet-out barrier).
        """
        evt = self.sim.event("pump-drained")
        if not self._queue:
            evt.trigger()
            return evt
        self._markers.append((self.items_handled + len(self._queue), evt))
        return evt
