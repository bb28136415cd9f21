"""Control channels: latency/bandwidth-modeled message pipes.

The OpenNF prototype exchanges JSON messages between the controller and
NFs/switches over TCP (§7). A :class:`ControlChannel` models one such
connection: each message is delayed by a fixed propagation latency plus a
size-dependent transmission time. State-chunk transfers dominate these
sizes, which is what makes Table 1's copy-all versus copy-client numbers
and the compression discussion of §8.3 reproducible.

§8.3 attributes most controller overhead to per-message handling and
proposes batching to recover it. :class:`BatchConfig` plus
:meth:`ControlChannel.queue_send` implement that fast path: queued
messages destined for the same peer coalesce into one framed batch that
pays a single per-frame handling cost at the receiver. A frame flushes
when it reaches ``batch_max_msgs`` messages or ``batch_max_bytes``
payload bytes, when ``flush_interval_ms`` elapses, or when a plain
:meth:`send` needs the wire (an *ordering barrier* — FIFO across queued
and unqueued traffic is preserved by flushing the pending frame first).
With no :class:`BatchConfig` installed, ``queue_send`` degrades to
``send`` and the channel is byte-for-byte identical to the classic path,
which the determinism regression suite pins down.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.obs import NULL_OBS
from repro.sim.core import Simulator

#: 1 Gbps expressed in bytes per millisecond.
GIGABIT_BYTES_PER_MS = 125_000.0

#: The southbound retry schedule: a per-call timeout with capped
#: exponential backoff — 25 ms doubling to 400 ms, seven attempts. The
#: client stubs retry on it; the peers' :class:`AtMostOnce` tables hold
#: responses for as long as it runs.
RPC_TIMEOUT_MS = 25.0
RPC_BACKOFF = 2.0
RPC_MAX_TIMEOUT_MS = 400.0
RPC_MAX_ATTEMPTS = 7


def rpc_timeout_ms(attempt: int) -> float:
    """How long attempt number ``attempt`` (from 0) waits for a response."""
    return min(RPC_TIMEOUT_MS * RPC_BACKOFF ** attempt, RPC_MAX_TIMEOUT_MS)


#: First send to give-up; past it no caller is waiting for a response.
RPC_BUDGET_MS = sum(rpc_timeout_ms(n) for n in range(RPC_MAX_ATTEMPTS))


@dataclass
class BatchConfig:
    """Tuning knobs for the control-plane batching fast path (§8.3).

    Not installing a config (``batching=None``) keeps the classic
    one-message-per-send behavior. ``pipeline_window`` bounds
    how many state-chunk frames ``move``/``copy`` keep in flight toward
    the destination while the source is still streaming (the windowed
    get→put pipeline); it rides along here because the same config
    object travels from the deployment down to every operation.
    """

    #: Flush once this many messages are queued.
    batch_max_msgs: int = 16
    #: Flush once the queued payload reaches this many bytes. Sized so
    #: even fat state chunks (an IDS's per-flow object graphs run tens
    #: of KB) still coalesce several to a frame; at gigabit channel
    #: speed a full frame occupies the wire for ~2 ms.
    batch_max_bytes: int = 262144
    #: Flush a non-empty queue at the latest this long after the first
    #: message was queued. Long enough that a streamed state transfer
    #: (chunks arrive every few hundred µs to ~1 ms) fills frames
    #: instead of timing out after one or two messages; any plain send
    #: on the channel still flushes immediately (ordering barrier), so
    #: request/response RPC traffic never waits out the full interval.
    flush_interval_ms: float = 4.0
    #: Max state-chunk frames in flight in the get→put pipeline. A
    #: frame counts as in flight until its put RPC round-trip finishes,
    #: so the window must cover the bandwidth-delay product of the
    #: controller→NF path or the destination idles between frames.
    pipeline_window: int = 32

    def __post_init__(self) -> None:
        if self.batch_max_msgs < 1:
            raise ValueError("batch_max_msgs must be >= 1")
        if self.batch_max_bytes < 1:
            raise ValueError("batch_max_bytes must be >= 1")
        if self.flush_interval_ms < 0:
            raise ValueError("flush_interval_ms must be >= 0")
        if self.pipeline_window < 1:
            raise ValueError("pipeline_window must be >= 1")


class ControlChannel:
    """A unidirectional message pipe with latency and bandwidth."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "",
        latency_ms: float = 0.5,
        bandwidth_bytes_per_ms: float = GIGABIT_BYTES_PER_MS,
        obs=None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.latency_ms = latency_ms
        self.bandwidth_bytes_per_ms = bandwidth_bytes_per_ms
        self.obs = obs or NULL_OBS
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped = 0
        #: Extra copies a fault injector put on the wire.
        self.messages_duplicated = 0
        self._busy_until = 0.0
        #: Optional :class:`repro.faults.ChannelInjector`; None means the
        #: channel is perfectly reliable (the pre-faults fast path).
        self.faults = None
        #: Optional :class:`BatchConfig`; None keeps queue_send == send.
        self.batching: Optional[BatchConfig] = None
        #: Queued (size, deliver, args, coalesce) entries awaiting a flush.
        self._pending: List[Tuple[int, Callable[..., None], tuple, Any]] = []
        self._pending_bytes = 0
        #: Bumped on every flush so stale interval timers no-op.
        self._flush_epoch = 0
        self._next_frame_id = 0
        #: Frame ids already delivered (tracked only under a fault
        #: injector): a duplicated frame must dedup *as a unit*, so
        #: at-most-once extends from requests to whole frames.
        self._frames_delivered: set = set()
        #: flush reason -> frames shipped for it.
        self.frames_by_reason: Dict[str, int] = defaultdict(int)
        self.frames_deduplicated = 0
        #: Logical messages that traveled inside frames.
        self.messages_coalesced = 0
        #: Bound once: sends are a transfer's hottest push site.
        self._h_transfer = self.obs.metrics.histogram(
            "chan.transfer_ms"
        ).bind(channel=name) if self.obs.enabled else None
        self.obs.add_collector(self._publish)

    @property
    def frames_sent(self) -> int:
        return sum(self.frames_by_reason.values())

    def _publish(self, reg) -> None:
        """Pull collector: the counts above, under their metric names."""
        name = self.name
        reg.publish("chan.messages", self.messages_sent, channel=name)
        reg.publish("chan.bytes", self.bytes_sent, channel=name)
        reg.publish("chan.dropped", self.messages_dropped, channel=name)
        reg.publish("chan.duplicated", self.messages_duplicated, channel=name)
        reg.publish("chan.frame_dedup", self.frames_deduplicated, channel=name)
        for reason, count in self.frames_by_reason.items():
            reg.publish("chan.flush", count, channel=name, reason=reason)

    def transfer_time(self, size_bytes: int) -> float:
        """Latency + transmission time for a message of ``size_bytes``
        on an idle channel."""
        return self.latency_ms + size_bytes / self.bandwidth_bytes_per_ms

    def send(
        self, size_bytes: int, deliver: Callable[..., None], *args: Any
    ) -> float:
        """Deliver ``deliver(*args)`` after the modeled delay; returns delay.

        Store-and-forward with a shared transmitter: each message's
        transmission occupies the channel for ``size / bandwidth`` and
        starts only once earlier messages have finished sending, then
        propagates for ``latency_ms``. This both enforces FIFO delivery
        (the channel is a TCP connection) and makes sustained bulk
        transfers genuinely bandwidth-bound.
        """
        if self._pending:
            # Ordering barrier: queued traffic must not be overtaken by
            # a message handed straight to the wire.
            self.flush(reason="ordering")
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        sim = self.sim
        now = start = sim.now
        if self._busy_until > now:
            start = self._busy_until
        busy_until = start + size_bytes / self.bandwidth_bytes_per_ms
        self._busy_until = busy_until
        delay = busy_until + self.latency_ms - now
        if self.obs.enabled:
            self._h_transfer.observe(delay)
        if self.faults is not None:
            # The sender still occupies the transmitter (loss happens in
            # the network, not at the NIC), so busy_until stays advanced.
            verdict = self.faults.on_send(now)
            if not verdict.deliver:
                self.messages_dropped += 1
                return delay
            delay += verdict.extra_delay_ms
            for copy in range(1, verdict.copies):
                # Duplicates trail the original by their own spike draw.
                sim.schedule(delay + 0.05 * copy, deliver, *args)
            self.messages_duplicated += verdict.copies - 1
        sim.schedule(delay, deliver, *args)
        return delay

    # ------------------------------------------------------------- batching

    def queue_send(
        self,
        size_bytes: int,
        deliver: Callable[..., None],
        *args: Any,
        coalesce: Optional[Callable[[list], None]] = None,
    ) -> None:
        """Queue a message for the next batch frame (§8.3 fast path).

        Without a :class:`BatchConfig` installed this is exactly
        :meth:`send`. With one, the message joins the pending frame and
        is delivered when the frame flushes. ``coalesce`` names a
        group handler: consecutive queued messages sharing the same
        ``coalesce`` callable are delivered as **one** call
        ``coalesce([payload, ...])`` (each such message must carry
        exactly one positional payload), which is how multi-chunk state
        frames reach the controller with a single per-frame
        :class:`~repro.controller.pump.ChunkPump` handling cost.
        """
        config = self.batching
        if config is None:
            self.send(size_bytes, deliver, *args)
            return
        if coalesce is not None and len(args) != 1:
            raise ValueError("coalesced messages carry exactly one payload")
        first = not self._pending
        self._pending.append((size_bytes, deliver, args, coalesce))
        self._pending_bytes += size_bytes
        if len(self._pending) >= config.batch_max_msgs:
            self.flush(reason="msgs")
        elif self._pending_bytes >= config.batch_max_bytes:
            self.flush(reason="bytes")
        elif first:
            self.sim.schedule(
                config.flush_interval_ms, self._interval_flush,
                self._flush_epoch,
            )

    def _interval_flush(self, epoch: int) -> None:
        if epoch == self._flush_epoch and self._pending:
            self.flush(reason="interval")

    def flush(self, reason: str = "explicit") -> None:
        """Ship the pending messages as one framed batch."""
        if not self._pending:
            return
        entries = self._pending
        self._pending = []
        self._pending_bytes = 0
        self._flush_epoch += 1
        from repro.nf.protocol import batch_frame_size

        frame_size = batch_frame_size([entry[0] for entry in entries])
        self._next_frame_id += 1
        frame_id = self._next_frame_id
        self.frames_by_reason[reason] += 1
        self.messages_coalesced += len(entries)
        if self.obs.enabled:
            metrics = self.obs.metrics
            metrics.histogram("chan.batch_msgs").observe(
                len(entries), channel=self.name
            )
            metrics.histogram("chan.batch_bytes").observe(
                frame_size, channel=self.name
            )
        self.send(frame_size, self._deliver_frame, frame_id, entries)

    def _deliver_frame(
        self,
        frame_id: int,
        entries: List[Tuple[int, Callable[..., None], tuple, Any]],
    ) -> None:
        """Unpack one frame at the receiver, deduping whole frames.

        A fault injector may replay a frame (duplication races); the
        retransmitted batch must dedup *as a unit* so none of its
        messages double-applies.
        """
        if self.faults is not None:
            if frame_id in self._frames_delivered:
                self.frames_deduplicated += 1
                return
            self._frames_delivered.add(frame_id)
        index = 0
        total = len(entries)
        while index < total:
            _size, deliver, args, coalesce = entries[index]
            if coalesce is None:
                deliver(*args)
                index += 1
                continue
            group = [args[0]]
            index += 1
            while index < total and entries[index][3] is coalesce:
                group.append(entries[index][2][0])
                index += 1
            coalesce(group)


class AtMostOnce:
    """Peer-side table that runs each retried request id at most once.

    The first delivery of an id runs the request; a replay is answered
    from the response cached by :meth:`complete`, or absorbed while the
    request is still running. An entry is held for
    :data:`RPC_BUDGET_MS` — as long as its caller may still resend —
    then evicted inline on a later delivery (nothing is scheduled). A
    stub numbers its requests from one counter, so every id at or below
    the highest evicted one was either delivered already or given up on
    by its caller: such an id is absorbed, never run, which keeps the
    guarantee while the table stays bounded by the request rate.
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        #: request id -> resend thunk (``None`` until the request completes).
        self._held: Dict[int, Optional[Callable[[], None]]] = {}
        #: (first delivery time, request id), oldest first.
        self._order: Deque[Tuple[float, int]] = deque()
        self._evicted_through = 0

    def __len__(self) -> int:
        return len(self._held)

    def deliver(self, request_id: int, run: Callable[[], None]) -> Optional[bool]:
        """Run a first delivery (returns ``None``); a replay returns
        whether a cached response was re-sent (``False``: absorbed)."""
        now = self._sim.now
        order, held = self._order, self._held
        while order and now - order[0][0] > RPC_BUDGET_MS:
            evicted = order.popleft()[1]
            del held[evicted]
            self._evicted_through = max(self._evicted_through, evicted)
        if request_id in held:
            resend = held[request_id]
            if resend is not None:
                resend()
            return resend is not None
        if request_id <= self._evicted_through:
            return False
        held[request_id] = None
        order.append((now, request_id))
        run()
        return None

    def complete(self, request_id: int, resend: Callable[[], None]) -> None:
        """Cache the response-resend thunk of a finished request."""
        if request_id in self._held:
            self._held[request_id] = resend
