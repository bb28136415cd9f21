"""The network-function base class.

:class:`NetworkFunction` provides everything §4 of the paper asks an NF
to support, without constraining how subclasses organize their internal
state:

* a single-threaded packet-processing loop with an input queue (the "NIC
  and operating system buffers" whose draining races against state moves);
* the event machinery of §4.3 (``enableEvents`` / ``disableEvents`` with
  process/buffer/drop dispositions and the do-not-buffer / do-not-drop
  mark overrides);
* timed export/import/delete operations for each state scope, run as
  simulator processes so per-chunk serialization overlaps packet
  processing (which is inflated while a transfer is active, §8.2.1);
* the late-locking hook used by the early-release optimization (§5.1.3).

Subclasses implement ``process_packet(packet)`` and declare ``STATE``,
one :class:`~repro.nf.state.StateSpec` per scope, from which get / put /
del are derived: the "bounded, mechanical set of handlers" the prototype
added to Bro, PRADS, Squid and iptables (§4.2, §7).
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.costs import EVENT_RETRANSMIT_MS, NFCostModel
from repro.flowspace.filter import Filter, FlowId
from repro.nf.events import EventAction, EventRule, PacketEvent
from repro.nf.state import (
    FLOW_FIELDS, MERGE, MERGE_UNLESS_SNAPSHOT, Scope, StateChunk, StateSpec,
)
from repro.net.channel import AtMostOnce
from repro.net.columns import Columns
from repro.net.packet import Packet
from repro.obs import NULL_OBS
from repro.sim.core import Event, Simulator

ALLFLOWS = Scope.ALLFLOWS  # read per chunk: a global, not an Enum lookup


class NFCrash(Exception):
    """Raised by an NF's packet handler when required state is missing.

    Table 1's "ignore multi-flow state" configuration makes Squid crash;
    this exception is how that failure mode surfaces in the reproduction.
    """


class NetworkFunction:
    """Base class for all simulated NFs."""

    #: ``{Scope: StateSpec}``, or a tuple of specs for a scope held in
    #: several stores. The state handlers below derive from it; a scope
    #: left out holds nothing.
    STATE: Dict[Scope, Any] = {}
    #: ``STATE`` as ``{scope.tag: (StateSpec, ...)}``: read per chunk,
    #: so keyed by a string rather than by the enum member.
    _specs: Dict[str, Tuple[StateSpec, ...]] = {}

    #: When False, the per-packet ground-truth logs (``processing_log``,
    #: ``proc_durations``) are not recorded — scale benchmarks opt out so
    #: long runs do not grow memory without bound. Recorded, they cost
    #: 24 B per processed packet: three columns of 8 B values.
    record_ground_truth = True

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._specs = {
            scope.tag: (specs,) if isinstance(specs, StateSpec) else tuple(specs)
            for scope, specs in cls.STATE.items()
        }
        # A merging import rule needs its codec's MERGE table: fail here,
        # not at the first merge.
        for spec in (spec for specs in cls._specs.values() for spec in specs):
            if (spec.on_import in (MERGE, MERGE_UNLESS_SNAPSHOT)
                    and getattr(spec.codec, "MERGE", None) is None):
                raise TypeError("%s.%s merges on import, but its codec %s "
                                "declares no MERGE table"
                                % (cls.__name__, spec.store,
                                   getattr(spec.codec, "__name__", None)))
        # Every NF class holds the derived handlers in its own namespace:
        # the ledger's profiler wraps them per class, looked up there
        # (``NF_STATE_HANDLERS`` in benchmarks/ledger/adapter.py).
        for name in ("state_keys", "export_chunk", "import_chunk"):
            if name not in vars(cls):
                setattr(cls, name, getattr(cls, name))

    def __init__(self, sim: Simulator, name: str, costs: NFCostModel) -> None:
        self.sim = sim
        self.name = name
        self.costs = costs
        #: Observability bundle: the disabled singleton until a
        #: deployment hands over its own (:meth:`attach_obs`).
        self.obs = NULL_OBS
        self.failed = False
        self.failure_reason: Optional[str] = None
        #: Callbacks invoked (once) when this instance fail-stops; the
        #: controller hooks this to retire per-NF channel state (event
        #: reorder buffers) the moment the instance is gone.
        self._failure_listeners: List[Callable[["NetworkFunction"], None]] = []
        # Input path.
        self._queue: Deque[Packet] = deque()
        self._busy = False
        #: One-shot callbacks fired the next time the input queue goes
        #: idle (the offloaded move's drain barrier; empty otherwise).
        self._idle_listeners: List[Callable[[], None]] = []
        # Event machinery. Rules live in an insertion-ordered seq -> rule
        # map (O(1) removal); exact-match rules are additionally hash-
        # indexed by their filter's canonical key, mirroring the flow
        # table's fast path.
        self._event_rules: Dict[int, EventRule] = {}
        self._rules_exact: Dict[Any, List[EventRule]] = {}
        self._rules_wild: List[EventRule] = []
        self._rule_seq = 0
        self._rule_buffers: Dict[int, List[Packet]] = {}
        self.event_sink: Optional[Callable[[PacketEvent], None]] = None
        self.event_channel = None  # ControlChannel towards the controller
        # Reliable-delivery machinery (active only under a fault plan).
        self._rpc_seen = AtMostOnce(sim)
        self.rpcs_delivered = 0
        self.rpcs_deduplicated = 0
        #: Of those, the replays answered from the cached response.
        self.rpcs_replayed = 0
        self._crash_on_rpc: Optional[Tuple[int, str]] = None
        # Reliable event channel: sequence numbers + ack + retransmit.
        self.reliable_events = False
        self.event_max_attempts = 8
        self._event_seq = 0
        self._unacked_events: Dict[int, PacketEvent] = {}
        self.events_retransmitted = 0
        self.events_abandoned = 0
        # Transfer bookkeeping.
        self._transfers_active = 0
        #: Whether a state operation holds the NF's one CPU, and the
        #: turns of those queued behind it, oldest first.
        self._op_busy = False
        self._op_turns: Deque[Event] = deque()
        # (A put runs per chunk: its two names are formatted once.)
        self._gate_name = "op-gate@%s" % name
        self._put_name = "put@%s" % name
        # Statistics and logs.
        self.packets_received = 0
        self.packets_processed = 0
        self.packets_dropped_by_event = 0
        self.packets_dropped_silent = 0
        self.packets_buffered_by_event = 0
        #: Buffered packets put back on the queue by ``disableEvents``.
        self.packets_released = 0
        self.packets_lost_to_failure = 0
        self.events_raised = 0
        # Ground truth, one value per processed packet in each column.
        self._done_times = array("d")
        self._done_uids = array("q")
        self._durations = array("d")
        #: (completion_time, packet_uid) for every packet actually processed.
        self.processing_log = Columns(self._done_times, self._done_uids)
        #: The open :meth:`watch_buffered` lists, by ``id``.
        self._buffer_watches: Dict[int, List[int]] = {}
        #: (completion_time, duration) per processed packet (for §8.2.1's
        #: overhead metric); the times are ``processing_log``'s own.
        self.proc_durations = Columns(self._done_times, self._durations)

    # ------------------------------------------------------------------ wiring

    def connect_controller(self, channel, event_sink) -> None:
        """Attach the control channel used for raising events."""
        self.event_channel = channel
        self.event_sink = event_sink

    def attach_obs(self, obs) -> None:
        """Join a deployment's observability bundle (once, on attach)."""
        self.obs = obs
        obs.add_collector(self._publish)

    def _publish(self, reg) -> None:
        """Pull collector: the statistics above, under their metric names."""
        nf = self.name
        # Listed by every snapshot that has an NF, packets held or not.
        reg.counter("nf.packets.buffered")
        reg.counter("nf.packets.dropped")
        reg.publish("nf.packets.processed", self.packets_processed, nf=nf)
        reg.publish("nf.packets.buffered", self.packets_buffered_by_event, nf=nf)
        reg.publish("nf.packets.released", self.packets_released, nf=nf)
        silent = self.packets_dropped_silent
        evented = self.packets_dropped_by_event - silent
        reg.publish("nf.packets.dropped", silent, nf=nf, mode="silent")
        reg.publish("nf.packets.dropped", evented, nf=nf, mode="evented")
        # One event per evented drop; the rest report a processed packet.
        reg.publish("nf.events.raised", evented, nf=nf, action="drop")
        reg.publish("nf.events.raised", self.events_raised - evented,
                    nf=nf, action="process")
        reg.publish("nf.events.retransmitted", self.events_retransmitted, nf=nf)
        reg.publish("nf.events.abandoned", self.events_abandoned, nf=nf)
        reg.publish("sb.replays_served", self.rpcs_replayed, nf=nf)

    def add_failure_listener(
        self, callback: Callable[["NetworkFunction"], None]
    ) -> None:
        """Run ``callback(self)`` when this instance fail-stops."""
        self._failure_listeners.append(callback)
        if self.failed:
            callback(self)

    def fail(self, reason: str) -> None:
        """Fail-stop this instance; queued packets are lost."""
        if self.failed:
            return
        self.failed = True
        self.failure_reason = reason
        self.packets_lost_to_failure += len(self._queue)
        self._queue.clear()
        for callback in self._failure_listeners:
            callback(self)

    def crash_on_nth_rpc(self, nth: int, reason: str) -> None:
        """Arm a crash on the ``nth`` southbound RPC delivered here."""
        self._crash_on_rpc = (nth, reason)

    # ------------------------------------------------- reliable RPC dispatch

    def rpc_deliver(self, request_id: int, run: Callable[[], None]) -> None:
        """At-most-once execution for reliable southbound requests.

        The first delivery of a request id runs the operation; replays
        that arrive while it is still in flight are absorbed (the
        original run will send the response); replays after completion
        re-send the cached response instead of re-applying state — this
        is what makes a replayed ``put_perflow`` safe. The table
        (:class:`~repro.net.channel.AtMostOnce`) is the switch's too.
        """
        self.rpcs_delivered += 1
        if self._crash_on_rpc is not None and not self.failed:
            nth, reason = self._crash_on_rpc
            if self.rpcs_delivered >= nth:
                self.fail(reason)
        served = self._rpc_seen.deliver(request_id, run)
        if served is not None:
            self.rpcs_deduplicated += 1
            if served:
                self.rpcs_replayed += 1

    def rpc_complete(self, request_id: int, resend: Callable[[], None]) -> None:
        """Cache the response-resend thunk for a finished request."""
        self._rpc_seen.complete(request_id, resend)

    # --------------------------------------------------------------- data path

    def receive(self, packet: Packet) -> None:
        """Entry point from the network: enqueue and kick the drain loop."""
        self.packets_received += 1
        if self.failed:
            self.packets_lost_to_failure += 1
            return
        self._queue.append(packet)
        self._kick()

    def _kick(self) -> None:
        if not self._busy:
            self._busy = True
            self.sim.schedule(0.0, self._drain)

    def on_idle(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the input queue is fully drained.

        Fires immediately when nothing is queued or in service. Every
        event a queued packet raises is emitted *before* the idle
        notification, so a response sent from the callback trails those
        events on the (FIFO) NF→controller channel — the ordering the
        offloaded move's drain barrier relies on.
        """
        if not self._busy and not self._queue:
            callback()
        else:
            self._idle_listeners.append(callback)

    def _notify_idle(self) -> None:
        if self._idle_listeners:
            listeners, self._idle_listeners = self._idle_listeners, []
            for callback in listeners:
                callback()

    def _drain(self) -> None:
        if self.failed:
            self.packets_lost_to_failure += len(self._queue)
            self._queue.clear()
            self._busy = False
            self._notify_idle()
            return
        if not self._queue:
            self._busy = False
            self._notify_idle()
            return
        packet = self._queue.popleft()
        rule = self._match_rule(packet)
        if rule is None:
            self._begin_processing(packet, None)
            return
        action = rule.effective_action(packet)
        if action is EventAction.PROCESS:
            self._begin_processing(packet, None if rule.silent else rule)
        elif action is EventAction.DROP:
            self.packets_dropped_by_event += 1
            if rule.silent:
                self.packets_dropped_silent += 1
                self.sim.schedule(self.costs.disposition_ms, self._drain)
            else:
                self._raise_event(packet, EventAction.DROP)
                self.sim.schedule(
                    self.costs.disposition_ms + self.costs.event_raise_ms,
                    self._drain,
                )
            obs = self.obs
            if obs.enabled:
                # A zero-duration span (not a record) so loss-freedom
                # violations can cite the dropped packet by span id.
                # The stamp puts it in the causing operation's causal
                # slice, so the flight recorder's bundle for that
                # operation holds it. Last: a snapshot taken from inside
                # it (a violation's bundle) must see all three counters
                # above moved.
                obs.tracer.span(
                    "nf.drop",
                    nf=self.name,
                    uid=packet.uid,
                    flow=packet.flow_key(),
                    silent=rule.silent,
                    trace_id=rule.trace_id,
                    cause_id=rule.cause_id,
                ).finish()
        else:  # BUFFER
            self.packets_buffered_by_event += 1
            for watch in self._buffer_watches.values():
                watch.append(packet.uid)
            obs = self.obs
            if obs.enabled:
                obs.tracer.record("nf.buffer", nf=self.name,
                                  uid=packet.uid, flow=packet.flow_key(),
                                  trace_id=rule.trace_id)
            self._rule_buffers.setdefault(id(rule), []).append(packet)
            self.sim.schedule(self.costs.disposition_ms, self._drain)

    def watch_buffered(self) -> List[int]:
        """A list that collects the uid of every packet a BUFFER rule
        holds here from now until :meth:`unwatch_buffered`. An operation
        keeps one open while it runs, so nothing outlives it."""
        watch: List[int] = []
        self._buffer_watches[id(watch)] = watch
        return watch

    def unwatch_buffered(self, watch: List[int]) -> None:
        del self._buffer_watches[id(watch)]

    def _begin_processing(self, packet: Packet, rule: Optional[EventRule]) -> None:
        costs = self.costs
        if self._transfers_active:
            duration = costs.effective_proc_ms(True)
        else:
            duration = costs.proc_ms
        self.sim.schedule(duration, self._finish_processing, packet, rule, duration)

    def _finish_processing(
        self, packet: Packet, rule: Optional[EventRule], duration: float
    ) -> None:
        try:
            self.process_packet(packet)
        except NFCrash as crash:
            # The packet that killed it is lost with the rest of the queue.
            self._queue.appendleft(packet)
            self._busy = False
            self.fail(str(crash))
            self._notify_idle()
            return
        self.packets_processed += 1
        if self.record_ground_truth:
            self._done_times.append(self.sim.now)
            self._done_uids.append(packet.uid)
            self._durations.append(duration)
        obs = self.obs
        if obs.enabled:
            obs.tracer.record("nf.process", nf=self.name,
                              uid=packet.uid, flow=packet.flow_key())
        if rule is not None:
            self._raise_event(packet, EventAction.PROCESS)
        self._drain()

    # ----------------------------------------------------------- event machinery

    def _match_rule(self, packet: Packet) -> Optional[EventRule]:
        """The most recently enabled rule matching ``packet``, or None."""
        best: Optional[EventRule] = None
        if self._rules_exact:
            for key in packet.match_keys():
                bucket = self._rules_exact.get(key)
                if bucket:
                    rule = bucket[-1]  # buckets keep registration order
                    if best is None or rule.seq > best.seq:
                        best = rule
        for rule in reversed(self._rules_wild):
            if best is not None and rule.seq < best.seq:
                break  # every remaining wildcard rule is older than best
            if rule.filter.matches_packet(packet):
                return rule
        return best

    def _rule_candidates(self, flt: Filter) -> List[EventRule]:
        """Rules whose filter could equal ``flt`` (exact-key bucket or
        the wildcard list — equal filters always share a bucket)."""
        key = flt.exact_key()
        if key is None:
            return self._rules_wild
        return self._rules_exact.get(key, [])

    def _unindex_rule(self, rule: EventRule) -> None:
        key = rule.filter.exact_key()
        if key is None:
            self._rules_wild.remove(rule)
            return
        bucket = self._rules_exact[key]
        bucket.remove(rule)
        if not bucket:
            del self._rules_exact[key]

    def _raise_event(self, packet: Packet, action: EventAction) -> None:
        self.events_raised += 1
        if self.event_sink is None:
            return
        event = PacketEvent(self.name, packet, action, self.sim.now)
        if self.event_channel is None:
            self.sim.schedule(0.0, self.event_sink, event)
            return
        if self.reliable_events:
            # Sequence the event and keep a copy until the controller
            # acks it; the controller releases events downstream in
            # sequence order, so a retransmitted event cannot overtake
            # its successors (order preservation survives loss).
            self._event_seq += 1
            event.seq = self._event_seq
            self._unacked_events[event.seq] = event
            self._send_event_attempt(event, 1)
        else:
            # queue_send: bursts of events (e.g. a buffered-flush storm
            # during a move) coalesce into one control frame instead of
            # one message each (§8.3). Falls back to a plain send when
            # batching is off.
            self.event_channel.queue_send(
                event.size_bytes, self.event_sink, event
            )

    def _send_event_attempt(self, event: PacketEvent, attempt: int) -> None:
        self.event_channel.queue_send(
            event.size_bytes, self.event_sink, event
        )
        self.sim.schedule(
            EVENT_RETRANSMIT_MS * attempt,
            self._check_event_ack, event.seq, attempt,
        )

    def _check_event_ack(self, seq: int, attempt: int) -> None:
        event = self._unacked_events.get(seq)
        if event is None:
            return  # acked
        if attempt >= self.event_max_attempts:
            del self._unacked_events[seq]
            self.events_abandoned += 1
            return
        self.events_retransmitted += 1
        self._send_event_attempt(event, attempt + 1)

    def event_ack(self, seq: int) -> None:
        """Controller-side ack for a sequenced event landed here."""
        self._unacked_events.pop(seq, None)

    def sb_enable_events(
        self,
        flt: Filter,
        action: EventAction,
        silent: bool = False,
        trace_id: Optional[int] = None,
        cause_id: Optional[int] = None,
    ) -> None:
        """``enableEvents(filter, action)``: add or update an event rule.

        ``trace_id`` / ``cause_id`` name the operation, and its RPC span,
        the request was issued for.
        """
        for rule in self._rule_candidates(flt):
            if rule.filter == flt:
                # Updated in place: the rule keeps its registration order,
                # exactly as the list-based implementation did.
                rule.action = action
                rule.silent = silent
                rule.trace_id = trace_id
                rule.cause_id = cause_id
                return
        self._rule_seq += 1
        rule = EventRule(flt, action, silent=silent, trace_id=trace_id,
                         cause_id=cause_id)
        rule.seq = self._rule_seq
        self._event_rules[rule.seq] = rule
        key = flt.exact_key()
        if key is None:
            self._rules_wild.append(rule)
        else:
            self._rules_exact.setdefault(key, []).append(rule)

    def sb_disable_events(self, flt: Filter) -> None:
        """``disableEvents(filter)``: drop the rule and release its buffer.

        Buffered packets are released to the head of the input queue in
        the order they were buffered ("any buffered packets are released
        to the NF for processing when events are disabled").
        """
        doomed = [r for r in self._rule_candidates(flt) if r.filter == flt]
        released: List[Packet] = []
        for rule in doomed:
            released.extend(self._rule_buffers.pop(id(rule), []))
            del self._event_rules[rule.seq]
            self._unindex_rule(rule)
        self.packets_released += len(released)
        for packet in reversed(released):
            self._queue.appendleft(packet)
        if released:
            self._kick()

    def sb_disable_events_covered(self, flt: Filter) -> None:
        """Disable every rule whose filter is subsumed by ``flt``.

        Convenience for cleaning up the per-flow rules late locking
        creates (§5.1.3) with a single control message. One pass over the
        rule set with O(1) removals — the per-rule ``sb_disable_events``
        used to make this quadratic in the number of per-flow rules.
        """
        for rule in list(self._event_rules.values()):
            if flt.covers(rule.filter):  # equal fields cover too
                self.sb_disable_events(rule.filter)

    @property
    def event_rule_count(self) -> int:
        return len(self._event_rules)

    def event_rules(self) -> List[EventRule]:
        """Active rules, oldest registration first (newest wins a match)."""
        return list(self._event_rules.values())

    def buffered_packet_count(self) -> int:
        """Packets currently held by BUFFER-action rules."""
        return sum(len(buf) for buf in self._rule_buffers.values())

    # -------------------------------------------------- southbound state transfer

    def _op_turn(self) -> Event:
        """Wait in line for the NF's one CPU: fires when the transfer
        operations queued before the caller are done.

        Each operation process starts ``if self._op_busy: yield
        self._op_turn()``, sets ``_op_busy`` and ends in
        :meth:`_op_done`, so one that finds the NF idle builds no event.
        """
        turn = Event(self.sim, self._gate_name)
        self._op_turns.append(turn)
        return turn

    def _op_done(self) -> None:
        """Hand the CPU to the oldest queued operation, if any."""
        if self._op_turns:
            self._op_turns.popleft().trigger()
        else:
            self._op_busy = False

    def sb_get(
        self,
        scope: Scope,
        flt: Filter,
        stream: Optional[Callable[[StateChunk], None]] = None,
        lock_per_chunk: bool = False,
        lock_action: EventAction = EventAction.DROP,
        lock_silent: bool = False,
        compress: bool = False,
        trace_id: Optional[int] = None,
        cause_id: Optional[int] = None,
    ):
        """Run ``get{Perflow,Multiflow,Allflows}`` as a timed process.

        The process result is the full chunk list. If ``stream`` is given,
        each chunk is also handed to it the moment serialization finishes
        (the parallelizing optimization of §5.1.3). ``lock_per_chunk``
        implements late locking: an event rule for the chunk's flow is
        installed immediately before that chunk is serialized.
        ``trace_id`` / ``cause_id`` name the operation, and its RPC
        span, the request was issued for; the chunk records and the
        late-lock rules carry them.
        """
        return self.sim.spawn(
            self._get_process(
                scope, flt, stream, lock_per_chunk, lock_action, lock_silent,
                compress, trace_id, cause_id,
            ),
            name="get-%s@%s" % (scope.value, self.name),
        )

    def _get_process(
        self, scope, flt, stream, lock_per_chunk, lock_action, lock_silent,
        compress, trace_id, cause_id,
    ):
        if self._op_busy:
            yield self._op_turn()
        self._op_busy = True
        self._transfers_active += 1
        try:
            if self.failed:
                raise NFCrash("%s is down: %s" % (self.name,
                                                  self.failure_reason))
            yield self.costs.call_overhead_ms
            chunks: List[StateChunk] = []
            for key in self.state_keys(scope, flt):
                chunk = self.export_chunk(scope, key)
                if chunk is None:
                    continue
                if lock_per_chunk and chunk.flowid is not None:
                    self.sb_enable_events(
                        Filter(chunk.flowid.fields, symmetric=True),
                        lock_action,
                        silent=lock_silent,
                        trace_id=trace_id,
                        cause_id=cause_id,
                    )
                size = chunk.size_bytes
                yield self.costs.serialize_ms(size)
                if compress:
                    yield self.costs.compress_ms(size)
                    chunk.compressed = True
                chunks.append(chunk)
                if self.obs.enabled:
                    self.obs.tracer.record(
                        "nf.chunk.export",
                        nf=self.name,
                        scope=chunk.scope.tag,
                        key=repr(chunk.flowid),
                        bytes=size,
                        trace_id=trace_id,
                    )
                if stream is not None:
                    stream(chunk)
            return chunks
        finally:
            self._transfers_active -= 1
            self._op_done()

    def sb_put(
        self, chunks: List[StateChunk], trace_id: Optional[int] = None
    ):
        """Run ``put{Perflow,Multiflow,Allflows}`` as a timed process.

        The process reads ``chunks`` as it applies them: hand it a list
        nothing changes afterwards.
        """
        return self.sim.spawn(
            self._put_process(chunks, trace_id), name=self._put_name
        )

    def _put_process(self, chunks: List[StateChunk], trace_id):
        if self._op_busy:
            yield self._op_turn()
        self._op_busy = True
        self._transfers_active += 1
        try:
            if self.failed:
                raise NFCrash("%s is down: %s" % (self.name,
                                                  self.failure_reason))
            for chunk in chunks:
                size = chunk.size_bytes
                if chunk.compressed:
                    yield self.costs.decompress_ms(size)
                yield self.costs.deserialize_ms(size)
                self.import_chunk(chunk)
                if self.obs.enabled:
                    self.obs.tracer.record(
                        "nf.chunk.import",
                        nf=self.name,
                        scope=chunk.scope.tag,
                        key=repr(chunk.flowid),
                        bytes=size,
                        trace_id=trace_id,
                    )
            return len(chunks)
        finally:
            self._transfers_active -= 1
            self._op_done()

    def sb_delete(self, scope: Scope, flowids: Iterable[FlowId]):
        """Run ``del{Perflow,Multiflow}`` as a timed process."""
        return self.sim.spawn(
            self._delete_process(scope, list(flowids)), name="del@%s" % self.name
        )

    def _delete_process(self, scope: Scope, flowids: List[FlowId]):
        if self._op_busy:
            yield self._op_turn()
        self._op_busy = True
        try:
            yield self.costs.call_overhead_ms
            removed = 0
            for flowid in flowids:
                yield self.costs.delete_ms
                removed += self.delete_by_flowid(scope, flowid)
            return removed
        finally:
            self._op_done()

    # ------------------------------------- state handlers, derived from STATE

    def relevant_fields(self, scope: Scope) -> Tuple[str, ...]:
        """Filter fields matched against state of ``scope`` (§4.2)."""
        specs = self._specs.get(scope.tag)
        return specs[0].fields if specs else FLOW_FIELDS

    def state_keys(self, scope: Scope, flt: Filter) -> List[Any]:
        """Keys of the chunks of ``scope`` matching ``flt``, store by store.

        Keys are opaque: :meth:`export_chunk` takes them back. All-flows
        state is one chunk, keyed by its store's name.
        """
        keys: List[Any] = []
        for spec in self._specs.get(scope.tag, ()):
            if spec.keys is not None:
                keys.extend(spec.keys(self, flt))
            elif scope is ALLFLOWS:
                keys.append(spec.store)
            else:
                store = getattr(self, spec.store)
                keys.extend(store.keys_matching(flt, spec.fields))
        return keys

    def export_chunk(self, scope: Scope, key: Any) -> Optional[StateChunk]:
        """Serialize one chunk; None if the key vanished since enumeration."""
        for spec in self._specs.get(scope.tag, ()):
            if scope is ALLFLOWS:
                key, record = None, getattr(self, spec.store)
            else:
                record = getattr(self, spec.store).get(key)
                if record is None:
                    continue  # the scope's next store may hold it
            if spec.export is not None:
                return spec.export(self, scope, key, record)
            if spec.codec is not None:
                return StateChunk(scope, key, record.to_dict())
            if scope is ALLFLOWS:
                return StateChunk(scope, None, {spec.store: dict(record)})
            return StateChunk(scope, key, record)
        return None

    def import_chunk(self, chunk: StateChunk) -> None:
        """Install or merge one chunk by its scope's import rule."""
        for spec in self._specs.get(chunk.scope.tag, ()):
            if spec.on_import(self, spec, chunk) is not None:
                return

    def delete_by_flowid(self, scope: Scope, flowid: FlowId) -> int:
        """Remove the records keyed by ``flowid``; returns how many.

        All-flows state "is always relevant" (§4.2): nothing deletes it.
        """
        if scope is ALLFLOWS:
            return 0
        removed = 0
        for spec in self._specs.get(scope.tag, ()):
            if spec.on_delete(self, spec, flowid) is not None:
                removed += 1
        return removed

    # ------------------------------------------------------------------ helpers

    def average_proc_ms(self, since: float = 0.0) -> float:
        """Mean per-packet processing duration since time ``since``."""
        samples = [d for (t, d) in self.proc_durations if t >= since]
        if not samples:
            return 0.0
        return sum(samples) / len(samples)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<%s %s>" % (type(self).__name__, self.name)
