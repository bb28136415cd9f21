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

Subclasses implement five handlers — :meth:`process_packet`,
:meth:`state_keys`, :meth:`export_chunk`, :meth:`import_chunk`,
:meth:`delete_by_flowid` — mirroring how the prototype added NF-specific
handlers to Bro, PRADS, Squid, and iptables (§7).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.flowspace.filter import Filter, FlowId
from repro.nf.costs import NFCostModel
from repro.nf.events import EventAction, EventRule, PacketEvent
from repro.nf.state import Scope, StateChunk
from repro.net.channel import AtMostOnce
from repro.net.packet import Packet
from repro.obs import NULL_OBS
from repro.sim.core import Event, Simulator


class NFCrash(Exception):
    """Raised by an NF's packet handler when required state is missing.

    Table 1's "ignore multi-flow state" configuration makes Squid crash;
    this exception is how that failure mode surfaces in the reproduction.
    """


class NetworkFunction:
    """Base class for all simulated NFs."""

    #: Flowid fields this NF considers when matching *state* against a
    #: filter (§4.2: "only fields relevant to the state are matched").
    #: Subclasses narrow this per scope via :meth:`relevant_fields`.
    DEFAULT_RELEVANT_FIELDS = ("nw_src", "nw_dst", "nw_proto", "tp_src", "tp_dst")

    #: When False, the per-packet ground-truth logs (``processing_log``,
    #: ``proc_durations``) are not recorded — scale benchmarks opt out so
    #: long runs do not grow memory without bound.
    record_ground_truth = True

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
        self.event_retransmit_ms = 15.0
        self.event_max_attempts = 8
        self._event_seq = 0
        self._unacked_events: Dict[int, PacketEvent] = {}
        self.events_retransmitted = 0
        self.events_abandoned = 0
        # Transfer bookkeeping.
        self._transfers_active = 0
        self._op_tail: Optional[Event] = None
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
        #: (completion_time, packet_uid) for every packet actually processed.
        self.processing_log: List[Tuple[float, int]] = []
        #: (time, packet_uid) for every packet held by a BUFFER rule.
        self.buffered_log: List[Tuple[float, int]] = []
        #: per-packet processing durations (for §8.2.1's overhead metric).
        self.proc_durations: List[Tuple[float, float]] = []

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
                # Never gated at the source: drops are rare and exactly
                # the packets the auditors need. (The trace sampler keeps
                # it with the operation whose rule caused it: the stamp.)
                # Last: a snapshot taken from inside it (a violation's
                # bundle) must see all three counters above moved.
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
            self.buffered_log.append((self.sim.now, packet.uid))
            obs = self.obs
            if obs.enabled:
                flow = obs.gated_flow(packet)
                if flow is not None:
                    obs.tracer.record("nf.buffer", nf=self.name,
                                      uid=packet.uid, flow=flow,
                                      trace_id=rule.trace_id)
            self._rule_buffers.setdefault(id(rule), []).append(packet)
            self.sim.schedule(self.costs.disposition_ms, self._drain)

    def _begin_processing(self, packet: Packet, rule: Optional[EventRule]) -> None:
        duration = self.costs.effective_proc_ms(self._transfers_active > 0)
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
            self.processing_log.append((self.sim.now, packet.uid))
            self.proc_durations.append((self.sim.now, duration))
        obs = self.obs
        if obs.enabled:
            flow = obs.gated_flow(packet)
            if flow is not None:
                obs.tracer.record("nf.process", nf=self.name,
                                  uid=packet.uid, flow=flow)
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
            self.event_retransmit_ms * attempt,
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

    def _chain_operation(self) -> Tuple[Optional[Event], Event]:
        """FIFO-serialize transfer operations on this NF (one CPU)."""
        previous = self._op_tail
        gate = Event(self.sim, self._gate_name)
        self._op_tail = gate
        return previous, gate

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
        previous, gate = self._chain_operation()
        if previous is not None and not previous.triggered:
            yield previous
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
                yield self.costs.serialize_ms(chunk.size_bytes)
                if compress:
                    yield self.costs.compress_ms(chunk.size_bytes)
                    chunk.compressed = True
                chunks.append(chunk)
                if self.obs.enabled:
                    self.obs.tracer.record(
                        "nf.chunk.export",
                        nf=self.name,
                        scope=chunk.scope.value,
                        key=repr(chunk.flowid),
                        bytes=chunk.size_bytes,
                        trace_id=trace_id,
                    )
                if stream is not None:
                    stream(chunk)
            return chunks
        finally:
            self._transfers_active -= 1
            gate.trigger()

    def sb_put(
        self, chunks: Iterable[StateChunk], trace_id: Optional[int] = None
    ):
        """Run ``put{Perflow,Multiflow,Allflows}`` as a timed process."""
        return self.sim.spawn(
            self._put_process(list(chunks), trace_id), name=self._put_name
        )

    def _put_process(self, chunks: List[StateChunk], trace_id):
        previous, gate = self._chain_operation()
        if previous is not None and not previous.triggered:
            yield previous
        self._transfers_active += 1
        try:
            if self.failed:
                raise NFCrash("%s is down: %s" % (self.name,
                                                  self.failure_reason))
            for chunk in chunks:
                if chunk.compressed:
                    yield self.costs.decompress_ms(chunk.size_bytes)
                yield self.costs.deserialize_ms(chunk.size_bytes)
                self.import_chunk(chunk)
                if self.obs.enabled:
                    self.obs.tracer.record(
                        "nf.chunk.import",
                        nf=self.name,
                        scope=chunk.scope.value,
                        key=repr(chunk.flowid),
                        bytes=chunk.size_bytes,
                        trace_id=trace_id,
                    )
            return len(chunks)
        finally:
            self._transfers_active -= 1
            gate.trigger()

    def sb_delete(self, scope: Scope, flowids: Iterable[FlowId]):
        """Run ``del{Perflow,Multiflow}`` as a timed process."""
        return self.sim.spawn(
            self._delete_process(scope, list(flowids)), name="del@%s" % self.name
        )

    def _delete_process(self, scope: Scope, flowids: List[FlowId]):
        previous, gate = self._chain_operation()
        if previous is not None and not previous.triggered:
            yield previous
        try:
            yield self.costs.call_overhead_ms
            removed = 0
            for flowid in flowids:
                yield self.costs.delete_ms
                removed += self.delete_by_flowid(scope, flowid)
            return removed
        finally:
            gate.trigger()

    # ----------------------------------------------------- NF-specific handlers

    def process_packet(self, packet: Packet) -> None:
        """Apply this NF's packet-processing logic (state updates happen here)."""
        raise NotImplementedError

    def state_keys(self, scope: Scope, flt: Filter) -> List[Any]:
        """Keys of all state chunks of ``scope`` matching ``flt``.

        Keys are opaque to the framework; they only need to be accepted by
        :meth:`export_chunk`. Implementations should apply §4.2's
        relevant-fields rule when matching.
        """
        raise NotImplementedError

    def export_chunk(self, scope: Scope, key: Any) -> Optional[StateChunk]:
        """Serialize one chunk; None if the key vanished since enumeration."""
        raise NotImplementedError

    def import_chunk(self, chunk: StateChunk) -> None:
        """Install or merge one incoming chunk (merging is NF-specific)."""
        raise NotImplementedError

    def delete_by_flowid(self, scope: Scope, flowid: FlowId) -> int:
        """Remove state identified by ``flowid``; returns chunks removed."""
        raise NotImplementedError

    def relevant_fields(self, scope: Scope) -> Tuple[str, ...]:
        """Filter fields meaningful for state of ``scope`` at this NF."""
        return self.DEFAULT_RELEVANT_FIELDS

    # ------------------------------------------------------------------ helpers

    def average_proc_ms(self, since: float = 0.0) -> float:
        """Mean per-packet processing duration since time ``since``."""
        samples = [d for (t, d) in self.proc_durations if t >= since]
        if not samples:
            return 0.0
        return sum(samples) / len(samples)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<%s %s>" % (type(self).__name__, self.name)
