"""The ``share`` operation (§5.2.2): strong and strict consistency.

Both modes serialize reads/updates of shared state through the
controller, one packet at a time per flow group:

* **strong** — every instance gets ``enableEvents(filter, drop)``; a
  packet's event is queued at the controller, the packet is re-injected
  towards its origin instance marked ``do-not-drop``, the instance
  processes it and raises a completion event, the controller then pulls
  the (possibly updated) state from the origin and pushes it to every
  other instance in parallel, and only then releases the next packet of
  that group. The global update order may differ from switch arrival
  order, but per-instance order is preserved.
* **strict** — the controller must know the switch arrival order, so
  every relevant forwarding entry is redirected to the controller;
  instances get ``enableEvents(filter, process)`` and receive packets
  only via controller packet-outs, in exactly switch order.

Flow groups (the serialization domains) are keyed at the coarsest
granularity of the shared state: per flow, per host pair, or one global
queue (``group_by`` = ``"flow"`` / ``"host"`` / ``"all"``).

This costs ≥13 ms of added latency per packet in the paper; adding more
instances does not increase it because the ``put*`` fan-out is issued in
parallel.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.flowspace.filter import Filter
from repro.net.packet import Packet
from repro.net.switch import CONTROLLER_PORT
from repro.nf.events import DO_NOT_DROP, EventAction, PacketEvent
from repro.nf.southbound import SouthboundError
from repro.nf.state import Scope
from repro.controller.operation import RECOVERABLE, Operation, _plan
from repro.sim.process import AllOf, AnyOf

_MARKS = {"sync": "synchronized"}
#: ``(consistency, half)`` → row. A session walks its set-up row, serves
#: until :meth:`ShareOperation.stop`, then walks its teardown row (a
#: failed set-up goes straight there). ``action`` is what every instance
#: does with a matching packet: strong drops it into an event the
#: controller re-injects; strict processes what the controller sends and
#: signals completion — so strict also redirects every relevant
#: forwarding entry to the controller, and restores them on the way out.
SHARE_PLANS = {
    ("strong", "set-up"): _plan(
        ("sync", "arm-events", "initial-sync"),
        marks=_MARKS, action=EventAction.DROP),
    ("strict", "set-up"): _plan(
        ("sync", "arm-events", "redirect-entries", "initial-sync"),
        marks=_MARKS, action=EventAction.PROCESS),
    ("strong", "teardown"): _plan("drain", "disarm-events"),
    ("strict", "teardown"): _plan(
        "drain", "disarm-events", "restore-entries"),
}


class ShareOperation(Operation):
    """A long-running state-sharing session across ≥2 NF instances.

    As an :class:`~repro.controller.operation.Operation`, its ``done``
    event is an alias of ``stopped`` — a share is complete when torn
    down — and ``abort()`` is :meth:`stop`.
    """

    kind = "share"

    def __init__(
        self,
        controller,
        shard,
        instances: List[Any],
        flt: Filter,
        scopes: Tuple[Scope, ...],
        consistency: str = "strong",
        group_by: str = "host",
    ) -> None:
        if len(instances) < 2:
            raise ValueError("share requires at least two instances")
        if consistency not in ("strong", "strict"):
            raise ValueError("consistency must be 'strong' or 'strict'")
        if group_by not in ("flow", "host", "all"):
            raise ValueError("group_by must be 'flow', 'host', or 'all'")
        # The guarantee slot carries the consistency level.
        super().__init__(
            controller, shard, flt, SHARE_PLANS[consistency, "set-up"],
            dict(consistency=consistency, group_by=group_by,
                 instances=",".join(i.name for i in instances)),
            guarantee=consistency, instances=instances,
            ends=("+".join(i.name for i in instances), "*"),
        )
        self.scopes = scopes
        self.consistency = consistency
        self.group_by = group_by
        #: Added per-packet latency samples (completion - arrival), ms.
        self.latency_samples: List[float] = []
        self.packets_serialized = 0
        self.updates_skipped = 0
        #: Reliable mode only: how long a worker waits for an origin's
        #: completion event before declaring it dead (a crashed origin
        #: never raises one; without a bound its group wedges forever).
        self.update_timeout_ms = 250.0
        self.started = self.sim.event("share-started")
        #: A share is "done" once stopped.
        self.stopped = self.done
        self.done.add_callback(self._settle_started)
        self._stop_requested = self.sim.event("share-stop")
        self._queues: "OrderedDict[Any, Deque[Tuple[str, Packet, float]]]" = (
            OrderedDict()
        )
        self._group_busy: Dict[Any, bool] = {}
        self._awaiting: Dict[Tuple[str, int], Any] = {}
        self._redirected_entries: List[Tuple[Filter, int, Tuple[str, ...]]] = []
        #: Teardown waits here until every serialization queue drains.
        self._drain_waiters: List[Any] = []
        #: origin name -> its bound ``ctrl.share.updates`` series.
        self._update_counters: Dict[str, Any] = {}

    def _settle_started(self, done) -> None:
        """A set-up that died of an internal error fails ``started`` too,
        so nobody is left waiting on it."""
        if not self.started.triggered:
            self.started.fail(done.exception)

    # ------------------------------------------------------------------- set-up

    def _step_arm_events(self, parent):
        for client in self.instances:
            self._interest_handles.append(
                self.controller.add_event_interest(
                    client.name, self.flt, self._on_event
                )
            )
        yield AllOf([
            client.enable_events(self.flt, self.plan.action)
            for client in self.instances
        ])

    def _step_redirect_entries(self, parent):
        entries = yield self.switch.read_entries(self.flt)
        names = {client.name for client in self.instances}
        for entry in entries:
            _filter, _priority, actions = entry
            if names & {self.controller.instance_at_port(a) for a in actions}:
                self._redirected_entries.append(entry)
        yield from self._install_entries(lambda actions: [CONTROLLER_PORT])
        self._interest_handles.append(
            self.controller.add_packet_interest(self.flt, self._on_packet_in)
        )

    def _install_entries(self, actions_for):
        """(Re)install every redirected entry with ``actions_for(its own)``:
        one batched flow-mod when batching is on (§8.3), else one each."""
        mods = [
            (entry_filter, actions_for(actions), priority)
            for entry_filter, priority, actions in self._redirected_entries
        ]
        if not mods:
            return
        if self.controller.batching is not None:
            yield self.switch.install_batch(mods)
        else:
            yield AllOf([self.switch.install(*mod) for mod in mods])

    def _step_initial_sync(self, parent):
        # Pull from every instance, push the union everywhere else
        # (NF-side merge combines).
        pulled = []
        for client in self.instances:
            for scope in self.scopes:
                chunks = yield from self._pull(client, scope, self.flt)
                for chunk in chunks:
                    self.report.add_chunk(scope.value, chunk.size_bytes)
                pulled.append((client.name, scope, chunks))
        puts = [
            client.put(scope, chunks)
            for origin_name, scope, chunks in pulled if chunks
            for client in self.instances if client.name != origin_name
        ]
        if puts:
            yield AllOf(puts)

    def _pull(self, client, scope: Scope, flt: Filter):
        chunks = yield client.get(scope, flt)
        for chunk in chunks:
            # Replicas hold stale copies of this exact state: the push
            # is an authoritative snapshot, not a disjoint observation
            # set, so receivers must replace rather than merge.
            chunk.snapshot = True
        return chunks

    # ----------------------------------------------------------------- dispatch

    def _group_key(self, packet: Packet) -> Any:
        if self.group_by == "all":
            return "all"
        ft = packet.five_tuple
        if self.group_by == "host":
            return tuple(sorted((ft.src_ip, ft.dst_ip)))
        canonical = ft.canonical()
        return (
            canonical.src_ip,
            canonical.src_port,
            canonical.dst_ip,
            canonical.dst_port,
            canonical.proto,
        )

    def _on_event(self, event: PacketEvent) -> None:
        if event.action_taken is EventAction.PROCESS:
            waiter = self._awaiting.pop((event.nf_name, event.packet.uid), None)
            if waiter is not None:
                waiter.trigger()
            return
        # A DROP event: a packet awaiting serialized processing (strong).
        self._enqueue(event.nf_name, event.packet)

    def _on_packet_in(self, packet: Packet) -> None:
        # Strict mode: the controller sees packets in switch order and
        # routes each to the instance its original rule selected.
        target = self._original_target(packet)
        if target is not None:
            self._enqueue(target, packet)

    def _original_target(self, packet: Packet) -> Optional[str]:
        best: Optional[Tuple[int, str]] = None
        for entry_filter, priority, actions in self._redirected_entries:
            if entry_filter.matches_packet(packet):
                for action in actions:
                    name = self.controller.instance_at_port(action)
                    if name and (best is None or priority > best[0]):
                        best = (priority, name)
        return None if best is None else best[1]

    def _enqueue(self, origin: str, packet: Packet) -> None:
        key = self._group_key(packet)
        self._queues.setdefault(key, deque()).append(
            (origin, packet, self.sim.now)
        )
        if not self._group_busy.get(key):
            self._group_busy[key] = True
            self.sim.spawn(self._worker(key), name="share-worker")

    # ------------------------------------------------------------------- worker

    def _worker(self, key):
        queue = self._queues[key]
        while queue:
            origin_name, packet, enqueued_at = queue.popleft()
            origin = next(c for c in self.instances if c.name == origin_name)
            try:
                with self.trace.phase(
                    "update",
                    mark=None,
                    nf=origin_name,
                    uid=packet.uid,
                    group=str(key),
                ):
                    if self.consistency == "strong":
                        packet.mark(DO_NOT_DROP)
                    waiter = self.sim.event("share-processed")
                    self._awaiting[(origin_name, packet.uid)] = waiter
                    self.switch.packet_out(
                        packet, self.controller.port_of(origin_name)
                    )
                    if self.controller.reliable:
                        # A crashed origin never raises its completion
                        # event; bound the wait so the group survives.
                        yield AnyOf(
                            [waiter, self.sim.timeout(self.update_timeout_ms)]
                        )
                        if not waiter.triggered:
                            self._awaiting.pop(
                                (origin_name, packet.uid), None
                            )
                            raise SouthboundError(
                                "share update at %s timed out" % origin_name,
                                origin_name,
                            )
                    else:
                        yield waiter
                    # Pull the updated state from the origin and push it
                    # to peers in parallel (why added latency is flat in
                    # instance count). If the get fails, NO replica is
                    # updated — live replicas all apply or all skip, so
                    # strong consistency survives an origin crash.
                    sync_filter = Filter.for_flow(
                        packet.five_tuple, symmetric=True
                    )
                    puts = []
                    for scope in self.scopes:
                        chunks = yield from self._pull(
                            origin, scope, sync_filter
                        )
                        if not chunks:
                            continue
                        for client in self.instances:
                            if (client.name != origin_name
                                    and not client.nf.failed):
                                puts.append(client.put(scope, chunks))
                    if puts:
                        yield AllOf(puts)
                    self.packets_serialized += 1
                    self.latency_samples.append(self.sim.now - enqueued_at)
                    self.report.affected_uids.add(packet.uid)
                    if self.obs.enabled:
                        updates = self._update_counters.get(origin_name)
                        if updates is None:
                            updates = self.obs.metrics.counter(
                                "ctrl.share.updates"
                            ).bind(nf=origin_name)
                            self._update_counters[origin_name] = updates
                        updates.inc()
            except RECOVERABLE as exc:
                # The origin (or a peer) died mid-update: skip this
                # packet's update and keep serializing the rest of the
                # group instead of wedging the whole session.
                self.updates_skipped += 1
                self.report.notes.append(
                    "update for pkt#%d skipped: %s" % (packet.uid, exc)
                )
                if self.obs.enabled:
                    self.obs.metrics.counter(
                        "ctrl.share.updates_skipped"
                    ).inc(1, nf=origin_name)
        self._group_busy[key] = False
        self._notify_drained()

    def _serialization_idle(self) -> bool:
        return (
            not self._awaiting
            and not any(self._queues.values())
            and not any(self._group_busy.values())
        )

    def _notify_drained(self) -> None:
        if self._drain_waiters and self._serialization_idle():
            waiters, self._drain_waiters = self._drain_waiters, []
            for waiter in waiters:
                waiter.trigger()

    # --------------------------------------------------------------------- stop

    def stop(self):
        """Tear the session down; the ``stopped`` event fires when done."""
        if not self._stop_requested.triggered:
            self._stop_requested.trigger()
        return self.stopped

    def abort(self, reason: str = "aborted by caller"):
        """Operation-protocol abort: tear the session down."""
        if not self.stopped.triggered and self._abort_requested is None:
            self._abort_requested = reason
            self.report.aborted = "aborted: %s" % reason
        return self.stop()

    def _cleanup(self):
        # Set up: the session is live, its per-group workers serialize.
        self.started.trigger()
        yield from self._teardown()

    def _recover(self, crash):
        if self.started.triggered:
            return  # the teardown itself failed: nothing left to unwind
        # An instance was unreachable before the session went live:
        # fail ``started`` for whoever waits on it and tear down what
        # was set up, so ``done`` fires and the reservation releases.
        self.started.fail(crash)
        self.stop()
        yield from self._teardown()

    def _teardown(self):
        yield self._stop_requested
        yield from self._walk(
            SHARE_PLANS[self.consistency, "teardown"].steps, self.trace.root
        )
        self.report.finished_at = self.sim.now

    def _step_drain(self, parent):
        # Captured packets sitting in the serialization queues (or
        # re-sent and awaiting their PROCESS event) still need the event
        # interests to complete. Tearing those down early strands the
        # packets — a real loss the conformance kit's mid-stream-stop
        # schedules caught.
        while not self._serialization_idle():
            waiter = self.sim.event("share-drain")
            self._drain_waiters.append(waiter)
            yield waiter

    def _step_disarm_events(self, parent):
        self._drop_interests()
        acks = [
            client.disable_events(self.flt)
            for client in self.instances
            if not client.nf.failed
        ]
        try:
            if acks:
                yield AllOf(acks)
        except RECOVERABLE as exc:
            self.report.notes.append("teardown incomplete: %s" % exc)

    def _step_restore_entries(self, parent):
        yield from self._install_entries(list)

    # ------------------------------------------------------------------ metrics

    def average_added_latency_ms(self) -> float:
        """Mean serialized-processing latency per packet."""
        if not self.latency_samples:
            return 0.0
        return sum(self.latency_samples) / len(self.latency_samples)
