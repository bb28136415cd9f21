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
from repro.nf.base import NFCrash
from repro.nf.events import DO_NOT_DROP, EventAction, PacketEvent
from repro.nf.southbound import SouthboundError
from repro.nf.state import Scope
from repro.controller.operation import Operation
from repro.controller.reports import OperationReport
from repro.sim.process import AllOf, AnyOf


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
        self.controller = controller
        self.sim = controller.sim
        self.instances = instances
        self.flt = flt
        self.scopes = scopes
        self.consistency = consistency
        self.group_by = group_by
        self.report = OperationReport(
            kind="share",
            guarantee=consistency,
            filter_repr=repr(flt),
            src="+".join(i.name for i in instances),
            dst="*",
        )
        #: Added per-packet latency samples (completion - arrival), ms.
        self.latency_samples: List[float] = []
        self.packets_serialized = 0
        self.updates_skipped = 0
        #: Reliable mode only: how long a worker waits for an origin's
        #: completion event before declaring it dead (a crashed origin
        #: never raises one; without a bound its group wedges forever).
        self.update_timeout_ms = 250.0
        self.started = self.sim.event("share-started")
        self.stopped = self.sim.event("share-stopped")
        #: Operation-handle surface: a share is "done" once stopped, and
        #: its guarantee slot carries the consistency level.
        self.done = self.stopped
        self.guarantee = consistency
        self._abort_requested = None
        self.obs = controller.obs
        self.trace = self.obs.operation(
            self.sim,
            self.report,
            "share",
            consistency=consistency,
            group_by=group_by,
            filter=repr(flt),
            instances=",".join(i.name for i in instances),
            **shard.trace_attrs,
        )
        # Causally bound stubs (pass-throughs while tracing is off):
        # every RPC and switch command below inherits the session's
        # trace_id, including ones issued from the per-group workers.
        self.instances = [self.trace.bind(c) for c in self.instances]
        self.switch = self.trace.bind(controller.switch_client)
        self._queues: "OrderedDict[Any, Deque[Tuple[str, Packet, float]]]" = (
            OrderedDict()
        )
        self._group_busy: Dict[Any, bool] = {}
        self._awaiting: Dict[Tuple[str, int], Any] = {}
        self._interest_handles: List[int] = []
        self._redirected_entries: List[Tuple[Filter, int, Tuple[str, ...]]] = []
        self._stopping = False
        #: Teardown waits here until every serialization queue drains.
        self._drain_waiters: List[Any] = []
        self.process = self.sim.spawn(self._setup(), name="share-op")

    # -------------------------------------------------------------------- setup

    def _setup(self):
        self.report.started_at = self.sim.now
        try:
            with self.trace.phase("sync", mark="synchronized"):
                yield from self._setup_body()
        except (NFCrash, SouthboundError) as crash:
            # An instance was unreachable before the session went live:
            # fail ``started`` for whoever waits on it and tear down what
            # was set up, so ``done`` fires and the reservation releases.
            self.report.aborted = str(crash)
            self.started.fail(crash)
            self.stop()
            return
        self.started.trigger()

    def _setup_body(self):
        for client in self.instances:
            self._interest_handles.append(
                self.controller.add_event_interest(
                    client.name, self.flt, self._on_event
                )
            )
        if self.consistency == "strong":
            acks = [
                client.enable_events(self.flt, EventAction.DROP)
                for client in self.instances
            ]
            yield AllOf(acks)
        else:
            # Instances process what we send them and signal completion.
            acks = [
                client.enable_events(self.flt, EventAction.PROCESS)
                for client in self.instances
            ]
            yield AllOf(acks)
            # Redirect every relevant forwarding entry to the controller.
            entries = yield self.switch.read_entries(self.flt)
            redirects = []
            for entry_filter, priority, actions in entries:
                targets = {
                    self.controller.instance_at_port(a) for a in actions
                }
                if not targets & {c.name for c in self.instances}:
                    continue
                self._redirected_entries.append((entry_filter, priority, actions))
                redirects.append((entry_filter, ["controller"], priority))
            if redirects:
                if self.controller.batching is not None:
                    # One batched flow-mod instead of len(redirects)
                    # control messages (§8.3).
                    yield self.switch.install_batch(redirects)
                else:
                    yield AllOf([
                        self.switch.install(flt, acts, prio)
                        for flt, acts, prio in redirects
                    ])
            self._interest_handles.append(
                self.controller.add_packet_interest(self.flt, self._on_packet_in)
            )
        # Initial synchronization: pull from every instance, push the union
        # everywhere else (NF-side merge combines).
        all_chunks = []
        for client in self.instances:
            for scope in self.scopes:
                chunks = yield self._get(client, scope)
                for chunk in chunks:
                    self.report.add_chunk(scope.value, chunk.size_bytes)
                all_chunks.append((client.name, chunks))
        puts = []
        for origin_name, chunks in all_chunks:
            if not chunks:
                continue
            for client in self.instances:
                if client.name != origin_name:
                    puts.append(self._put(client, chunks))
        if puts:
            yield AllOf(puts)

    def _get(self, client, scope: Scope, flt: Optional[Filter] = None):
        flt = flt or self.flt
        if scope is Scope.PERFLOW:
            return client.get_perflow(flt)
        if scope is Scope.MULTIFLOW:
            return client.get_multiflow(flt)
        return client.get_allflows()

    def _put(self, client, chunks):
        if not chunks:
            return self.sim.timeout(0.0)
        for chunk in chunks:
            # Replicas hold stale copies of this exact state: the push
            # is an authoritative snapshot, not a disjoint observation
            # set, so receivers must replace rather than merge.
            chunk.snapshot = True
        scope = chunks[0].scope
        if scope is Scope.PERFLOW:
            return client.put_perflow(chunks)
        if scope is Scope.MULTIFLOW:
            return client.put_multiflow(chunks)
        return client.put_allflows(chunks)

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
                        chunks = yield self._get(origin, scope, sync_filter)
                        if not chunks:
                            continue
                        for client in self.instances:
                            if (client.name != origin_name
                                    and not client.nf.failed):
                                puts.append(self._put(client, chunks))
                    if puts:
                        yield AllOf(puts)
                    self.packets_serialized += 1
                    self.latency_samples.append(self.sim.now - enqueued_at)
                    self.report.affected_uids.add(packet.uid)
                    if self.obs.enabled:
                        self.obs.metrics.counter(
                            "ctrl.share.updates"
                        ).inc(1, nf=origin_name)
            except (NFCrash, SouthboundError) as exc:
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
        if self._stopping:
            return self.stopped
        self._stopping = True
        self.sim.spawn(self._teardown(), name="share-stop")
        return self.stopped

    def abort(self, reason: str = "aborted by caller"):
        """Operation-protocol abort: tear the session down."""
        if not self.stopped.triggered and self._abort_requested is None:
            self._abort_requested = reason
            self.report.aborted = "aborted: %s" % reason
        return self.stop()

    def _teardown(self):
        # Drain first: captured packets sitting in the serialization
        # queues (or re-sent and awaiting their PROCESS event) still
        # need the event interests below to complete. Tearing those
        # down early strands the packets — a real loss the conformance
        # kit's mid-stream-stop schedules caught.
        while not self._serialization_idle():
            waiter = self.sim.event("share-drain")
            self._drain_waiters.append(waiter)
            yield waiter
        for handle in self._interest_handles:
            self.controller.remove_interest(handle)
        acks = [
            client.disable_events(self.flt)
            for client in self.instances
            if not client.nf.failed
        ]
        try:
            if acks:
                yield AllOf(acks)
        except (NFCrash, SouthboundError) as exc:
            self.report.notes.append("teardown incomplete: %s" % exc)
        if self._redirected_entries:
            if self.controller.batching is not None:
                yield self.switch.install_batch([
                    (entry_filter, list(actions), priority)
                    for entry_filter, priority, actions
                    in self._redirected_entries
                ])
            else:
                yield AllOf([
                    self.switch.install(
                        entry_filter, list(actions), priority
                    )
                    for entry_filter, priority, actions
                    in self._redirected_entries
                ])
        self.report.finished_at = self.sim.now
        self.trace.finish(aborted=self.report.aborted)
        self.stopped.trigger(self.report)

    # ------------------------------------------------------------------ metrics

    def average_added_latency_ms(self) -> float:
        """Mean serialized-processing latency per packet."""
        if not self.latency_samples:
            return 0.0
        return sum(self.latency_samples) / len(self.latency_samples)
