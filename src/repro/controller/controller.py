"""The OpenNF controller.

Encapsulates distributed state control (§3): it owns the southbound
clients for every registered NF, the switch client, and the dispatch of
NF events and switch packet-ins to whichever northbound operation is
interested in them. The northbound API (§5) is exposed as methods:

* :meth:`move` — transfer state *and* input for a set of flows, with a
  choice of guarantee (none / loss-free / loss-free+order-preserving)
  and the parallelizing / early-release optimizations;
* :meth:`copy` — clone state between instances (eventual consistency is
  built by re-copying, §5.2.1);
* :meth:`share` — keep state strongly or strictly consistent across
  instances by serializing updates through the controller (§5.2.2);
* :meth:`notify` — subscribe a control application to state-update hints.

Inbound messages — NF events, switch packet-ins, and streamed state
chunks — all pass through a serialized inbox costing ``msg_proc_ms``
each, modeling the prototype's single-threaded message handling: §8.3's
profile found controller "threads are busy reading from sockets most of
the time", and this queue is why heavy event traffic stretches
operations and why Figure 13's per-move time grows with concurrency.

The controller runs ``shards`` such message loops (:class:`Shard`), each
owning a slice of flow space (:mod:`repro.controller.sharding`). What
is plane-wide lives on the controller once — registration, interests,
the switch connection, per-NF event sequencing, routing and the
admission entry :meth:`OpenNFController._submit`; a shard holds only its
inbox, its admission table, and its labels. The default single shard is
the paper's controller: its shard map has one entry, so routing never
looks at a header and admission never finds a foreign conflict.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.costs import (
    CHANNEL_BANDWIDTH_BYTES_PER_MS, EVENT_GAP_TIMEOUT_MS, MSG_PROC_MS,
    NF_CHANNEL_LATENCY_MS, SW_CHANNEL_LATENCY_MS)
from repro.flowspace.filter import Filter
from repro.net.channel import BatchConfig, ControlChannel
from repro.net.packet import Packet
from repro.net.switch import Switch
from repro.nf.base import NetworkFunction
from repro.nf.events import EVENT_ACK_BYTES, PacketEvent
from repro.nf.southbound import NFClient
from repro.nf.state import normalize_scope
from repro.controller.chain import ChainOperation
from repro.controller.copy import CopyOperation
from repro.controller.forwarding import SwitchClient
from repro.controller.move import Guarantee, MoveOperation
from repro.controller.operation import DeferredOperation, Operation
from repro.controller.pump import ChunkPump
from repro.controller.share import ShareOperation
from repro.controller.sharding import CrossShardOperation, ShardMap
from repro.obs import NULL_OBS
from repro.sim.core import Simulator

_interest_ids = itertools.count(1)


class _Interest:
    __slots__ = ("handle", "nf_name", "filter", "callback")

    def __init__(self, nf_name: Optional[str], flt: Optional[Filter], callback):
        self.handle = next(_interest_ids)
        self.nf_name = nf_name
        self.filter = flt
        self.callback = callback

    def matches_event(self, event: PacketEvent) -> bool:
        if self.nf_name is not None and self.nf_name != event.nf_name:
            return False
        return self.filter is None or self.filter.matches_packet(event.packet)

    def matches_packet(self, packet: Packet) -> bool:
        return self.filter is None or self.filter.matches_packet(packet)


class Shard:
    """One serialized message loop and the operations admitted on it.

    Holds only what is genuinely per-shard: the ``msg_proc_ms`` inbox,
    the admission table of in-flight operation filters, and the label
    its traces and metrics carry. Operations keep a reference to their
    home shard for exactly these (chunk streaming, drain barriers,
    deferral re-checks); everything else goes through the controller.
    """

    def __init__(self, controller: "OpenNFController", shard_id: int,
                 labelled: bool) -> None:
        self.controller = controller
        self.sim = controller.sim
        self.shard_id = shard_id
        #: Extra attributes on this shard's operation traces and metric
        #: series; empty for a single shard, so its output is unlabelled.
        self.trace_attrs: Dict[str, str] = (
            {"shard": str(shard_id)} if labelled else {}
        )
        #: Serialized inbound-message handling loop (events, packet-ins,
        #: streamed chunks), msg_proc_ms per message. Dispatch is
        #: plane-wide: interests are shared by every shard.
        self.inbox = ChunkPump(
            self.sim, controller.msg_proc_ms, controller._handle_inbox_item
        )
        # Inbox arrivals by message kind (``ctrl.inbox``).
        self.events_received = 0
        self.packet_ins_received = 0
        self.chunks_received = 0
        self.chunk_frames_received = 0
        #: Admission table of in-flight operation filters (moves, copies,
        #: AND shares): two simultaneous operations over overlapping flow
        #: space would race on rules and state; the later one is deferred
        #: until the earlier finishes. (handle -> (filter, done event))
        self._admission: Dict[int, Tuple[Filter, Any]] = {}
        self._operation_handle_counter = 0
        controller.obs.add_collector(self._publish)

    def _publish(self, reg) -> None:
        """Pull collector: this shard's inbox arrivals."""
        reg.counter("ctrl.inbox")  # listed by every snapshot, empty or not
        for kind, count in (
            ("event", self.events_received),
            ("packet-in", self.packet_ins_received),
            ("chunk", self.chunks_received),
            ("chunk-frame", self.chunk_frames_received),
        ):
            reg.publish("ctrl.inbox", count, kind=kind, **self.trace_attrs)

    # -------------------------------------------------------------------- inbox

    def enqueue_chunk(self, handler: Callable[[Any], None], chunk: Any) -> None:
        """Route a streamed state chunk through the serialized inbox."""
        self.chunks_received += 1
        self.inbox.push(("chunk", chunk, handler))

    def enqueue_chunks(
        self, handler: Callable[[List[Any]], None], chunks: List[Any]
    ) -> None:
        """Route a multi-chunk frame through the inbox as ONE item.

        The §8.3 fast path: a frame of N chunks costs one ``msg_proc_ms``
        handling slot instead of N, and ``handler`` receives the whole
        list at once.
        """
        chunks = list(chunks)
        if not chunks:
            return
        self.chunk_frames_received += 1
        self.inbox.push(("chunk", chunks, handler), weight=len(chunks))

    # ---------------------------------------------------------------- admission

    def _conflicting(self, flt: Filter,
                     before: Optional[int] = None) -> List[Any]:
        """Done-events of in-flight operations overlapping ``flt``.

        ``before`` bounds the scan to handles admitted earlier than the
        given one — a deferred operation re-checking conflicts at launch
        must only wait on *older* entries (its own reservation, and
        reservations of operations queued behind it, would otherwise
        deadlock the FIFO chain).
        """
        return [
            done for handle, (active_filter, done)
            in self._admission.items()
            if (before is None or handle < before)
            and active_filter.intersects(flt)
        ]

    def _reserve(self, flt: Filter, done) -> int:
        """Hold ``flt`` in the admission table until ``done`` triggers.

        Used both for live operations and for deferred ones: reserving
        the deferred filter at submission time is what makes deferral
        FIFO — a later overlapping operation defers behind the
        reservation instead of leapfrogging it.
        """
        self._operation_handle_counter += 1
        handle = self._operation_handle_counter
        self._admission[handle] = (flt, done)

        def _release(_evt, _handle=handle):
            self._admission.pop(_handle, None)

        done.add_callback(_release)
        return handle


class OpenNFController:
    """Northbound API provider and event/packet-in dispatcher."""

    def __init__(
        self,
        sim: Simulator,
        switch: Optional[Switch] = None,
        msg_proc_ms: float = MSG_PROC_MS,
        nf_channel_bandwidth_bytes_per_ms: float = CHANNEL_BANDWIDTH_BYTES_PER_MS,
        obs=None,
        faults=None,
        batching: Optional[BatchConfig] = None,
        offload: bool = False,
        shards: int = 1,
    ) -> None:
        self.sim = sim
        self.obs = obs or NULL_OBS
        #: Data-plane offload (switch-local XFSM buffering): when True,
        #: loss-free and order-preserving moves install a
        #: buffer-until-release machine at the switch instead of
        #: buffering per-packet events at the controller. The switch
        #: connection is plane-wide, so an ownership handoff hands the
        #: machine along with the flow space.
        self.offload = bool(offload)
        #: Optional :class:`repro.net.channel.BatchConfig`. Installing
        #: one turns on the §8.3 fast path everywhere: queued sends
        #: coalesce into frames, chunk streams ship multi-chunk frames
        #: paying one inbox slot each, and move/copy pipeline their
        #: get→put hand-off. ``None`` keeps the classic per-message
        #: path byte-identical.
        self.batching = batching
        self.msg_proc_ms = msg_proc_ms
        self.nf_channel_bandwidth = nf_channel_bandwidth_bytes_per_ms
        #: Optional :class:`repro.faults.FaultPlan`. Installing one turns
        #: on the reliability machinery end to end: southbound retries
        #: with request ids, sequenced/acked NF events, and channel-level
        #: fault injection. ``None`` (default) is the classic fast path —
        #: no request ids, no acks, byte-identical message timeline.
        self.faults = faults
        self.reliable = faults is not None
        #: Per-NF in-order reassembly for sequenced events:
        #: nf_name -> {"next": seq, "pending": {seq: event}}.
        self._event_reorder: Dict[str, Dict[str, Any]] = {}
        #: nf_name -> sequenced events dropped as duplicates / gaps skipped.
        self.event_duplicates: Dict[str, int] = defaultdict(int)
        self.event_gaps_skipped: Dict[str, int] = defaultdict(int)
        self.clients: Dict[str, NFClient] = {}
        self.nf_ports: Dict[str, str] = {}
        #: Incrementally maintained inverse of :attr:`nf_ports`, so
        #: per-packet port resolution is O(1) instead of a linear scan.
        self._port_to_nf: Dict[str, str] = {}
        self._event_interests: List[_Interest] = []
        self._packet_interests: List[_Interest] = []
        #: Fallback handler for events no operation claimed (used by apps).
        self.default_event_handler: Optional[Callable[[PacketEvent], None]] = None
        self.shard_map = ShardMap(shards)
        #: The per-shard records, indexed by shard id.
        self.replicas: List[Shard] = [
            Shard(self, index, labelled=shards > 1) for index in range(shards)
        ]
        #: Operation-lifetime routing claims: (filter, shard) in
        #: submission order; oldest matching claim routes a message.
        self._claims: List[Tuple[Filter, Shard]] = []
        #: Persistent ownership overrides left by completed handoffs;
        #: newest wins. Bounded: recording an override drops the older
        #: ones it covers.
        self._ownership: List[Tuple[Filter, Shard]] = []
        self.handoffs_completed = 0
        #: Operations deferred by admission control, by (home shard,
        #: kind, whether another shard held the flow space).
        self.deferrals: Dict[Tuple[Shard, str, bool], int] = defaultdict(int)
        self.switch: Optional[Switch] = None
        self.switch_client: Optional[SwitchClient] = None
        if switch is not None:
            self.attach_switch(switch)
        self.obs.add_collector(self._publish)

    @property
    def events_received(self) -> int:
        """NF events accepted into any shard's inbox."""
        return sum(shard.events_received for shard in self.replicas)

    @property
    def operations_queued_for_conflict(self) -> int:
        """Total operations (any kind) deferred by admission control."""
        return sum(self.deferrals.values())

    def _publish(self, reg) -> None:
        """Pull collector: the plane-wide counts above."""
        for nf, count in self.event_duplicates.items():
            reg.publish("ctrl.events.duplicates", count, nf=nf)
        for nf, count in self.event_gaps_skipped.items():
            reg.publish("ctrl.events.gap_skipped", count, nf=nf)
        for (home, kind, crossed), count in self.deferrals.items():
            labels = dict(home.trace_attrs, kind=kind)
            if crossed:
                labels["cross_shard"] = "true"
            reg.publish("ctrl.admission.deferred", count, **labels)

    # -------------------------------------------------------------------- wiring

    def _attach_faults(self, channel: ControlChannel) -> None:
        """Install the fault plan's injector for this channel, if any."""
        if self.faults is not None and channel.faults is None:
            channel.faults = self.faults.injector_for(channel.name)

    def _attach_batching(self, channel: ControlChannel) -> None:
        """Install the batching config on this channel, if any."""
        if self.batching is not None and channel.batching is None:
            channel.batching = self.batching

    def attach_switch(self, switch: Switch) -> None:
        """Connect the controller to its SDN switch."""
        self.switch = switch
        self.switch_client = SwitchClient(
            self.sim,
            switch,
            to_switch=ControlChannel(
                self.sim, name="ctrl->sw",
                latency_ms=SW_CHANNEL_LATENCY_MS, obs=self.obs,
            ),
            from_switch=ControlChannel(
                self.sim, name="sw->ctrl",
                latency_ms=SW_CHANNEL_LATENCY_MS, obs=self.obs,
            ),
            obs=self.obs,
            reliable=self.reliable,
        )
        self._attach_faults(self.switch_client.to_switch)
        self._attach_faults(self.switch_client.from_switch)
        self._attach_batching(self.switch_client.to_switch)
        self._attach_batching(self.switch_client.from_switch)
        switch.set_packet_in_handler(self.handle_packet_in)

    def register_nf(self, nf: NetworkFunction, port: Optional[str] = None) -> NFClient:
        """Create the southbound client for ``nf`` and wire its event path.

        ``port`` names the switch port that reaches this instance (needed
        for rule installs and packet-outs targeting it). Two live NFs
        cannot claim the same port: the second registration raises
        instead of silently shadowing the first in packet-in resolution.
        Re-registering the *same* name (a restarted instance) is allowed
        and resets its event-sequencing state, so the replacement's
        events (seq restarting at 1) are not dropped as duplicates.
        """
        nf_port = port if port is not None else nf.name
        holder = self._port_to_nf.get(nf_port)
        if holder is not None and holder != nf.name:
            raise ValueError(
                "port %r already claimed by NF %r (registering %r)"
                % (nf_port, holder, nf.name)
            )
        if nf.name in self.clients:
            # A replacement instance under the same name: drop the old
            # port binding and start its event stream from a clean slate.
            self._port_to_nf.pop(self.nf_ports.get(nf.name), None)
            self._reset_event_reorder(nf.name)
        client = NFClient(
            self.sim,
            nf,
            to_nf=ControlChannel(
                self.sim,
                name="ctrl->%s" % nf.name,
                latency_ms=NF_CHANNEL_LATENCY_MS,
                bandwidth_bytes_per_ms=self.nf_channel_bandwidth,
                obs=self.obs,
            ),
            from_nf=ControlChannel(
                self.sim,
                name="%s->ctrl" % nf.name,
                latency_ms=NF_CHANNEL_LATENCY_MS,
                bandwidth_bytes_per_ms=self.nf_channel_bandwidth,
                obs=self.obs,
            ),
            obs=self.obs,
            reliable=self.reliable,
            batch=self.batching,
        )
        self._attach_faults(client.to_nf)
        self._attach_faults(client.from_nf)
        nf.connect_controller(client.from_nf, self.handle_nf_event)
        if self.reliable:
            # Events get sequence numbers, controller acks, and NF-side
            # retransmission; this controller reassembles them in order.
            nf.reliable_events = True
        if self.faults is not None:
            for spec in self.faults.crashes_for(nf.name):
                if spec.at_ms is not None:
                    self.sim.schedule(
                        max(0.0, spec.at_ms - self.sim.now),
                        self._crash_nf, nf, spec.reason,
                    )
                else:
                    nf.crash_on_nth_rpc(spec.on_nth_rpc, spec.reason)
        # A fail-stopped instance is gone for good: retire its event
        # reorder buffer so a replacement registered under the same name
        # starts sequencing from scratch (see the restart bug above).
        nf.add_failure_listener(self._on_nf_failed)
        self.clients[nf.name] = client
        self.nf_ports[nf.name] = nf_port
        self._port_to_nf[nf_port] = nf.name
        return client

    def _on_nf_failed(self, nf: NetworkFunction) -> None:
        self._reset_event_reorder(nf.name)

    def _reset_event_reorder(self, name: str) -> None:
        """Drop per-NF sequencing state; release any buffered stragglers.

        Events already buffered out of order were genuinely raised by the
        (now dead or replaced) instance — deliver them in sequence order
        rather than losing them with the buffer.
        """
        state = self._event_reorder.pop(name, None)
        if state is None:
            return
        for seq in sorted(state["pending"]):
            self._deliver_event(state["pending"][seq])

    @staticmethod
    def _crash_nf(nf: NetworkFunction, reason: str) -> None:
        if not nf.failed:
            nf.fail(reason)

    def client(self, nf: Any) -> NFClient:
        """Resolve an NF instance, client, or name to its client."""
        if isinstance(nf, NFClient):
            return nf
        name = nf.name if isinstance(nf, NetworkFunction) else nf
        return self.clients[name]

    def port_of(self, nf: Any) -> str:
        """Switch port that reaches the given NF."""
        name = nf if isinstance(nf, str) else nf.name
        return self.nf_ports[name]

    # ------------------------------------------------------------------ dispatch

    def add_event_interest(
        self, nf_name: Optional[str], flt: Optional[Filter], callback
    ) -> int:
        """Route matching NF events to ``callback``; newest interest wins."""
        interest = _Interest(nf_name, flt, callback)
        self._event_interests.append(interest)
        return interest.handle

    def add_packet_interest(self, flt: Optional[Filter], callback) -> int:
        """Route matching switch packet-ins to ``callback``."""
        interest = _Interest(None, flt, callback)
        self._packet_interests.append(interest)
        return interest.handle

    def remove_interest(self, handle: int) -> None:
        self._event_interests = [
            i for i in self._event_interests if i.handle != handle
        ]
        self._packet_interests = [
            i for i in self._packet_interests if i.handle != handle
        ]

    def handle_nf_event(self, event: PacketEvent) -> None:
        """Entry point for events arriving from NFs (already past the channel)."""
        if event.seq is not None:
            self._handle_sequenced_event(event)
            return
        self._deliver_event(event)

    def _deliver_event(self, event: PacketEvent) -> None:
        # The shard *owning the flow* serializes the event: the
        # operation working on that flow space drains its inbox.
        replicas = self.replicas
        shard = replicas[0] if len(replicas) == 1 \
            else self._route(event.packet)
        shard.events_received += 1
        shard.inbox.push(("event", event, None))

    def _handle_sequenced_event(self, event: PacketEvent) -> None:
        """Reliable event channel: ack, dedupe, and release in seq order.

        Retransmitted events may arrive duplicated or out of order;
        releasing strictly by sequence number means a retransmission
        cannot overtake its successors, so order preservation holds even
        on a lossy control channel.
        """
        client = self.clients.get(event.nf_name)
        if client is not None:
            # Ack every arrival (a duplicate means our previous ack was
            # lost); the NF stops retransmitting once one lands. Acks
            # coalesce into batch frames when the fast path is on.
            client.to_nf.queue_send(
                EVENT_ACK_BYTES, client.nf.event_ack, event.seq
            )
        state = self._event_reorder.setdefault(
            event.nf_name, {"next": 1, "pending": {}}
        )
        if event.seq < state["next"] or event.seq in state["pending"]:
            self.event_duplicates[event.nf_name] += 1
            return
        state["pending"][event.seq] = event
        self._release_in_order(state)
        if state["pending"]:
            # A predecessor is missing; if the NF abandoned it the gap
            # would stall delivery forever, so arm a skip timer.
            self.sim.schedule(
                EVENT_GAP_TIMEOUT_MS,
                self._check_event_gap, event.nf_name, state["next"],
            )

    def _release_in_order(self, state: Dict[str, Any]) -> None:
        while state["next"] in state["pending"]:
            self._deliver_event(state["pending"].pop(state["next"]))
            state["next"] += 1

    def _check_event_gap(self, nf_name: str, expected_next: int) -> None:
        state = self._event_reorder.get(nf_name)
        if (state is None or state["next"] != expected_next
                or not state["pending"]):
            return  # the gap filled (or emptied) while we waited
        # The missing event outlived the NF's retransmit budget: skip to
        # the oldest buffered successor rather than wedging the inbox.
        self.event_gaps_skipped[nf_name] += 1
        state["next"] = min(state["pending"])
        self._release_in_order(state)
        if state["pending"]:
            self.sim.schedule(
                EVENT_GAP_TIMEOUT_MS,
                self._check_event_gap, nf_name, state["next"],
            )

    def _dispatch_event(self, event: PacketEvent) -> None:
        for interest in reversed(self._event_interests):
            if interest.matches_event(event):
                interest.callback(event)
                return
        if self.default_event_handler is not None:
            self.default_event_handler(event)

    def handle_packet_in(self, packet: Packet) -> None:
        """Entry point for packet-ins from the switch."""
        replicas = self.replicas
        shard = replicas[0] if len(replicas) == 1 \
            else self._route(packet)
        shard.packet_ins_received += 1
        shard.inbox.push(("packet-in", packet, None))

    def _handle_inbox_item(self, item) -> None:
        kind, payload, handler = item
        if kind == "event":
            self._dispatch_event(payload)
        elif kind == "packet-in":
            self._dispatch_packet_in(payload)
        else:
            handler(payload)

    def _dispatch_packet_in(self, packet: Packet) -> None:
        for interest in reversed(self._packet_interests):
            if interest.matches_packet(packet):
                interest.callback(packet)
                return

    # ------------------------------------------------------------------ routing

    def _route(self, packet: Packet) -> Shard:
        """The shard whose inbox must serialize a message about ``packet``."""
        for flt, shard in self._claims:  # oldest claim wins
            if flt.matches_packet(packet):
                return shard
        for flt, shard in reversed(self._ownership):  # newest handoff wins
            if flt.matches_packet(packet):
                return shard
        return self.replicas[self.shard_map.shard_for_packet(packet)]

    def _owner_shard(self, flt: Filter) -> Shard:
        """Which shard owns (most of) ``flt``'s flow space right now."""
        for owned, shard in reversed(self._ownership):
            if owned.intersects(flt):
                return shard
        return self.replicas[self.shard_map.shard_for_filter(flt)]

    def _claim(self, flt: Filter, shard: Shard, done) -> None:
        """Route ``flt``'s messages to ``shard`` until ``done`` triggers,
        so an in-flight operation keeps its flows on its own inbox."""
        entry = (flt, shard)
        self._claims.append(entry)
        done.add_callback(lambda _evt: self._claims.remove(entry))

    def _transfer_ownership(self, flt: Filter, shard: Shard) -> None:
        """A cross-shard handshake completed: ``shard`` now owns ``flt``.

        Older overrides the new one covers are dropped — newest-wins
        already shadows them, so routing is unchanged and the list stays
        bounded by the number of distinct live overrides.
        """
        self.handoffs_completed += 1
        self._ownership = [
            (owned, owner) for owned, owner in self._ownership
            if not (flt.covers(owned)
                    and (flt.symmetric or not owned.symmetric))
        ]
        self._ownership.append((flt, shard))

    # ----------------------------------------------------------------- admission

    def _submit(self, kind: str, flt: Filter,
                start: Callable[[Shard], Operation], guarantee: Any = None):
        """The one admission entry every northbound operation goes through.

        ``start(shard)`` constructs (and so starts) the operation on the
        shard owning ``flt``. It runs now if no in-flight operation on
        any shard intersects ``flt``. A conflict on the home shard only
        defers it FIFO behind that flow space
        (:class:`~repro.controller.operation.DeferredOperation`); a
        conflict on another shard additionally needs the ownership
        handshake first
        (:class:`~repro.controller.sharding.CrossShardOperation`).
        One admission path covers move, copy, share AND chains, and
        callers always receive the same
        :class:`~repro.controller.operation.Operation` handle surface.
        """
        home = self._owner_shard(flt)
        conflicts = home._conflicting(flt)
        prior_owners: List[Shard] = []
        foreign_conflicts: List[Any] = []
        for shard in self.replicas:
            if shard is not home:
                found = shard._conflicting(flt)
                if found:
                    prior_owners.append(shard)
                    foreign_conflicts.extend(found)
        if not conflicts and not prior_owners:
            operation = start(home)
            home._reserve(flt, operation.done)
        else:
            self.deferrals[home, kind, bool(prior_owners)] += 1
            begin = functools.partial(start, home)
            if prior_owners:
                operation = CrossShardOperation(
                    home, kind, flt, foreign_conflicts + conflicts, begin,
                    guarantee=guarantee, prior_owners=prior_owners,
                )
            else:
                operation = DeferredOperation(
                    home, kind, flt, conflicts, begin, guarantee=guarantee
                )
        self._claim(flt, home, operation.done)
        return operation

    # ---------------------------------------------------------------- northbound

    def move(
        self,
        src: Any,
        dst: Any,
        flt: Filter,
        scope: Any = "per",
        guarantee: Any = "loss-free",
        parallel: bool = True,
        early_release: bool = False,
        compress: bool = False,
        peer_to_peer: bool = False,
    ) -> Operation:
        """``move(srcInst, dstInst, filter, scope, properties)`` (§5.1).

        ``guarantee`` accepts a :class:`~repro.controller.move.Guarantee`
        member or any of its string spellings. Returns an
        :class:`~repro.controller.operation.Operation` handle (a live
        :class:`~repro.controller.move.MoveOperation`, or a
        :class:`~repro.controller.operation.DeferredOperation` when the
        flow space conflicts with an in-flight operation); its ``done``
        event triggers with the operation report.
        """
        parsed = Guarantee.parse(guarantee)
        return self._submit(
            "move", flt,
            lambda shard: self._move_start(
                shard, src, dst, flt, scope=scope, guarantee=parsed,
                parallel=parallel, early_release=early_release,
                compress=compress, peer_to_peer=peer_to_peer,
            ),
            guarantee=parsed,
        )

    def _move_start(self, shard: Shard, src, dst, flt, scope="per",
                    **options: Any) -> MoveOperation:
        """Start a move on ``shard``, past admission.

        :meth:`move` admits first; a chain's hop moves come straight
        here (the chain's own reservation covers the filter), adding
        ``route_actions`` / ``trace_attrs`` to make each hop chain-aware
        without widening ``move()``.
        """
        return MoveOperation(
            controller=self, shard=shard,
            src=self.client(src), dst=self.client(dst), flt=flt,
            scopes=normalize_scope(scope), **options,
        )

    def copy(self, src: Any, dst: Any, flt: Filter, scope: Any = "multi",
             parallel: bool = True) -> Operation:
        """``copy(srcInst, dstInst, filter, scope)`` (§5.2.1)."""
        return self._submit(
            "copy", flt,
            lambda shard: CopyOperation(
                controller=self, shard=shard,
                src=self.client(src), dst=self.client(dst), flt=flt,
                scopes=normalize_scope(scope), parallel=parallel,
            ),
        )

    def share(
        self,
        instances: List[Any],
        flt: Filter,
        scope: Any = "multi",
        consistency: str = "strong",
        group_by: str = "host",
    ) -> Operation:
        """``share(list<inst>, filter, scope, consistency)`` (§5.2.2)."""
        return self._submit(
            "share", flt,
            lambda shard: self._share_start(
                shard, instances, flt, scope=scope,
                consistency=consistency, group_by=group_by,
            ),
            guarantee=consistency,
        )

    def _share_start(self, shard: Shard, instances, flt, scope="multi",
                     consistency="strong", group_by="host") -> ShareOperation:
        """Start a share on ``shard``, past admission (see :meth:`_move_start`)."""
        return ShareOperation(
            controller=self, shard=shard,
            instances=[self.client(i) for i in instances], flt=flt,
            scopes=normalize_scope(scope),
            consistency=consistency, group_by=group_by,
        )

    def move_chain(
        self,
        chain: Any,
        flt: Optional[Filter] = None,
        dst_map: Optional[Dict[str, str]] = None,
        guarantee: Any = "loss-free",
        hop_guarantees: Optional[Dict[str, Any]] = None,
    ) -> Operation:
        """``move_chain(chain, filter, dst_map, guarantee)``: chain-wide move.

        Migrates every hop named in ``dst_map`` (hop name → destination
        instance) tail-to-head under one composite
        :class:`~repro.controller.chain.ChainOperation` handle, so no
        packet ever crosses a half-migrated chain. ``hop_guarantees``
        optionally overrides the guarantee per hop (by hop name).
        """
        return self._submit_chain(
            chain, flt, dict(dst_map or {}), guarantee, mode="move",
            hop_guarantees=hop_guarantees,
        )

    def scale_chain(
        self,
        chain: Any,
        hop: str,
        new_instance: str,
        flt: Optional[Filter] = None,
        guarantee: Any = "loss-free",
    ) -> Operation:
        """Split ``flt`` of one hop's flow space onto ``new_instance``.

        A single-hop chain operation in scale mode: state matching
        ``flt`` (a sub-space of the chain filter) moves from the hop's
        active instance to ``new_instance``, which joins the hop's
        instance set; the sub-filter keeps routing to the new instance
        afterwards (recorded as a chain override).
        """
        return self._submit_chain(
            chain, flt, {hop: new_instance}, guarantee, mode="scale",
        )

    def _submit_chain(self, chain, flt, dst_map, guarantee, **options: Any):
        """Admit one composite chain operation over the chain's filter.

        It homes on one shard and every hop move inside it runs there,
        past admission — the chain's own reservation already covers the
        filter.
        """
        parsed = Guarantee.parse(guarantee)
        use_flt = flt if flt is not None else chain.flt
        return self._submit(
            "chain", use_flt,
            lambda shard: ChainOperation(
                controller=self, shard=shard, chain=chain, flt=use_flt,
                dst_map=dst_map, guarantee=parsed, **options,
            ),
            guarantee=parsed,
        )

    def notify(
        self,
        flt: Filter,
        inst: Any,
        enable: bool,
        callback: Optional[Callable[[PacketEvent], None]] = None,
    ):
        """``notify(filter, inst, enable, callback)`` (§5.2.1).

        With ``enable=True``, asks ``inst`` to raise (and process) events
        for packets matching ``flt`` and routes them to ``callback``.
        Returns the interest handle (None when disabling).
        """
        from repro.nf.events import EventAction

        client = self.client(inst)
        if enable:
            if callback is None:
                raise ValueError("notify(enable=True) requires a callback")
            handle = self.add_event_interest(client.name, flt, callback)
            client.enable_events(flt, EventAction.PROCESS)
            return handle
        client.disable_events(flt)
        return None
