"""The ``move`` operation (§5.1), including Figure 6's algorithm.

Three guarantee levels:

* :attr:`Guarantee.NONE` — get/del/put then a route update. Packets
  reaching the source during the window are dropped (the Split/Merge
  behaviour the paper inherits for its no-guarantee mode); Figure 11(a)
  counts these drops.
* :attr:`Guarantee.LOSS_FREE` — ``enableEvents(filter, drop)`` on the
  source first; dropped packets travel to the controller inside events,
  are buffered there until ``putPerflow`` completes, and are then
  re-injected towards the destination via packet-out (§5.1.1).
* :attr:`Guarantee.ORDER_PRESERVING` — the full Figure 6 pseudo-code:
  the loss-free steps, then buffering at the destination plus the
  two-phase forwarding update (forward to {src, ctrl} at low priority,
  observe the last packet, overlay a high-priority rule to dst, wait for
  the destination to process that last packet, then release the
  destination's buffer).

Two optimizations (§5.1.3), composable with any guarantee:

* **parallelizing (PL)** — the source streams each chunk as soon as it
  is serialized and the controller immediately issues a per-chunk put;
* **early release (ER)** — late locking (events enabled per flow just
  before its chunk is serialized) plus per-flow release of buffered
  events as soon as that flow's put returns. Only valid for a
  single-scope move, as in the paper.

Two further extensions the paper sketches are implemented as options:
``compress=True`` ships chunks zlib-compressed (§8.3 measured 38 %
smaller transfers), and ``peer_to_peer=True`` streams chunks directly
from the source NF to the destination NF over an NF–NF channel instead
of relaying them through the controller (footnote 10), bypassing the
controller's serialized inbox entirely.

Every variant is one row of :data:`MOVE_PLANS`, looked up by
``(guarantee, offload)``: the shared driver
(:meth:`~repro.controller.operation.Operation._run`) walks the row's
named steps; abort, cleanup and the event callbacks read the same row.
"""

from __future__ import annotations

import enum
import functools
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.flowspace.filter import Filter, FlowId
from repro.net.channel import ControlChannel
from repro.net.flowtable import HIGH_PRIORITY, MID_PRIORITY
from repro.net.packet import Packet
from repro.net.switch import CONTROLLER_PORT
from repro.net.xfsm import BufferUntilRelease
from repro.nf.base import NFCrash
from repro.nf.events import DO_NOT_BUFFER, EventAction, PacketEvent
from repro.nf.southbound import NF_CHANNEL_LATENCY_MS, SouthboundError
from repro.nf.state import Scope, StateChunk
from repro.controller.operation import (
    RECOVERABLE,
    Operation,
    OperationAborted,
    _plan,
)
from repro.controller.pipeline import transfer_scope
from repro.sim.process import AllOf, AnyOf

#: How long cleanup waits for in-flight packets to drain before the
#: source's event rules and the shadowed MID rule are retired.
DRAIN_GRACE_MS = 30.0
#: Bound on ``wait(GOT_FIRST_PKT_FROM_SW)`` in the two-phase update.
FIRST_PACKET_TIMEOUT_MS = 40.0
#: Interval between rule-counter reads while confirming the controller
#: saw every packet the MID rule forwarded (footnote 9).
COUNTER_POLL_MS = 8.0


class Guarantee(enum.Enum):
    """Move-safety properties an application can request."""

    NONE = "none"
    LOSS_FREE = "loss-free"
    ORDER_PRESERVING = "loss-free order-preserving"
    #: The technical report's stronger variant: does not assume the
    #: sw→srcInst path delivers in order. All matching traffic is
    #: sequenced through the controller for the duration of the move.
    ORDER_PRESERVING_STRONG = "loss-free order-preserving (strong)"

    @classmethod
    def parse(cls, value: Any) -> "Guarantee":
        if isinstance(value, Guarantee):
            return value
        text = str(value).strip().lower()
        aliases = {
            "none": cls.NONE,
            "ng": cls.NONE,
            "loss-free": cls.LOSS_FREE,
            "lossfree": cls.LOSS_FREE,
            "lf": cls.LOSS_FREE,
            "order-preserving": cls.ORDER_PRESERVING,
            "loss-free order-preserving": cls.ORDER_PRESERVING,
            "lf+op": cls.ORDER_PRESERVING,
            "op": cls.ORDER_PRESERVING,
            "op-strong": cls.ORDER_PRESERVING_STRONG,
            "loss-free order-preserving (strong)": cls.ORDER_PRESERVING_STRONG,
        }
        try:
            return aliases[text]
        except KeyError:
            raise ValueError("unknown guarantee %r" % (value,))


# One row per move variant (:func:`~repro.controller.operation._plan`:
# the steps ``_run`` walks, and the facts abort, cleanup and the event
# callbacks read instead of re-deriving the variant):
#
# ``mark``        the destination buffers its direct arrivals, so every
#                 packet the controller forwards carries DO_NOT_BUFFER;
# ``retire_mid``  the live route is a HIGH rule laid over a MID rule,
#                 which cleanup removes;
# ``drain_src``   the reroute waits for the source's queue to drain;
# ``late_lock``   early release replaces the up-front source lock by
#                 per-flow late locking (else it adds it on top).
_move_plan = functools.partial(
    _plan, mark=False, retire_mid=False, drain_src=False, late_lock=True
)
_NO_GUARANTEE = _move_plan(
    "lock-silent", "transfer", "reroute", unmarked=("state-transfer",)
)
_LOSS_FREE = _move_plan("arm-src-events", "transfer", "flush", "reroute")
# Figure 6 in full: the loss-free steps, then buffering at the
# destination plus the two-phase forwarding update.
_ORDER_PRESERVING = _move_plan(
    "arm-src-events", "transfer", "flush", "arm-dst-buffering",
    ("forwarding-update", "two-phase-update",
     ("await-last-packet",
      "await-counters", "await-src-last", "await-dst-last")),
    "release-dst",
    mark=True, retire_mid=True, unmarked=("event-flush",),
)
# The offloaded fast path: buffer the window at the switch, not here.
# One ``install_state_machine`` message parks every in-window packet in
# switch-local rings; one ``release`` message flushes them — in arrival
# order — straight to the destination port. The per-packet NF→controller
# event round trip and the packet-out storm both disappear, and so does
# the two-phase update: the machine already guarantees the destination
# sees the window in switch arrival order, for the loss-free and
# order-preserving guarantees alike. The reroute comes BEFORE the
# release: when the machine's flush drains and it steps to REDIRECT,
# fall-through arrivals hit the new rule.
_OFFLOADED = (
    "install-xfsm", "arm-src-events", "transfer", "reroute", "release-xfsm"
)
# Order preservation without trusting the sw→srcInst path (the
# technical report's variant of §5.1.2): the controller becomes the
# serialization point. The redirect is a consistent update — nothing is
# lost, and every packet the switch handles after it reaches the
# controller in switch order. Stragglers already in flight on the
# (possibly reordering) sw→src path surface as source events; they are
# all *earlier* in switch order than any packet-in, so replaying src
# events first, then the redirect buffer, is order-correct up to the
# residual ambiguity *within* the straggler set, which one flow-mod
# window (not a whole move) of in-order delivery resolves. Both replays
# are marked do-not-buffer; the destination buffers its direct arrivals
# until it has processed the last replayed packet. (The up-front source
# lock stays even under early release: pinned.)
_STRONG = _move_plan(
    "redirect", "arm-src-events", "transfer", "arm-dst-buffering", "flush",
    "reroute",
    ("await-last-packet", "await-counters", "await-dst-last"),
    "release-dst",
    mark=True, retire_mid=True, late_lock=False,
    unmarked=("event-flush", "dst-buffering"),
)

#: ``(guarantee, controller offload on?)`` → plan. Only the LF / LF+OP
#: fast paths offload: NONE has nothing to buffer, and the strong
#: variant *requires* the controller as the serialization point.
MOVE_PLANS = {
    (Guarantee.NONE, False): _NO_GUARANTEE,
    (Guarantee.NONE, True): _NO_GUARANTEE,
    (Guarantee.LOSS_FREE, False): _LOSS_FREE,
    (Guarantee.LOSS_FREE, True): _move_plan(*_OFFLOADED),
    (Guarantee.ORDER_PRESERVING, False): _ORDER_PRESERVING,
    (Guarantee.ORDER_PRESERVING, True): _move_plan(*_OFFLOADED, drain_src=True),
    (Guarantee.ORDER_PRESERVING_STRONG, False): _STRONG,
    (Guarantee.ORDER_PRESERVING_STRONG, True): _STRONG,
}


class MoveOperation(Operation):
    """One in-flight ``move``; ``done`` fires with the OperationReport."""

    kind = "move"

    def __init__(
        self,
        controller,
        shard,
        src,
        dst,
        flt: Filter,
        scopes: Tuple[Scope, ...],
        guarantee: Guarantee,
        parallel: bool = True,
        early_release: bool = False,
        compress: bool = False,
        peer_to_peer: bool = False,
        route_actions: Optional[Callable[[str], List[str]]] = None,
        trace_attrs: Optional[Dict[str, str]] = None,
    ) -> None:
        if early_release and not parallel:
            raise ValueError("early release requires the parallelizing optimization")
        if early_release and len(scopes) > 1:
            raise ValueError(
                "early release applies to a move of per-flow or multi-flow "
                "state, but not both (§5.1.3)"
            )
        if peer_to_peer and not parallel:
            raise ValueError("peer-to-peer transfer implies chunk streaming")
        # Chain-scoped ``trace_attrs`` (chain_id / hop) ride every hop
        # move's trace so the chain auditor can stitch the per-hop
        # causal slices back into one end-to-end story.
        super().__init__(
            controller, shard, flt, MOVE_PLANS[guarantee, controller.offload],
            dict(guarantee=guarantee.value,
                 scopes=",".join(s.value for s in scopes),
                 **(trace_attrs or {})),
            guarantee=guarantee, src=src, dst=dst,
        )
        self.scopes = scopes
        self.parallel = parallel
        self.early_release = early_release
        self.compress = compress
        self.peer_to_peer = peer_to_peer
        self.dst_port = controller.port_of(dst.name)
        self.src_port = controller.port_of(src.name)
        #: True while a switch-local machine is installed (abort and
        #: cleanup retire it).
        self._xfsm_installed = False
        #: True once the destination holds a BUFFER rule (abort lifts it).
        self._dst_buffering = False
        #: How a forwarding target becomes a rule action list. The
        #: default (identity) keeps classic moves byte-identical; a
        #: chain-aware move supplies the full per-hop action list so
        #: rerouting one hop never starves the chain's other hops.
        self._route: Callable[[str], List[str]] = (
            route_actions if route_actions is not None
            else (lambda port: [port])
        )

        # Event-buffering machinery (loss-free / order-preserving).
        # One globally ordered buffer, as in Figure 6: flushing must not
        # reorder packets across flows (cross-flow order matters for
        # moves that include multi-flow state, §5.1.2).
        self._buffering = False
        self._event_buffer: List[Packet] = []
        #: Packet-ins captured while the flow space is redirected here.
        self._ctrl_buffer: List[Packet] = []
        self._released_filters: List[Filter] = []
        self._src_evented_uids: set = set()
        self._dst_processed_uids: set = set()
        self._await_src: Optional[Tuple[int, Any]] = None
        self._await_dst: Optional[Tuple[int, Any]] = None
        # Two-phase update state.
        self._first_packet_event = self.sim.event("got-first-pkt-from-sw")
        self._last_packet: Optional[Packet] = None
        self._packet_in_count = 0
        # Chunks exported so far, for restore-on-abort.
        self._exported_chunks: List[StateChunk] = []

    # ------------------------------------------------------------------ driver

    def _recover(self, crash):
        # Buffered packets — the controller's and the switch machine's
        # rings — go to whichever instance still works so none are
        # stranded. A SouthboundError names the instance it could not
        # reach (an abort, or a rejected flow-mod: the destination).
        self._buffering = False
        unreachable = getattr(crash, "nf_name", None)
        src_down = self.src.nf.failed or unreachable == self.src.name
        dst_down = self.dst.nf.failed or unreachable == self.dst.name
        try:
            if not dst_down:
                self._flush_queues(mark=self.plan.mark)
            elif not src_down:
                # Destination died: restore the already-exported (and
                # deleted) state to the source, stop intercepting there,
                # and hand the buffered packets back to it.
                yield from self._restore_exported()
                yield self.src.disable_events_covered(self.flt)
                # Its response trails, on the FIFO NF channel, every
                # event the source raised while its rules were live; let
                # the inbox hand those to this move before its interests
                # go, or they are dispatched to nobody and lost.
                yield self.shard.inbox.drained()
                self._flush_queues(mark=False, port=self.src_port)
                if self._dst_buffering and isinstance(crash, OperationAborted):
                    # Only *treated* as lost (an abort, a rejected
                    # flow-mod) and still holding its BUFFER rule, which
                    # would swallow the next operation's packets.
                    yield self.dst.disable_events(self.flt)
            elif self._xfsm_installed:
                # Nobody left to serve the window: the rings empty
                # towards the dead source, which counts them as lost, so
                # the machine stops swallowing the flow space.
                self.report.notes.append(
                    "both instances down: switch rings dropped"
                )
            yield from self._retire_xfsm(
                self.src_port if dst_down else self.dst_port
            )
            if not (src_down or dst_down):
                yield self.src.disable_events_covered(self.flt)
        except RECOVERABLE as recovery_exc:
            # Best-effort recovery: the surviving side vanished too.
            self.report.notes.append(
                "abort recovery incomplete: %s" % recovery_exc
            )

    def _restore_exported(self):
        if not self._exported_chunks:
            return
        restores: Dict[Scope, List[StateChunk]] = {}
        for chunk in self._exported_chunks:
            restores.setdefault(chunk.scope, []).append(chunk)
        for scope, chunks in restores.items():
            yield self.src.put(scope, chunks)
        self.report.notes.append(
            "restored %d chunks to %s"
            % (len(self._exported_chunks), self.src.name)
        )
        if not self.dst.nf.failed:
            # Unreachable-but-alive destination: chunks it already
            # imported now coexist with the restored copies; record them
            # so the caller can reconcile once it is reachable again.
            self.report.notes.append(
                "%s may hold stale copies" % self.dst.name
            )

    def _retire_xfsm(self, port: Optional[str]):
        """Flush the installed machine's rings towards ``port`` (``None``:
        already released), then take it out of the data path."""
        if not self._xfsm_installed:
            return
        if port is not None:
            yield self.switch.release_state_machine(self.flt, port)
        yield self.switch.remove_state_machine(self.flt)
        self._xfsm_installed = False

    # ------------------------------------------------------------------- steps

    def _step_lock_silent(self, parent):
        # Drop (without events) at the source for the operation window.
        with self._phase("lock", "locked", parent):
            yield self.src.enable_events(self.flt, EventAction.DROP, silent=True)

    def _step_install_xfsm(self, parent):
        with self._phase("xfsm-install", "xfsm-installed", parent):
            yield self.switch.install_state_machine(
                self.flt, BufferUntilRelease(trace_id=self.trace.trace_id)
            )
        self._xfsm_installed = True

    def _step_redirect(self, parent):
        # Packet-ins can beat the install's ack: buffer from now on.
        self._buffering = True
        self._interest_handles.append(
            self.controller.add_packet_interest(
                self.flt, self._on_strong_packet_in
            )
        )
        with self._phase("redirect", "redirected", parent):
            yield self.switch.install(
                self.flt, self._route(CONTROLLER_PORT), MID_PRIORITY
            )

    def _step_arm_src_events(self, parent):
        # shouldBufferEvents <- true; route events from src to this op.
        # Behind a switch machine or a redirect this still catches the
        # stragglers — packets that passed the flow table before it took
        # effect (in flight to the source, or queued in it). They are
        # earlier in switch order than anything buffered behind them.
        self._buffering = True
        self._interest_handles.append(
            self.controller.add_event_interest(
                self.src.name, self.flt, self._on_src_event
            )
        )
        if not (self.early_release and self.plan.late_lock):
            # srcInst.enableEvents(filter, DROP); late locking covers
            # each flow inside the get when early release is on.
            with self._phase("events-enabled", "events-enabled", parent):
                yield self.src.enable_events(self.flt, EventAction.DROP)

    def _step_transfer(self, parent):
        # get/del/put, one scope after the other. Late locking only
        # where arm-src-events listens for the events it raises.
        lock_per_chunk = self.early_release and self._buffering
        on_applied = self._release_frame if self.early_release else None
        with self._phase("state-transfer", "state-transferred", parent) as ph:
            for scope in self.scopes:
                self._checkpoint()
                exported_before = len(self._exported_chunks)
                with self._phase(
                    "transfer.%s" % scope.value, None, ph.span
                ) as scope_ph:
                    if self.peer_to_peer:
                        yield from self._transfer_scope_peer(
                            scope, lock_per_chunk
                        )
                    else:
                        yield from transfer_scope(
                            self, scope,
                            functools.partial(self.dst.put, scope),
                            delete=True, on_applied=on_applied,
                            exported=self._exported_chunks,
                            lock_per_chunk=lock_per_chunk,
                        )
                    scope_ph.span.set(
                        chunks=len(self._exported_chunks) - exported_before
                    )

    def _step_flush(self, parent):
        # Flush events buffered at the controller; later ones forward
        # immediately (marked "do-not-buffer" where dstInst has a BUFFER
        # rule to get them past).
        with self._phase("event-flush", "events-flushed", parent) as ph:
            ph.span.set(buffered=len(self._event_buffer))
            if "redirect" in self.plan.steps:
                ph.span.set(redirected=len(self._ctrl_buffer))
            # Source stragglers first, then the redirect buffer.
            self._flush_queues(mark=self.plan.mark)
            redirected, self._ctrl_buffer = self._ctrl_buffer, []
            self._release(redirected, "redirect", self.plan.mark, self.dst_port)
            self._buffering = False
            if not self.plan.mark:
                # Nothing at the destination orders these behind the
                # rerouted traffic: ensure they have actually left the
                # switch (rate-capped packet-out path) first.
                yield self.switch.packet_out_barrier()

    def _step_reroute(self, parent):
        with self._phase("reroute", "rerouted", parent):
            installed = self.switch.install(
                self.flt, self._route(self.dst_port),
                HIGH_PRIORITY if self.plan.retire_mid else MID_PRIORITY,
            )
            if self.plan.drain_src:
                # Its idle response trails every straggler event on the
                # FIFO NF channel, so after this yield the controller
                # buffer holds ALL packets that are earlier in switch
                # order than the rings. (Loss-free moves skip this — a
                # late straggler still gets forwarded, just possibly
                # out of order.)
                yield self.src.drain_barrier()
            yield installed

    def _step_release_xfsm(self, parent):
        with self._phase("sw-release", "released", parent) as ph:
            # Controller-buffered stragglers first (they precede the
            # rings in switch order); the release is a plain send behind
            # them on the same channel, so the switch emits them before
            # it flushes.
            self._flush_queues(mark=self.plan.mark)
            self._buffering = False
            flushed = yield self.switch.release_state_machine(
                self.flt, self.dst_port
            )
            ph.span.set(flushed=flushed)
            self.report.packets_buffered_at_switch = flushed

    def _step_arm_dst_buffering(self, parent):
        # dstInst.enableEvents(filter, BUFFER)
        self._interest_handles.append(
            self.controller.add_event_interest(
                self.dst.name, self.flt, self._on_dst_event
            )
        )
        self._dst_buffering = True
        with self._phase("dst-buffering", "dst-buffering", parent):
            yield self.dst.enable_events(self.flt, EventAction.BUFFER)

    def _step_two_phase_update(self, parent):
        # Phase 1: sw.install(filter, {srcInst, ctrl}, LOW_PRIORITY).
        self._interest_handles.append(
            self.controller.add_packet_interest(self.flt, self._on_packet_in)
        )
        with self._phase("phase1-install", "phase1-installed", parent):
            yield self.switch.install(
                self.flt,
                self._route(self.src_port) + [CONTROLLER_PORT],
                MID_PRIORITY,
            )
        # wait(GOT_FIRST_PKT_FROM_SW) — with a timeout so a silent flow
        # space cannot wedge the operation (the paper assumes traffic).
        with self._phase("await-first-packet", None, parent):
            yield AnyOf(
                [
                    self._first_packet_event,
                    self.sim.timeout(FIRST_PACKET_TIMEOUT_MS),
                ]
            )
        # Phase 2: sw.install(filter, dstInst, HIGH_PRIORITY).
        with self._phase("phase2-install", "phase2-installed", parent):
            yield self.switch.install(
                self.flt, self._route(self.dst_port), HIGH_PRIORITY
            )

    def _step_await_counters(self, parent):
        # Footnote 9: confirm via rule counters that the controller saw
        # every packet the MID rule forwarded, so the stored one really
        # is the last.
        while True:
            packets, _bytes = yield self.switch.read_counters(
                self.flt, MID_PRIORITY
            )
            if packets == self._packet_in_count:
                break
            yield COUNTER_POLL_MS
        parent.set(packet_ins=self._packet_in_count)

    def _step_await_src_last(self, parent):
        # wait for srcInst's event for the last packet (it is then
        # forwarded to dstInst by _on_src_event, marked do-not-buffer).
        last = self._last_packet
        if last is not None and last.uid not in self._src_evented_uids:
            waiter = self.sim.event("await-src-last")
            self._await_src = (last.uid, waiter)
            yield waiter

    def _step_await_dst_last(self, parent):
        # wait(DST_PROCESSED_LAST_PKT)
        last = self._last_packet
        if last is not None and last.uid not in self._dst_processed_uids:
            waiter = self.sim.event("await-dst-last")
            self._await_dst = (last.uid, waiter)
            yield waiter

    def _step_release_dst(self, parent):
        # dstInst.disableEvents(filter): release the destination buffer.
        with self._phase("dst-release", "dst-released", parent):
            yield self.dst.disable_events(self.flt)

    # ---------------------------------------------------- peer-to-peer transfer

    def _transfer_scope_peer(self, scope, lock_per_chunk):
        """Footnote-10 mode: chunks flow src→dst directly.

        The source's get streams each serialized chunk over a dedicated
        NF–NF channel; the destination imports it locally (no controller
        relay, no inbox queueing). Early release is signalled back to
        the controller over the destination's event channel.
        """
        peer = ControlChannel(
            self.sim,
            name="%s->%s" % (self.src.name, self.dst.name),
            latency_ms=NF_CHANNEL_LATENCY_MS,
            bandwidth_bytes_per_ms=self.controller.nf_channel_bandwidth,
            obs=self.obs,
        )
        self.controller._attach_faults(peer)
        put_events: List[Any] = []
        delivered_ids: set = set()

        def deliver(chunk: StateChunk) -> None:
            if id(chunk) in delivered_ids:
                return  # duplicated on the wire; already imported
            delivered_ids.add(id(chunk))
            put_process = self.dst.nf.sb_put([chunk], self.trace.trace_id)
            put_events.append(put_process.done)
            if self.early_release:
                def notify_release(_evt, c=chunk):
                    # dst tells the controller the chunk landed.
                    self.dst.from_nf.send(
                        64, self._release_flow, c.flowid
                    )
                put_process.done.add_callback(notify_release)

        scope_name = scope.value

        def ship(chunk: StateChunk) -> None:
            self._note_chunk(scope_name, chunk)
            self._exported_chunks.append(chunk)
            peer.send(chunk.wire_size_bytes + 74, deliver, chunk)

        chunks = yield self.src.get(
            scope, self.flt,
            raw_stream=ship,
            lock_per_chunk=lock_per_chunk,
            compress=self.compress,
        )
        flowids = [c.flowid for c in chunks if c.flowid]
        if flowids:  # (all-flows chunks carry none: nothing to delete)
            yield self.src.delete(scope, flowids)
        # The peer channel has no RPC layer; chunks it dropped must be
        # re-shipped from the source's authoritative list (the loop only
        # runs when something is actually missing, so fault-free moves
        # take the classic timeline).
        reship_rounds = 0
        while True:
            missing = [c for c in chunks if id(c) not in delivered_ids]
            if not missing:
                break
            reship_rounds += 1
            if reship_rounds > 10:
                raise SouthboundError(
                    "peer transfer to %s lost %d chunks past the re-ship "
                    "budget" % (self.dst.name, len(missing)),
                    self.dst.name,
                )
            if self.dst.nf.failed:
                raise NFCrash(
                    "%s is down: %s"
                    % (self.dst.name, self.dst.nf.failure_reason)
                )
            self.report.notes.append(
                "re-shipped %d peer chunks (round %d)"
                % (len(missing), reship_rounds)
            )
            for chunk in missing:
                peer.send(chunk.wire_size_bytes + 74, deliver, chunk)
            yield 25.0 * reship_rounds
        if put_events:
            yield AllOf(put_events)

    # --------------------------------------------------------- event plumbing

    def _on_src_event(self, event: PacketEvent) -> None:
        packet = event.packet
        self.report.packets_in_events += 1
        self.report.affected_uids.add(packet.uid)
        self._src_evented_uids.add(packet.uid)
        if self._await_src is not None and self._await_src[0] == packet.uid:
            waiter = self._await_src[1]
            self._await_src = None
            waiter.trigger()
        if self._buffering and not (
            self.early_release and any(
                f.matches_packet(packet) for f in self._released_filters
            )
        ):
            self._capture(self._event_buffer, packet, "events")
        else:
            self._forward_to_dst(packet, self.plan.mark)

    def _on_dst_event(self, event: PacketEvent) -> None:
        uid = event.packet.uid
        self._dst_processed_uids.add(uid)
        if self._await_dst is not None and self._await_dst[0] == uid:
            waiter = self._await_dst[1]
            self._await_dst = None
            waiter.trigger()

    def _on_packet_in(self, packet: Packet) -> None:
        self._packet_in_count += 1
        self._last_packet = packet
        if not self._first_packet_event.triggered:
            self._first_packet_event.trigger()

    def _on_strong_packet_in(self, packet: Packet) -> None:
        self._packet_in_count += 1
        self._last_packet = packet
        self.report.packets_in_events += 1
        self.report.affected_uids.add(packet.uid)
        if self._buffering:
            self._capture(self._ctrl_buffer, packet, "redirect")
        else:
            self._forward_to_dst(packet, self.plan.mark)

    def _forward_to_dst(self, packet: Packet, mark: bool) -> None:
        if mark:
            packet.mark(DO_NOT_BUFFER)
        self.switch.packet_out(packet, self.dst_port)

    def _capture(self, buffer: List[Packet], packet: Packet, where: str):
        if self.obs.enabled:
            self.obs.metrics.counter(
                "ctrl.move.buffered_packets_captured"
            ).inc(1)
            self._record_packet("ctrl.buffer", packet, where)
        buffer.append(packet)

    def _release(
        self, packets: List[Packet], where: str, mark: bool, port: str
    ) -> None:
        """Packet-out ``packets`` (already taken off their buffer)."""
        if packets and self.obs.enabled:
            self.obs.metrics.counter(
                "ctrl.move.buffered_packets_released"
            ).inc(len(packets))
            for packet in packets:
                self._record_packet("ctrl.release", packet, where)
        for packet in packets:
            if mark:
                packet.mark(DO_NOT_BUFFER)
            self.switch.packet_out(packet, port)

    def _release_frame(self, frame: List[StateChunk]) -> None:
        """Early release for a whole applied frame (batched transfer)."""
        for chunk in frame:
            self._release_flow(chunk.flowid)

    def _release_flow(self, flowid: Optional[FlowId]) -> None:
        """Early release: flush and unblock the flows a chunk covers.

        For a per-flow chunk this is exactly one flow; for a multi-flow
        chunk (e.g. a host counter) every buffered flow it covers is
        released. Matching packets leave the buffer in their original
        (global) order.
        """
        if flowid is None:
            return
        release_filter = Filter(flowid.fields, symmetric=True)
        self._released_filters.append(release_filter)
        kept: List[Packet] = []
        flushed: List[Packet] = []
        for packet in self._event_buffer:
            if release_filter.matches_packet(packet):
                flushed.append(packet)
            else:
                kept.append(packet)
        self._event_buffer = kept
        self._release(flushed, "early", self.plan.mark, self.dst_port)
        if self._xfsm_installed:
            # Early release composes per flow: one release message flushes
            # this flow's switch-local ring to the destination (behind any
            # straggler packet-outs issued just above — the release is an
            # ordering barrier on the same channel).
            self.switch.release_state_machine(release_filter, self.dst_port)

    def _flush_queues(self, mark: bool, port: Optional[str] = None) -> None:
        buffered, self._event_buffer = self._event_buffer, []
        self._release(
            buffered, "flush", mark, self.dst_port if port is None else port
        )

    # ----------------------------------------------------------------- cleanup

    def _cleanup(self):
        self.report.finished_at = self.sim.now
        with self.trace.phase("cleanup", mark=None):
            yield DRAIN_GRACE_MS
            if self.plan.retire_mid:
                # The {src, ctrl} / redirect rule is shadowed by the HIGH
                # rule; retire it so later operations start from a clean
                # table. (Under offload the MID rule IS the live reroute —
                # it stays; there is no HIGH rule above it.)
                yield self.switch.remove(self.flt, MID_PRIORITY)
            # The machine is fully drained by now; matching packets fall
            # through to the MID reroute rule.
            yield from self._retire_xfsm(None)
            # Remove the source's event rules (global and late-locked per-flow).
            yield self.src.disable_events_covered(self.flt)
            self._count_src_drops()
            self.report.packets_buffered_at_dst = len(self._dst_buffered)
            self.report.affected_uids.update(self._dst_buffered)
