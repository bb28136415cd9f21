"""The simulated SDN switch.

Models the pieces of an OpenFlow switch the paper's mechanisms depend on:

* a priority flow table (:mod:`repro.net.flowtable`) with per-entry
  counters;
* flow-mods that take effect after an installation delay — atomically, per
  the paper's use of consistent-update mechanisms [27, 35] ("the update is
  atomic and no packets are lost");
* packet-out with a bounded sustained rate; §8.1.1 attributes the growth
  of loss-free move time at high packet rates to precisely this limit;
* packet-in delivery of matched packets to the controller over a control
  channel.

The data path is synchronous within the switch (lookup and counter update
happen at arrival time); propagation towards NFs happens over per-port
:class:`~repro.net.link.Link` objects, which is where in-flight packets
live.
"""

from __future__ import annotations

from array import array
from collections import defaultdict, deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.costs import FLOWMOD_DELAY_MS, PACKET_OUT_RATE_PPS
from repro.flowspace.filter import Filter
from repro.net.channel import AtMostOnce, ControlChannel
from repro.net.columns import Columns
from repro.net.flowtable import FlowEntry, FlowTable
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.xfsm import BufferUntilRelease, XFSMInstance
from repro.obs import NULL_OBS
from repro.sim.core import Event, Simulator

CONTROLLER_PORT = "controller"


class Port:
    """An attachment point: a link plus the receiver at its far end."""

    __slots__ = ("name", "link", "receiver")

    def __init__(self, name: str, link: Link, receiver: Callable[[Packet], None]):
        self.name = name
        self.link = link
        self.receiver = receiver


class TableFullError(RuntimeError):
    """Raised (via the install event) when the flow table is at capacity.

    Hardware tables are finite (TCAM); the paper notes that approaches
    needing per-flow rules — pipelined fine-grained moves (§5.1.3) and
    the reroute-only baseline's pinning — "require more forwarding rules
    in sw". A capacity-limited switch makes that cost concrete.
    """


class Switch:
    """An OpenFlow-like switch under simulated time."""

    #: The model has no switch failure (an open ROADMAP item); the RPC
    #: lifecycle asks every peer before it answers a retried request.
    failed = False

    def __init__(
        self,
        sim: Simulator,
        name: str = "sw",
        flowmod_delay_ms: float = FLOWMOD_DELAY_MS,
        packet_out_rate_pps: float = PACKET_OUT_RATE_PPS,
        table_capacity: Optional[int] = None,
        obs=None,
        record_ground_truth: bool = True,
    ) -> None:
        self.sim = sim
        self.name = name
        self.obs = obs or NULL_OBS
        self.table = FlowTable()
        #: Maximum rules the table holds (None = unbounded, the default).
        self.table_capacity = table_capacity
        self.installs_rejected = 0
        self.flowmod_delay_ms = flowmod_delay_ms
        self.packet_out_interval_ms = 1000.0 / packet_out_rate_pps
        self.control_channel = ControlChannel(
            sim, name="%s-ctrl" % name, obs=self.obs
        )
        self._ports: Dict[str, Port] = {}
        self._packet_in_handler: Optional[Callable[[Packet], None]] = None
        #: Entries are (packet, port, on_emit) — on_emit (optional) fires
        #: after the packet leaves; barriers are (None, event, None).
        self._packet_out_queue: Deque[Tuple] = deque()
        self._packet_out_busy = False
        #: Installed XFSM machines (data-plane offload), checked before
        #: table lookup; empty list = classic switch, byte-identical.
        self._xfsm_machines: List[XFSMInstance] = []
        #: At-most-once dedup for retried control RPCs, behind the same
        #: dispatcher surface as an NF's so one stub lifecycle serves both.
        self._rpc_seen = AtMostOnce(sim)
        self.rpc_deliver = self._rpc_seen.deliver
        self.rpc_complete = self._rpc_seen.complete
        # Data-path statistics.
        self.received = 0
        self.forwarded = 0
        self.table_misses = 0
        #: port -> packets emitted through the rate-capped packet-out path.
        self.packet_outs_by_port: Dict[str, int] = defaultdict(int)
        #: Packet-ins silently lost because no handler was installed.
        self.packet_ins_dropped = 0
        #: Applied flow-mods, by kind.
        self.flowmods = {"install": 0, "remove": 0}
        # XFSM totals: machines come and go with their operations.
        self.xfsm_installs = 0
        self.xfsm_buffered = 0
        self.xfsm_dropped = 0
        self.xfsm_released = 0
        #: When False, ``forward_log`` stays empty — long-running scale
        #: benchmarks opt out so memory stays bounded; the properties the
        #: log backs are simply unavailable then. Recorded, it costs 24 B
        #: per forwarding: a time, a uid and a reference to the actions.
        self.record_ground_truth = record_ground_truth
        self._fwd_times = array("d")
        self._fwd_uids = array("q")
        self._fwd_actions: List[Tuple[str, ...]] = []
        #: Ordered log of (time, packet_uid, actions) — the ground truth the
        #: loss-free and order-preserving judges read.
        self.forward_log = Columns(
            self._fwd_times, self._fwd_uids, self._fwd_actions
        )
        #: action -> table-matched outputs, controller port included:
        #: no always-on count has this split, so the guard writes it.
        self._fwd_counts: Dict[str, int] = {}
        self.obs.add_collector(self._publish)

    @property
    def packet_outs(self) -> int:
        return sum(self.packet_outs_by_port.values())

    def _publish(self, reg) -> None:
        """Pull collector: the counts above, under their metric names."""
        sw = self.name
        reg.publish("sw.table_misses", self.table_misses, sw=sw)
        reg.publish("sw.packet_ins_dropped", self.packet_ins_dropped, sw=sw)
        for port, count in self._fwd_counts.items():
            reg.publish("sw.forwarded", count, sw=sw, port=port)
        for port, count in self.packet_outs_by_port.items():
            reg.publish("sw.packet_outs", count, sw=sw, port=port)
        for kind, count in self.flowmods.items():
            reg.publish("sw.flowmods", count, sw=sw, kind=kind)
        reg.publish("sw.xfsm_installs", self.xfsm_installs, sw=sw)
        reg.publish("sw.xfsm.buffered", self.xfsm_buffered, sw=sw)
        reg.publish("sw.xfsm.dropped", self.xfsm_dropped, sw=sw)
        reg.publish("sw.xfsm.released", self.xfsm_released, sw=sw)

    # -- wiring ----------------------------------------------------------------

    def attach(
        self, port_name: str, receiver: Callable[[Packet], None], link: Link
    ) -> None:
        """Connect ``receiver`` behind ``link`` at ``port_name``."""
        self._ports[port_name] = Port(port_name, link, receiver)

    def set_packet_in_handler(self, handler: Callable[[Packet], None]) -> None:
        """Register the controller's packet-in callback."""
        self._packet_in_handler = handler

    @property
    def ports(self) -> Sequence[str]:
        return tuple(self._ports)

    def receiver_at(self, port_name: str) -> Callable[[Packet], None]:
        """What ``port_name`` delivers to: an NF's ``receive``, or the
        ``inject`` of a switch below this one."""
        return self._ports[port_name].receiver

    # -- data path ---------------------------------------------------------------

    def inject(self, packet: Packet) -> None:
        """A packet arrives at the switch from the network."""
        self.received += 1
        # Pre-match XFSM stage: an installed machine may consume the
        # packet (buffer / queue / drop) before the flow table sees it.
        for machine in self._xfsm_machines:
            if machine.matches(packet) and machine.on_packet(packet):
                return
        entry = self.table.lookup(packet)
        if entry is None:
            self.table_misses += 1
            return
        entry.count(packet)
        if self.record_ground_truth:
            self._fwd_times.append(self.sim.now)
            self._fwd_uids.append(packet.uid)
            self._fwd_actions.append(entry.actions)
        if self.obs.enabled:
            counts = self._fwd_counts
            for action in entry.actions:
                counts[action] = counts.get(action, 0) + 1
        for action in entry.actions:
            self._output(packet, action)

    def _output(self, packet: Packet, action: str) -> None:
        if action == CONTROLLER_PORT:
            self._send_packet_in(packet)
            return
        port = self._ports.get(action)
        if port is None:
            raise KeyError("switch %s has no port %r" % (self.name, action))
        self.forwarded += 1
        port.link.send(packet, port.receiver)

    def _send_packet_in(self, packet: Packet) -> None:
        if self._packet_in_handler is None:
            # No controller attached: the packet is gone. Count it so
            # the loss is visible instead of silent.
            self.packet_ins_dropped += 1
            return
        self.control_channel.send(
            packet.size_bytes, self._packet_in_handler, packet
        )

    # -- control path ------------------------------------------------------------

    def install(
        self, flt: Filter, actions: Sequence[str], priority: int
    ) -> Event:
        """Install a rule; the returned event fires when it takes effect.

        The rule becomes active atomically after the flow-mod delay: until
        then the old table continues to apply (consistent-update
        semantics).
        """
        done = self.sim.event("flowmod@%s" % self.name)
        self.sim.schedule(self.flowmod_delay_ms, self._apply_install, flt,
                          actions, priority, done)
        return done

    def _apply_install(
        self, flt: Filter, actions: Sequence[str], priority: int, done: Event
    ) -> None:
        replaces_existing = self.table.find(flt, priority) is not None
        if (
            self.table_capacity is not None
            and not replaces_existing
            and len(self.table) >= self.table_capacity
        ):
            self.installs_rejected += 1
            done.fail(TableFullError(
                "%s: flow table full (%d rules)" % (self.name,
                                                    self.table_capacity)
            ))
            return
        self.table.install(flt, priority, actions, self.sim.now)
        self.flowmods["install"] += 1
        done.trigger()

    def remove(self, flt: Filter, priority: Optional[int] = None) -> Event:
        """Remove rule(s); the returned event fires when the removal applies."""
        done = self.sim.event("flowdel@%s" % self.name)
        self.sim.schedule(self.flowmod_delay_ms, self._apply_remove, flt,
                          priority, done)
        return done

    def _apply_remove(self, flt: Filter, priority: Optional[int], done: Event) -> None:
        self.table.remove(flt, priority)
        self.flowmods["remove"] += 1
        done.trigger()

    def packet_out(
        self,
        packet: Packet,
        port_name: str,
        on_emit: Optional[Callable[[], None]] = None,
    ) -> None:
        """Emit ``packet`` from ``port_name``, subject to the sustained rate cap.

        ``on_emit`` (optional) runs right after the packet leaves the
        queue — the XFSM machines use it to learn when their flushed
        packets have drained so the FLUSH_IN_ORDER state can end.
        """
        self._packet_out_queue.append((packet, port_name, on_emit))
        if not self._packet_out_busy:
            self._packet_out_busy = True
            self.sim.schedule(self.packet_out_interval_ms, self._drain_packet_out)

    def packet_out_barrier(self) -> Event:
        """An event that fires once every *already queued* packet-out has
        been emitted (OpenFlow barrier semantics over the packet-out path).

        Later packet-outs do not extend the wait: the barrier is a marker
        in the queue, so it cannot be starved by a high event rate.
        """
        evt = self.sim.event("pktout-barrier@%s" % self.name)
        if not self._packet_out_queue and not self._packet_out_busy:
            evt.trigger()
            return evt
        self._packet_out_queue.append((None, evt, None))
        if not self._packet_out_busy:
            self._packet_out_busy = True
            self.sim.schedule(self.packet_out_interval_ms, self._drain_packet_out)
        return evt

    def _drain_packet_out(self) -> None:
        while self._packet_out_queue and self._packet_out_queue[0][0] is None:
            _marker, barrier_event, _cb = self._packet_out_queue.popleft()
            barrier_event.trigger()
        if not self._packet_out_queue:
            self._packet_out_busy = False
            return
        packet, port_name, on_emit = self._packet_out_queue.popleft()
        self.packet_outs_by_port[port_name] += 1
        if self.record_ground_truth:
            self._fwd_times.append(self.sim.now)
            self._fwd_uids.append(packet.uid)
            self._fwd_actions.append((port_name,))
        self._output(packet, port_name)
        if on_emit is not None:
            on_emit()
        self.sim.schedule(self.packet_out_interval_ms, self._drain_packet_out)

    def counters(self, flt: Filter, priority: Optional[int] = None) -> Tuple[int, int]:
        """(packets, bytes) for the entry with this exact filter."""
        entry = self.table.find(flt, priority)
        if entry is None:
            return (0, 0)
        return (entry.packets, entry.bytes)

    # -- XFSM control path (data-plane offload) ---------------------------------

    def install_state_machine(
        self, flt: Filter, spec: BufferUntilRelease
    ) -> Event:
        """Install a state machine over ``flt``; fires when it is active.

        Same consistent-update semantics as a flow-mod: the machine
        activates atomically after the flow-mod delay; until then the
        existing pipeline applies.
        """
        done = self.sim.event("xfsm-install@%s" % self.name)
        self.sim.schedule(
            self.flowmod_delay_ms, self._apply_xfsm_install, flt, spec, done
        )
        return done

    def _apply_xfsm_install(
        self, flt: Filter, spec: BufferUntilRelease, done: Event
    ) -> None:
        self._xfsm_machines.append(XFSMInstance(self, flt, spec))
        self.xfsm_installs += 1
        if not done.triggered:
            done.trigger()

    def remove_state_machine(self, flt: Filter) -> Event:
        """Remove the machine(s) over ``flt``; fires when the removal applies.

        A machine still flushing (packets of its rings waiting in the
        rate-capped packet-out queue) retires itself only once the last
        of them is out — removing it immediately would let new arrivals
        fall through to the table and overtake the queued flush. The
        event fires when the removal *command* applies; the deferred
        retirement is invisible to the controller (the lingering machine
        keeps in-order semantics, then disappears).
        """
        done = self.sim.event("xfsm-remove@%s" % self.name)
        self.sim.schedule(
            self.flowmod_delay_ms, self._apply_xfsm_remove, flt, done
        )
        return done

    def _apply_xfsm_remove(self, flt: Filter, done: Event) -> None:
        key = repr(flt)
        for machine in list(self._xfsm_machines):
            if repr(machine.filter) != key:
                continue

            def drop(m=machine) -> None:
                if m in self._xfsm_machines:
                    self._xfsm_machines.remove(m)

            if machine.retire_when_quiescent(drop):
                drop()
        if not done.triggered:
            done.trigger()

    def release_state_machine(self, flt: Filter, port: str) -> int:
        """Release buffered packets matching ``flt`` towards ``port``.

        Applied immediately on arrival (it is not a table modification);
        returns the number of packets flushed into the packet-out queue.
        """
        flushed = 0
        for machine in self._xfsm_machines:
            if flt.intersects(machine.filter):
                flushed += machine.release(flt, port)
        return flushed

