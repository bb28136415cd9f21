"""Controller-side switch client.

Wraps the simulated switch behind the control channel, so every
forwarding-state update and packet-out the controller issues pays the
controller→switch latency the paper's race conditions depend on
(Figure 5: the gap between "controller decided" and "rule active" is
exactly where Split/Merge reorders packets).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.controller.operation import when_all
from repro.flowspace.filter import Filter
from repro.net.channel import ControlChannel
from repro.net.packet import Packet
from repro.net.switch import Switch
from repro.net.xfsm import BufferUntilRelease
from repro.nf.southbound import REQUEST_BYTES, Call, SouthboundStub
from repro.obs import NULL_OBS
from repro.sim.core import Event, Simulator

#: Calibrated controller↔switch control-channel propagation delay.
SW_CHANNEL_LATENCY_MS = 0.6


class SwitchClient(SouthboundStub):
    """RPC stub for the SDN switch.

    The XFSM commands are reliable whenever a fault plan is installed;
    the flow-mod family (``on_fault_only``) stays single-send until the
    switch channel itself carries a fault injector.
    """

    SPAN = "sw.%s"
    PEER_LABEL = "sw"

    def __init__(
        self,
        sim: Simulator,
        switch: Switch,
        to_switch: Optional[ControlChannel] = None,
        from_switch: Optional[ControlChannel] = None,
        obs=None,
        reliable: bool = False,
    ) -> None:
        obs = obs or NULL_OBS
        super().__init__(
            sim, switch,
            to_switch or ControlChannel(sim, name="ctrl->sw", obs=obs),
            from_switch or ControlChannel(sim, name="sw->ctrl", obs=obs),
            obs, reliable,
        )
        self.switch = switch
        self.to_switch = self.to_peer
        self.from_switch = self.from_peer
        #: port -> packet-outs issued towards it.
        self.packet_outs_by_port: Dict[str, int] = defaultdict(int)
        #: RPC kind -> its bound ``sw.flowmod_ms`` series.
        self._flowmod_ms: Dict[str, Any] = {}

    def _note_done(
        self, op: str, elapsed_ms: float, retries: Optional[int]
    ) -> None:
        bound = self._flowmod_ms.get(op)
        if bound is None:
            bound = self._flowmod_ms[op] = self.obs.metrics.histogram(
                "sw.flowmod_ms"
            ).bind(sw=self.switch.name, kind=op)
        bound.observe(elapsed_ms)

    def _publish(self, reg) -> None:
        sw = self.peer.name
        for op, count in self.retries_by_op.items():
            reg.publish("sw.rpc_retries", count, sw=sw, rpc=op)
        for port, count in self.packet_outs_by_port.items():
            reg.publish("ctrl.packet_outs", count, sw=sw, port=port)

    def install(
        self, flt: Filter, actions: Sequence[str], priority: int
    ) -> Event:
        """Install a rule; the event fires once the rule is active at the switch."""
        def at_switch(call: Call) -> None:
            self.switch.install(flt, actions, priority).add_callback(call.ack)

        return self._call("install", "install@sw", at_switch,
                          on_fault_only=True, filter=str(flt))

    def install_batch(
        self, mods: Sequence[Tuple[Filter, Sequence[str], int]]
    ) -> Event:
        """Install several rules with ONE control message (§8.3 batching).

        ``mods`` is a sequence of ``(filter, actions, priority)`` tuples;
        the returned event fires once every rule in the batch is active.
        The wire cost is a single flow-mod frame — the first mod pays the
        full message overhead, each additional one only its entry bytes —
        instead of ``len(mods)`` round-trips through the channel.
        """
        mods = list(mods)
        if not mods:
            return self.sim.timeout(0.0, name="install-batch@sw")

        def at_switch(call: Call) -> None:
            installs = [self.switch.install(flt, list(actions), priority)
                        for flt, actions, priority in mods]
            # Acked once all settled; one refused rule fails the batch.
            when_all(installs, lambda: call.ack(
                next((evt for evt in installs if not evt.ok), None)
            ))

        if self.obs.enabled:
            self.obs.metrics.counter("sw.flowmod_batches").inc(
                1, sw=self.switch.name
            )
            self.obs.metrics.histogram("sw.flowmod_batch_size").observe(
                len(mods), sw=self.switch.name
            )
        return self._call(
            "install_batch", "install-batch@sw", at_switch,
            payload_bytes=48 * (len(mods) - 1),
            on_fault_only=True, filter=str(mods[0][0]),
        )

    def remove(self, flt: Filter, priority: Optional[int] = None) -> Event:
        """Remove rule(s); the event fires once the removal is active."""
        def at_switch(call: Call) -> None:
            self.switch.remove(flt, priority).add_callback(call.ack)

        return self._call("remove", "remove@sw", at_switch,
                          on_fault_only=True, filter=str(flt))

    def packet_out(self, packet: Packet, port: str) -> None:
        """OpenFlow packet-out: re-inject ``packet`` towards ``port``.

        Subject first to the control-channel latency, then to the
        switch's sustained packet-out rate limit. Fire-and-forget: on a
        faulted switch channel a dropped packet-out is not resent.
        """
        self.packet_outs_by_port[port] += 1
        # queue_send coalesces bursts of packet-outs (event flushes) into
        # one frame when batching is on; every RPC ships with a plain
        # send, which flushes the queue first, so packet_out_barrier()
        # keeps its semantics and an XFSM release can never overtake
        # packets the controller emitted before it.
        self.to_switch.queue_send(
            packet.size_bytes + REQUEST_BYTES, self.switch.packet_out,
            packet, port,
        )

    def packet_out_barrier(self) -> Event:
        """Fires once all packet-outs issued so far have been emitted.

        The loss-free move uses this between flushing buffered events and
        updating the route, so evented packets reach the destination
        before traffic is switched over — and so the packet-out rate cap
        shows up in the total move time, as in §8.1.1.
        """
        def at_switch(call: Call) -> None:
            self.switch.packet_out_barrier().add_callback(call.ack)

        return self._call("packet_out_barrier", "pktout-barrier", at_switch,
                          on_fault_only=True, spanned=False)

    def read_entries(self, flt: Filter) -> Event:
        """List rules overlapping ``flt``; fires with
        ``[(filter, priority, actions), ...]``.

        The strict-consistency share (§5.2.2) uses this to find "all
        relevant forwarding entries" to redirect to the controller.
        """
        def at_switch(call: Call) -> None:
            entries = [
                (e.filter, e.priority, e.actions)
                for e in self.switch.table.entries_overlapping(flt)
            ]
            call.reply(entries, REQUEST_BYTES + 64 * len(entries))

        return self._call("read_entries", "entries@sw", at_switch,
                          on_fault_only=True, spanned=False)

    def read_counters(
        self, flt: Filter, priority: Optional[int] = None
    ) -> Event:
        """Fetch (packets, bytes) for a rule; fires with the tuple."""
        return self._call(
            "read_counters", "counters@sw",
            lambda call: call.reply(self.switch.counters(flt, priority)),
            on_fault_only=True, spanned=False,
        )

    # -------------------------------------------- XFSM (data-plane offload)

    def install_state_machine(
        self, flt: Filter, spec: BufferUntilRelease
    ) -> Event:
        """Ship an XFSM to the switch in ONE control message.

        The event fires once the machine is active (after the flow-mod
        delay, consistent-update semantics) — from that moment matching
        packets park in switch-local rings instead of travelling to the
        source NF.
        """
        def at_switch(call: Call) -> None:
            self.switch.install_state_machine(flt, spec).add_callback(
                call.ack
            )

        return self._call("xfsm_install", "xfsm-install@sw", at_switch,
                          filter=str(flt))

    def remove_state_machine(self, flt: Filter) -> Event:
        """Retire the machine(s) over ``flt``; fires once removal applies."""
        def at_switch(call: Call) -> None:
            self.switch.remove_state_machine(flt).add_callback(call.ack)

        return self._call("xfsm_remove", "xfsm-remove@sw", at_switch,
                          filter=str(flt))

    def release_state_machine(self, flt: Filter, port: str) -> Event:
        """ONE release message: flush matching buffered packets to ``port``.

        This replaces the classic per-packet packet-out storm — the
        switch flushes its rings locally, in order, into the rate-capped
        packet-out path. Fires with the number of packets flushed.
        """
        return self._call(
            "xfsm_release", "xfsm-release@sw",
            lambda call: call.reply(
                self.switch.release_state_machine(flt, port)
            ),
            spanned=False,
        )
