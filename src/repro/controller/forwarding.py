"""Controller-side switch client.

Wraps the simulated switch behind the control channel, so every
forwarding-state update and packet-out the controller issues pays the
controller→switch latency the paper's race conditions depend on
(Figure 5: the gap between "controller decided" and "rule active" is
exactly where Split/Merge reorders packets).
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence, Tuple

from repro.flowspace.filter import Filter
from repro.net.channel import ControlChannel
from repro.net.packet import Packet
from repro.net.switch import Switch
from repro.net.xfsm import BufferUntilRelease
from repro.nf.southbound import (
    REQUEST_ID_BYTES,
    SouthboundTimeout,
    send_until_done,
)
from repro.obs import NULL_OBS
from repro.sim.core import Event, Simulator

_MSG_BYTES = 128

#: Calibrated controller↔switch control-channel propagation delay.
SW_CHANNEL_LATENCY_MS = 0.6

_xfsm_rpc_ids = itertools.count(1)


class SwitchClient:
    """RPC stub for the SDN switch."""

    def __init__(
        self,
        sim: Simulator,
        switch: Switch,
        to_switch: Optional[ControlChannel] = None,
        from_switch: Optional[ControlChannel] = None,
        obs=None,
        reliable: bool = False,
    ) -> None:
        self.sim = sim
        self.switch = switch
        self.obs = obs or NULL_OBS
        #: When True (a fault plan is installed) the XFSM control calls
        #: carry request ids, retry on a timeout, and are deduplicated
        #: switch-side; False keeps the classic single-send path.
        self.reliable = reliable
        self.rpc_retries = 0
        self.to_switch = to_switch or ControlChannel(
            sim, name="ctrl->sw", obs=self.obs
        )
        self.from_switch = from_switch or ControlChannel(
            sim, name="sw->ctrl", obs=self.obs
        )

    def _observe_flowmod(self, kind: str, done: Event, flt: Filter) -> Event:
        """Span one forwarding update from issue to rule-active."""
        if not self.obs.enabled:
            return done
        span = self.obs.tracer.span(
            "sw.%s" % kind, sw=self.switch.name, filter=str(flt)
        )
        start = self.sim.now
        metrics = self.obs.metrics

        def close(event: Event) -> None:
            metrics.histogram("sw.flowmod_ms").observe(
                self.sim.now - start, sw=self.switch.name, kind=kind
            )
            if not event.ok:
                span.set(error=repr(event.exception))
                span.status = "error"
            span.finish()

        done.add_callback(close)
        return done

    def install(
        self, flt: Filter, actions: Sequence[str], priority: int
    ) -> Event:
        """Install a rule; the event fires once the rule is active at the switch."""
        done = self.sim.event("install@sw")

        def at_switch() -> None:
            self.switch.install(flt, actions, priority).add_callback(
                lambda _evt: done.trigger()
            )

        self.to_switch.send(_MSG_BYTES, at_switch)
        return self._observe_flowmod("install", done, flt)

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
        done = self.sim.event("install-batch@sw")
        if not mods:
            self.sim.schedule(0.0, done.trigger)
            return done

        def at_switch() -> None:
            pending = [
                self.switch.install(flt, list(actions), priority)
                for flt, actions, priority in mods
            ]
            remaining = [len(pending)]

            def one_done(_evt: Event) -> None:
                remaining[0] -= 1
                if remaining[0] == 0:
                    done.trigger()

            for evt in pending:
                evt.add_callback(one_done)

        size = _MSG_BYTES + 48 * (len(mods) - 1)
        self.to_switch.send(size, at_switch)
        if self.obs.enabled:
            self.obs.metrics.counter("sw.flowmod_batches").inc(
                1, sw=self.switch.name
            )
            self.obs.metrics.histogram("sw.flowmod_batch_size").observe(
                len(mods), sw=self.switch.name
            )
        return self._observe_flowmod("install_batch", done, mods[0][0])

    def remove(self, flt: Filter, priority: Optional[int] = None) -> Event:
        """Remove rule(s); the event fires once the removal is active."""
        done = self.sim.event("remove@sw")

        def at_switch() -> None:
            self.switch.remove(flt, priority).add_callback(
                lambda _evt: done.trigger()
            )

        self.to_switch.send(_MSG_BYTES, at_switch)
        return self._observe_flowmod("remove", done, flt)

    def packet_out(self, packet: Packet, port: str) -> None:
        """OpenFlow packet-out: re-inject ``packet`` towards ``port``.

        Subject first to the control-channel latency, then to the
        switch's sustained packet-out rate limit.
        """
        if self.obs.enabled:
            self.obs.metrics.counter("ctrl.packet_outs").inc(
                1, sw=self.switch.name, port=port
            )
        # queue_send coalesces bursts of packet-outs (event flushes) into
        # one frame when batching is on; packet_out_barrier() below uses a
        # plain send, which flushes the queue first, so barrier semantics
        # are preserved.
        self.to_switch.queue_send(
            packet.size_bytes + _MSG_BYTES, self.switch.packet_out, packet, port
        )

    def packet_out_barrier(self) -> Event:
        """Fires once all packet-outs issued so far have been emitted.

        The loss-free move uses this between flushing buffered events and
        updating the route, so evented packets reach the destination
        before traffic is switched over — and so the packet-out rate cap
        shows up in the total move time, as in §8.1.1.
        """
        done = self.sim.event("pktout-barrier")

        def at_switch() -> None:
            self.switch.packet_out_barrier().add_callback(
                lambda _evt: done.trigger()
            )

        self.to_switch.send(_MSG_BYTES, at_switch)
        return done

    def read_entries(self, flt: Filter) -> Event:
        """List rules overlapping ``flt``; fires with
        ``[(filter, priority, actions), ...]``.

        The strict-consistency share (§5.2.2) uses this to find "all
        relevant forwarding entries" to redirect to the controller.
        """
        done = self.sim.event("entries@sw")

        def at_switch() -> None:
            entries = [
                (e.filter, e.priority, e.actions)
                for e in self.switch.table.entries_overlapping(flt)
            ]
            self.from_switch.send(_MSG_BYTES + 64 * len(entries), done.trigger, entries)

        self.to_switch.send(_MSG_BYTES, at_switch)
        return done

    def read_counters(
        self, flt: Filter, priority: Optional[int] = None
    ) -> Event:
        """Fetch (packets, bytes) for a rule; fires with the tuple."""
        done = self.sim.event("counters@sw")

        def at_switch() -> None:
            counters = self.switch.counters(flt, priority)
            self.from_switch.send(_MSG_BYTES, done.trigger, counters)

        self.to_switch.send(_MSG_BYTES, at_switch)
        return done

    # -------------------------------------------- XFSM (data-plane offload)

    def _send_command(
        self,
        label: str,
        at_switch: Callable[[], Optional[Callable[[], None]]],
        done: Event,
    ) -> None:
        """One XFSM command to the switch, applied at most once.

        The classic path is a single plain send (an ordering barrier:
        pending batch frames — e.g. queued packet-outs — flush first, so
        a release can never overtake packets the controller emitted
        before it). The reliable path puts the request id on the wire
        and resends until ``done`` resolves; the switch applies the
        first copy and answers any later one by re-running the resend
        thunk ``at_switch`` returned (none for a command whose effect,
        not a response, resolves ``done``).
        """
        request_id = next(_xfsm_rpc_ids)

        def deliver() -> None:
            if self.switch.xfsm_rpc_deliver(request_id):
                resend = at_switch()
                if resend is not None:
                    self.switch.xfsm_rpc_complete(request_id, resend)

        if not self.reliable:
            self.to_switch.send(_MSG_BYTES, deliver)
            return

        def on_timeout(final: bool) -> None:
            if final:
                return
            self.rpc_retries += 1
            if self.obs.enabled:
                self.obs.metrics.counter("sw.rpc_retries").inc(
                    1, sw=self.switch.name, rpc=label
                )

        send_until_done(
            self.sim, done,
            lambda: self.to_switch.send(
                _MSG_BYTES + REQUEST_ID_BYTES, deliver
            ),
            on_timeout,
            lambda attempts: SouthboundTimeout(
                "switch rpc %s exhausted %d attempts" % (label, attempts),
                self.switch.name,
            ),
        )

    def install_state_machine(
        self, flt: Filter, spec: BufferUntilRelease
    ) -> Event:
        """Ship an XFSM to the switch in ONE control message.

        The event fires once the machine is active (after the flow-mod
        delay, consistent-update semantics) — from that moment matching
        packets park in switch-local rings instead of travelling to the
        source NF.
        """
        done = self.sim.event("xfsm-install@sw")

        def at_switch() -> None:
            self.switch.install_state_machine(flt, spec).add_callback(
                lambda _evt: None if done.triggered else done.trigger()
            )

        self._send_command("xfsm_install", at_switch, done)
        return self._observe_flowmod("xfsm_install", done, flt)

    def remove_state_machine(self, flt: Filter) -> Event:
        """Retire the machine(s) over ``flt``; fires once removal applies."""
        done = self.sim.event("xfsm-remove@sw")

        def at_switch() -> None:
            self.switch.remove_state_machine(flt).add_callback(
                lambda _evt: None if done.triggered else done.trigger()
            )

        self._send_command("xfsm_remove", at_switch, done)
        return self._observe_flowmod("xfsm_remove", done, flt)

    def release_state_machine(self, flt: Filter, port: str) -> Event:
        """ONE release message: flush matching buffered packets to ``port``.

        This replaces the classic per-packet packet-out storm — the
        switch flushes its rings locally, in order, into the rate-capped
        packet-out path. Fires with the number of packets flushed.
        """
        done = self.sim.event("xfsm-release@sw")

        def at_switch() -> Callable[[], None]:
            flushed = self.switch.release_state_machine(flt, port)

            def respond() -> None:
                self.from_switch.send(
                    _MSG_BYTES,
                    lambda: None if done.triggered else done.trigger(flushed),
                )

            respond()
            return respond

        self._send_command("xfsm_release", at_switch, done)
        return done
