"""Switch-local XFSM state machines (data-plane offload).

The loss-free / order-preserving move's dominant cost is the per-packet
controller round trip: every packet arriving in the window travels
NF → controller as a ``PacketEvent``, sits in the operation's buffer,
and travels back out as a packet-out on release. The OpenState/SDPA
line of work shows the fix: install a small per-flow-space state
machine *once* at the switch and let the data plane run
buffer-until-release / redirect-after-flush locally.

:class:`BufferUntilRelease` is the machine spec the controller ships in
one ``install_state_machine`` southbound message (batchable like any
flow-mod); :class:`XFSMInstance` is the switch-resident execution of
that spec. The instance intercepts matching packets *before* table
lookup (an OpenState-style pre-match stage) and walks

    ``NORMAL → BUFFER → FLUSH_IN_ORDER → REDIRECT``

* **BUFFER** — matching packets park in per-flow rings keyed by the
  packet's direction-normalized 5-tuple key (the same key an exact
  symmetric :class:`~repro.flowspace.filter.Filter` produces), stamped
  with a machine-global sequence number so a full flush preserves
  cross-flow arrival order (§5.1.2's multi-flow moves need it).
* **FLUSH_IN_ORDER** — a ``release(filter, port)`` message merges the
  rings in sequence order into the switch's (rate-capped) packet-out
  queue towards the release port. New arrivals go to the back of that
  queue so they cannot overtake still-queued flushed packets.
* **REDIRECT** — once the machine's last queued packet has been
  emitted, matching packets fall through to the flow table, whose
  reroute rule (installed by the move before it sent the release) owns
  the flow space; the machine is inert until the controller removes it.

Early release composes per flow: releasing an exact sub-filter flushes
only that flow's ring and pins subsequent arrivals of the flow to the
release port (they queue behind the flushed packets), while the other
rings keep buffering.

The machine emits compact ``sw.buffer`` / ``sw.release`` / ``sw.drop``
records tagged with the owning operation's trace id, so the online
auditors and the conformance kit see the same complete loss-free /
order-preserving story they would for a controller-buffered move.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.flowspace.filter import Filter
from repro.net.packet import Packet

#: Machine states (strings, so traces and debugging stay readable).
BUFFER = "buffer"
FLUSH_IN_ORDER = "flush-in-order"
REDIRECT = "redirect"


class BufferUntilRelease:
    """Spec for a buffer-until-release machine, shipped in one message.

    ``trace_id`` ties the switch-emitted records to the installing
    operation's trace. ``ring_capacity`` bounds the *total* packets the
    machine may hold (None = unbounded, the default); overflow drops
    are counted and surfaced as ``sw.drop`` records — a drop is a
    loss-freedom violation, which is exactly why the default is
    unbounded.
    """

    kind = "buffer-until-release"

    __slots__ = ("trace_id", "ring_capacity")

    def __init__(
        self,
        trace_id: Optional[int] = None,
        ring_capacity: Optional[int] = None,
    ) -> None:
        self.trace_id = trace_id
        self.ring_capacity = ring_capacity


class XFSMInstance:
    """One installed machine: per-flow rings plus the release protocol."""

    def __init__(self, switch, flt: Filter, spec: BufferUntilRelease) -> None:
        self.switch = switch
        self.sim = switch.sim
        self.filter = flt
        self.spec = spec
        self.state = BUFFER
        #: flow key -> [(seq, packet), ...]; packets without a full
        #: 5-tuple ring under ``None`` and flush on full release only.
        self._rings: Dict[Optional[Tuple], List[Tuple[int, Packet]]] = {}
        #: Early-released flow keys -> the port their traffic now takes.
        self._released: Dict[Tuple, str] = {}
        self._seq = 0
        #: Packets this machine has sitting in the switch's packet-out
        #: queue; the FLUSH_IN_ORDER → REDIRECT transition waits for it
        #: to reach zero so fall-through arrivals cannot overtake them.
        self._in_queue = 0
        self.release_port: Optional[str] = None
        #: One-shot callbacks fired when the machine quiesces (removal
        #: requested mid-flush defers retirement until the last queued
        #: packet is out, so fall-through arrivals cannot overtake it).
        self._retire_callbacks: List = []
        #: Packets currently parked across all rings — kept incremental
        #: so the per-packet capacity check and the live dashboard stay
        #: O(1) regardless of ring count.
        self._buffered_count = 0

    # ------------------------------------------------------------- data path

    def matches(self, packet: Packet) -> bool:
        key = self.filter.exact_key()
        if key is not None:
            # A per-flow machine claims exactly the packets whose flow
            # key is its own — the flow table's bucket probe, no headers.
            return key in packet.match_keys()
        return self.filter.matches_packet(packet)

    def on_packet(self, packet: Packet) -> bool:
        """Run one packet through the machine.

        Returns True when the machine consumed the packet (buffered,
        dropped, or queued towards a release port); False means fall
        through to the flow table (REDIRECT state).
        """
        if self.state == REDIRECT:
            return False
        if self.state == FLUSH_IN_ORDER:
            # The flushed rings are still draining through the
            # rate-capped packet-out queue; go to the back of it so
            # arrival order survives the transition.
            self._emit(packet, self.release_port)
            return True
        key = packet.match_keys()[1]
        if key is not None and key in self._released:
            self._emit(packet, self._released[key])
            return True
        if (
            self.spec.ring_capacity is not None
            and self._buffered_count >= self.spec.ring_capacity
        ):
            self.switch.xfsm_dropped += 1
            obs = self.switch.obs
            if obs.enabled:
                obs.tracer.record(
                    "sw.drop",
                    trace_id=self.spec.trace_id,
                    sw=self.switch.name,
                    uid=packet.uid,
                    flow=packet.flow_key(),
                )
            return True
        self._seq += 1
        self._rings.setdefault(key, []).append((self._seq, packet))
        self.switch.xfsm_buffered += 1
        self._buffered_count += 1
        obs = self.switch.obs
        if obs.enabled:
            obs.tracer.record(
                "sw.buffer",
                trace_id=self.spec.trace_id,
                where="xfsm",
                sw=self.switch.name,
                uid=packet.uid,
                flow=packet.flow_key(),
            )
        return True

    # -------------------------------------------------------------- release

    def release(self, flt: Filter, port: str) -> int:
        """Flush buffered packets matching ``flt`` towards ``port``.

        A filter covering the machine's whole flow space is a *full*
        release: every ring flushes, merged in global sequence order,
        and the machine heads for REDIRECT. An exact sub-filter is an
        *early* (per-flow) release: only that flow's ring flushes and
        the flow is pinned to ``port`` while the rest keep buffering.
        Returns the number of packets flushed.
        """
        if flt.covers(self.filter):
            return self._release_all(port)
        return self._release_flow(flt, port)

    def _release_all(self, port: str) -> int:
        self.release_port = port
        merged: List[Tuple[int, Packet]] = []
        for ring in self._rings.values():
            merged.extend(ring)
        self._rings.clear()
        self._buffered_count = 0
        merged.sort(key=lambda item: item[0])
        for _seq, packet in merged:
            self._record_release(packet, "flush")
            self._emit(packet, port)
        self.switch.xfsm_released += len(merged)
        self.state = FLUSH_IN_ORDER if self._in_queue else REDIRECT
        return len(merged)

    def _release_flow(self, flt: Filter, port: str) -> int:
        key = flt.exact_key()
        if key is None:
            return 0
        self._released[key] = port
        ring = self._rings.pop(key, [])
        self._buffered_count -= len(ring)
        for _seq, packet in ring:
            self._record_release(packet, "early")
            self._emit(packet, port)
        if ring:
            self.switch.xfsm_released += len(ring)
        return len(ring)

    def _emit(self, packet: Packet, port: str) -> None:
        self._in_queue += 1
        self.switch.packet_out(packet, port, on_emit=self._emitted)

    def _emitted(self) -> None:
        self._in_queue -= 1
        if self.state == FLUSH_IN_ORDER and self._in_queue == 0:
            self.state = REDIRECT
        if self._retire_callbacks and self.quiescent:
            callbacks, self._retire_callbacks = self._retire_callbacks, []
            for callback in callbacks:
                callback()

    @property
    def quiescent(self) -> bool:
        """Nothing parked and nothing of ours in the packet-out queue."""
        return self._in_queue == 0 and not any(self._rings.values())

    def retire_when_quiescent(self, callback) -> bool:
        """Retire now (returns True) or as soon as the flush drains.

        A machine removed mid-FLUSH_IN_ORDER must keep intercepting
        until its last queued packet is emitted — otherwise a new
        arrival falls through to the (instant) flow table and overtakes
        packets still waiting in the rate-capped packet-out queue.
        """
        if self.quiescent:
            return True
        self._retire_callbacks.append(callback)
        return False

    def _record_release(self, packet: Packet, where: str) -> None:
        obs = self.switch.obs
        if obs.enabled:
            obs.tracer.record(
                "sw.release",
                trace_id=self.spec.trace_id,
                where=where,
                sw=self.switch.name,
                uid=packet.uid,
                flow=packet.flow_key(),
            )
