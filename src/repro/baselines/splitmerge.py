"""Split/Merge-style ``migrate`` (Rajagopalan et al., NSDI'13).

The comparison baseline of §2.2 and Figure 5 of the OpenNF paper. Its
``migrate(f)`` reroutes a flow and moves corresponding state, but:

* packets in flight to (or queued at) the source when migration starts
  are **dropped with no record** — violating the second half of
  loss-freedom ("all packets the switch receives should be processed");
* traffic arriving at the switch during migration is halted and
  buffered at the orchestrator, then flushed to the destination —
  racing the forwarding-table update: a packet (Figure 5's ``p_{i+2}``)
  can reach the controller after the flush but before the new rule is
  active, and is then forwarded to the destination *after* packets the
  switch already sent there directly — an order violation.

Both defects are reproduced faithfully so the property tests can
demonstrate them under adversarial timing.
"""

from __future__ import annotations

from typing import Any, List

from repro.flowspace.filter import Filter
from repro.net.flowtable import HIGH_PRIORITY, MID_PRIORITY
from repro.net.packet import Packet
from repro.net.switch import CONTROLLER_PORT
from repro.nf.events import EventAction
from repro.nf.state import Scope
from repro.controller.move import DRAIN_GRACE_MS
from repro.controller.operation import Operation, _plan
from repro.sim.process import AllOf

#: The baseline has one variant.
SPLITMERGE_PLANS = {
    "migrate": _plan("halt", "transfer", "flush", "reroute"),
}


class SplitMergeMigrate(Operation):
    """One in-flight Split/Merge migration; ``done`` fires with a report.

    It shares the operations' driver and the controller's observability
    bundle, so the baseline's defects are visible to the same auditors
    as OpenNF moves — its root span carries ``guarantee="none"``, so the
    auditors still hold it to loss-freedom (drops are real losses here,
    not a guarantee the baseline opted out of) but not to ordering. It
    runs outside admission on purpose, and an instance failure only
    stops it: the baseline has no recovery to reproduce.
    """

    kind = "splitmerge-migrate"

    def __init__(
        self,
        controller,
        src: Any,
        dst: Any,
        flt: Filter,
    ) -> None:
        super().__init__(
            controller, controller._owner_shard(flt), flt,
            SPLITMERGE_PLANS["migrate"], {"guarantee": "none"},
            guarantee="none",
            src=controller.client(src), dst=controller.client(dst),
        )
        self.dst_port = controller.port_of(self.dst.name)
        self._halted_packets: List[Packet] = []
        self._halting = True
        self._interest_handles.append(
            controller.add_packet_interest(flt, self._on_packet_in)
        )

    def _on_packet_in(self, packet: Packet) -> None:
        if self._halting:
            # Halted at the orchestrator while state moves.
            if self.obs.enabled:
                self._record_packet("ctrl.buffer", packet, "halt")
            self._halted_packets.append(packet)
        else:
            # Figure 5's race: a late packet is forwarded to dstInst even
            # though the switch may already be sending newer packets there.
            self.switch.packet_out(packet, self.dst_port)

    def _step_halt(self, parent):
        # 1+2 concurrently: the Split/Merge library inside srcInst starts
        # dropping matching packets on dequeue the moment migrate() begins,
        # while the orchestrator halts traffic at the switch. Packets
        # in flight (or queued at srcInst) until the halt rule applies are
        # dropped with no record — the loss-freedom violation of §5.1.1.
        yield AllOf([
            self.src.enable_events(self.flt, EventAction.DROP, silent=True),
            self.switch.install(self.flt, [CONTROLLER_PORT], MID_PRIORITY),
        ])
        self.report.mark_phase("halted", self.sim.now)

    def _step_transfer(self, parent):
        # 3. Move the state (Split/Merge migrates partitioned, i.e.
        # per-flow, state only).
        chunks = yield self.src.get_perflow(self.flt)
        for chunk in chunks:
            self.report.add_chunk(Scope.PERFLOW.value, chunk.size_bytes)
        yield self.src.del_perflow([c.flowid for c in chunks])
        yield self.dst.put_perflow(chunks)
        self.report.mark_phase("state-transferred", self.sim.now)

    def _step_flush(self, parent):
        # 4. Flush the packets buffered at the orchestrator...
        for packet in self._halted_packets:
            if self.obs.enabled:
                self._record_packet("ctrl.release", packet, "halt")
            self.switch.packet_out(packet, self.dst_port)
        self.report.packets_in_events = len(self._halted_packets)
        self.report.affected_uids.update(p.uid for p in self._halted_packets)
        self._halted_packets = []
        self._halting = False
        yield from ()

    def _step_reroute(self, parent):
        # 5. ...and race the forwarding update (no synchronization).
        yield self.switch.install(self.flt, [self.dst_port], HIGH_PRIORITY)
        self.report.mark_phase("rerouted", self.sim.now)

    def _cleanup(self):
        self.report.finished_at = self.sim.now
        yield DRAIN_GRACE_MS
        self._drop_interests()
        yield self.src.disable_events_covered(self.flt)
        yield self.switch.remove(self.flt, MID_PRIORITY)
        self._count_src_drops()
