"""Deployment wiring: one switch, one controller, N NF instances.

Models the paper's evaluation topologies (Figure 4's off-path/on-path
placements and Figure 7's monitored network): an SDN switch receives
(a copy of) traffic and forwards it to NF instances over links; the
OpenNF controller talks to the switch and to every NF over control
channels. :class:`Deployment` assembles all of it with calibrated
default latencies and exposes the handful of helpers experiments need.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.costs import CHANNEL_BANDWIDTH_BYTES_PER_MS, MSG_PROC_MS
from repro.flowspace.filter import Filter
from repro.net.flowtable import LOW_PRIORITY
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.switch import Switch
from repro.nf.base import NetworkFunction
from repro.nf.southbound import NFClient
from repro.controller.controller import OpenNFController
from repro.obs import Observability
from repro.sim.core import Simulator


class Deployment:
    """A wired-up simulation: switch + controller + NFs."""

    def __init__(
        self,
        msg_proc_ms: float = MSG_PROC_MS,
        nf_channel_bandwidth_bytes_per_ms: float = CHANNEL_BANDWIDTH_BYTES_PER_MS,
        observe: bool = False,
        audit: bool = False,
        faults=None,
        batching=None,
        record_ground_truth: bool = True,
        shards: int = 1,
        offload: bool = False,
    ) -> None:
        self.sim = Simulator()
        #: One shared observability bundle; disabled unless
        #: ``observe=True``, in which case spans land in
        #: ``self.obs.exporter``. ``audit=True`` additionally streams
        #: the trace through the online guarantee auditors and arms the
        #: flight recorder (implies ``observe``), whose rings are the
        #: one bounded trace store.
        self.obs = Observability(sim=self.sim, enabled=observe, audit=audit)
        #: Optional :class:`repro.faults.FaultPlan` (or a spec string for
        #: :meth:`FaultPlan.from_spec`). Installing one switches the
        #: whole control plane into reliable mode; ``None`` keeps the
        #: classic, perfectly-reliable fast path byte-for-byte identical.
        if isinstance(faults, str):
            from repro.faults import FaultPlan

            faults = FaultPlan.from_spec(faults)
        self.faults = faults
        #: Optional :class:`repro.net.channel.BatchConfig`. ``True`` means
        #: "defaults"; ``None``/``False`` keeps the unbatched transport
        #: byte-for-byte identical to the classic path.
        if batching is True:
            from repro.net.channel import BatchConfig

            batching = BatchConfig()
        elif batching is False:
            batching = None
        self.batching = batching
        #: Data-plane offload (switch-local buffer/release XFSMs for the
        #: move fast path); ``False`` keeps the window buffered at the
        #: controller.
        self.offload = bool(offload)
        #: Ground-truth logging (forward_log / processing_log / durations,
        #: held in columns: 48 B per packet). On by default; benchmarks
        #: turn it off so log appends do not pollute wall-clock
        #: measurements.
        self.record_ground_truth = record_ground_truth
        self.switch = Switch(
            self.sim,
            name="sw",
            obs=self.obs,
            record_ground_truth=record_ground_truth,
        )
        #: How many serialized message loops the controller partitions
        #: flow-space ownership across (the paper's controller has one).
        self.shards = shards
        self.controller = OpenNFController(
            self.sim,
            switch=self.switch,
            msg_proc_ms=msg_proc_ms,
            nf_channel_bandwidth_bytes_per_ms=nf_channel_bandwidth_bytes_per_ms,
            obs=self.obs,
            faults=self.faults,
            batching=self.batching,
            offload=self.offload,
            shards=shards,
        )
        self.nfs: Dict[str, NetworkFunction] = {}

    def add_nf(self, nf: NetworkFunction) -> NFClient:
        """Wire an NF into the data path and register it southbound."""
        nf.attach_obs(self.obs)
        nf.record_ground_truth = self.record_ground_truth
        self.nfs[nf.name] = nf
        return self.controller.register_nf(nf, port=self._attach(nf))

    def _attach(self, nf: NetworkFunction) -> str:
        """Put ``nf`` behind a link from the switch; returns its port."""
        link = Link(self.sim, name="sw->%s" % nf.name)
        self.switch.attach(nf.name, nf.receive, link)
        return nf.name

    def set_default_route(
        self, nf_name: str, flt: Optional[Filter] = None
    ) -> None:
        """Bootstrap rule: send (matching) traffic to ``nf_name``'s port.

        Installed directly in the table (deployment-time configuration,
        not a controller operation).
        """
        self.switch.table.install(
            flt or Filter.wildcard(), LOW_PRIORITY,
            [self.controller.port_of(nf_name)], self.sim.now,
        )

    def chain(
        self,
        name: str,
        hops,
        flt: Optional[Filter] = None,
        links=(),
    ):
        """Declare an NF chain and install its multicast data-path rule.

        This is the one blessed way to construct a
        :class:`~repro.controller.chain.Chain`. ``hops`` is an ordered
        sequence of ``(hop_name, instances)`` pairs (``instances`` a
        name or sequence of names; the first is initially active); every
        named instance must already be attached via :meth:`add_nf`. The
        data path is a single rule over the chain filter whose action
        list carries one port per hop, so the switch delivers each
        matching packet to every hop's active instance.
        """
        from repro.controller.chain import Chain, ChainSpec

        spec = ChainSpec(name, hops, flt or Filter.wildcard(), links=links)
        for _, instances in spec.hops:
            for inst in instances:
                if inst not in self.nfs:
                    raise ValueError(
                        "chain %r names unknown instance %r "
                        "(add_nf it first)" % (name, inst)
                    )
        chain = Chain(self.controller, spec)
        self.switch.table.install(
            spec.flt, LOW_PRIORITY, chain.active_ports(), self.sim.now
        )
        return chain

    def inject(self, packet: Packet) -> None:
        """Entry point for generated traffic (the switch's ingress)."""
        self.switch.inject(packet)

    # ------------------------------------------------- schedule-injection hooks

    def call_at(self, at_ms: float, fn, *args) -> None:
        """Run ``fn(*args)`` at absolute simulated time ``at_ms``.

        Times already in the past run immediately (delay 0). This is the
        seam the conformance kit's schedule runner drives: operations,
        aborts, and share teardowns are placed on the timeline with it.
        """
        self.sim.schedule(max(0.0, at_ms - self.sim.now), fn, *args)

    def inject_at(self, at_ms: float, packets) -> None:
        """Inject packets at absolute time ``at_ms``.

        ``packets`` is either an iterable of pre-built packets or a
        zero-arg callable returning one. Prefer the callable form when
        uids must be minted in injection order (packet uids are a global
        monotonic counter, and the order auditor reads per-flow uid
        order as arrival order).
        """

        def deliver() -> None:
            batch = packets() if callable(packets) else packets
            if isinstance(batch, Packet):
                batch = [batch]
            for packet in batch:
                self.inject(packet)

        self.call_at(at_ms, deliver)

    # ------------------------------------------------------------------ metrics

    @property
    def control_messages_sent(self) -> int:
        """Messages on the controller's channels: every NF's both ways
        plus the switch's both ways."""
        ctrl = self.controller
        sw = ctrl.switch_client
        total = sw.to_switch.messages_sent + sw.from_switch.messages_sent
        for client in ctrl.clients.values():
            total += client.to_nf.messages_sent + client.from_nf.messages_sent
        return total

    def processed_uid_counts(self) -> Dict[int, int]:
        """How many times each packet uid was processed, across instances."""
        counts: Dict[int, int] = {}
        for nf in self.nfs.values():
            for _time, uid in nf.processing_log:
                counts[uid] = counts.get(uid, 0) + 1
        return counts

