"""L4 load balancer NF.

§4.1 of the paper lists load balancers [1, 7] among the NFs whose state
it taxonomized. This one does weighted round-robin backend selection
with per-flow affinity:

* **per-flow** — the flow→backend binding (losing it mid-flow sends a
  connection to a different backend, breaking the session — which is
  why rebalancing LB instances needs state moves too);
* **multi-flow** — per-backend health/connection accounting (shared by
  every flow pinned to that backend);
* **all-flows** — the rotor position and global counters.

The failure mode tests exercise: after an *unsafe* reallocation, a
mid-flow packet arrives with no binding; the balancer must pick a fresh
backend, and with high probability the session breaks
(:attr:`broken_affinity` counts these).
"""

from __future__ import annotations

from operator import and_
from typing import List, Optional, Sequence

from repro.flowspace.filter import FlowId
from repro.flowspace.index import FlowKeyedStore
from repro.nf.base import NetworkFunction
from repro.nf.costs import NFCostModel
from repro.nf.record import Record, keep
from repro.nf.state import ADD, HOST_FIELDS, MERGE, Scope, StateChunk, StateSpec
from repro.net.packet import Packet
from repro.sim.core import Simulator

#: Cheap per-flow records, comparable to conntrack.
LB_COSTS = NFCostModel(
    proc_ms=0.03,
    serialize_base_ms=0.06,
    serialize_per_kb_ms=0.005,
    deserialize_base_ms=0.03,
    deserialize_per_kb_ms=0.002,
    call_overhead_ms=1.0,
)


class BackendStats(Record):
    """Multi-flow state: accounting for one backend server."""

    __slots__ = FIELDS = ("backend", "weight", "active_flows", "total_flows",
                          "packets", "healthy")
    #: Idempotent max: re-copying (§5.2.1) must converge, and addition
    #: double-counts every round (summing *disjoint* observations at
    #: scale-in would need delta tracking, which this NF does not need).
    MERGE = dict(backend=keep, weight=keep, active_flows=max, total_flows=max,
                 packets=max, healthy=and_)

    def __init__(self, backend: str) -> None:
        self.backend = backend
        self.weight = 1  # round-robin share; reweight by assignment
        self.active_flows = 0
        self.total_flows = 0
        self.packets = 0
        self.healthy = True


class LoadBalancer(NetworkFunction):
    """Weighted round-robin L4 balancer with per-flow affinity."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        backends: Sequence[str] = ("192.168.1.1", "192.168.1.2"),
        costs: Optional[NFCostModel] = None,
    ) -> None:
        super().__init__(sim, name, costs or LB_COSTS)
        self.backends: FlowKeyedStore = FlowKeyedStore()
        for backend in backends:
            self.backends[FlowId.for_host(backend)] = BackendStats(backend)
        self.bindings: FlowKeyedStore = FlowKeyedStore()
        self._rotor = 0
        self.stats = {"packets": 0, "flows": 0}
        #: Mid-flow packets that arrived with no binding: the session had
        #: to be re-pinned, most likely breaking it.
        self.broken_affinity = 0

    # ------------------------------------------------------------- processing

    def _pick_backend(self) -> str:
        ordered = sorted(
            (stats for stats in self.backends.values() if stats.healthy),
            key=lambda s: s.backend,
        )
        if not ordered:
            raise RuntimeError("no healthy backends at %s" % self.name)
        expanded: List[BackendStats] = []
        for stats in ordered:
            expanded.extend([stats] * max(1, stats.weight))
        choice = expanded[self._rotor % len(expanded)]
        self._rotor += 1
        return choice.backend

    def process_packet(self, packet: Packet) -> None:
        self.stats["packets"] += 1
        flow_id = FlowId.for_flow(packet.five_tuple.canonical())
        binding = self.bindings.get(flow_id)
        if binding is None:
            if not packet.is_syn():
                self.broken_affinity += 1  # session torn, must re-pin
            backend = self._pick_backend()
            binding = {
                "backend": backend,
                "created_at": self.sim.now,
                "packets": 0,
            }
            self.bindings[flow_id] = binding
            self.stats["flows"] += 1
            stats = self._stats_for(backend)
            stats.active_flows += 1
            stats.total_flows += 1
        binding["packets"] += 1
        stats = self._stats_for(binding["backend"])
        stats.packets += 1
        if packet.is_fin_or_rst():
            stats.active_flows = max(0, stats.active_flows - 1)
            del self.bindings[flow_id]

    def _stats_for(self, backend: str) -> BackendStats:
        return self.backends[FlowId.for_host(backend)]

    def backend_of(self, five_tuple) -> Optional[str]:
        binding = self.bindings.get(FlowId.for_flow(five_tuple.canonical()))
        return None if binding is None else binding["backend"]

    # ------------------------------------------------------------ state export

    def _export_rotor(self, scope, key, stats):
        return StateChunk(scope, None, {"rotor": self._rotor, "stats": dict(stats)})

    def _import_rotor(self, spec, chunk):
        self._rotor = max(self._rotor, chunk.data["rotor"])
        return ADD(self, spec, chunk)

    STATE = {
        Scope.PERFLOW: StateSpec("bindings"),
        Scope.MULTIFLOW: StateSpec("backends", BackendStats, MERGE, HOST_FIELDS),
        Scope.ALLFLOWS: StateSpec("stats", on_import=_import_rotor,
                                  export=_export_rotor),
    }
