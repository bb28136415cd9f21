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

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.flowspace.filter import Filter, FlowId
from repro.flowspace.index import FlowKeyedStore
from repro.nf import merge
from repro.nf.base import NetworkFunction
from repro.nf.costs import NFCostModel
from repro.nf.state import Scope, StateChunk
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


class BackendStats:
    """Multi-flow state: accounting for one backend server."""

    __slots__ = ("backend", "weight", "active_flows", "total_flows",
                 "packets", "healthy")

    def __init__(self, backend: str, weight: int = 1) -> None:
        self.backend = backend
        self.weight = weight
        self.active_flows = 0
        self.total_flows = 0
        self.packets = 0
        self.healthy = True

    def to_dict(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "weight": self.weight,
            "active_flows": self.active_flows,
            "total_flows": self.total_flows,
            "packets": self.packets,
            "healthy": self.healthy,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BackendStats":
        stats = cls(data["backend"], data["weight"])
        stats.active_flows = data["active_flows"]
        stats.total_flows = data["total_flows"]
        stats.packets = data["packets"]
        stats.healthy = data["healthy"]
        return stats

    def merge_from(self, data: Dict[str, Any]) -> None:
        """Idempotent merge: take the maximum of each counter.

        Repeated re-copying (the §5.2.1 eventual-consistency pattern)
        must converge, so addition is wrong here — it double-counts
        every round. Max is safe under re-copy; exact summation of
        *disjoint* observations at scale-in would require delta
        tracking, which this NF does not need.
        """
        self.active_flows = max(self.active_flows, data["active_flows"])
        self.total_flows = max(self.total_flows, data["total_flows"])
        self.packets = max(self.packets, data["packets"])
        self.healthy = self.healthy and data["healthy"]


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
        self.global_stats = {"packets": 0, "flows": 0}
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
        self.global_stats["packets"] += 1
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
            self.global_stats["flows"] += 1
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

    def relevant_fields(self, scope: Scope) -> Tuple[str, ...]:
        if scope is Scope.MULTIFLOW:
            return ("nw_src", "nw_dst")
        return self.DEFAULT_RELEVANT_FIELDS

    def state_keys(self, scope: Scope, flt: Filter) -> List[Any]:
        if scope is Scope.ALLFLOWS:
            return ["rotor"]
        store = self.bindings if scope is Scope.PERFLOW else self.backends
        return store.keys_matching(flt, self.relevant_fields(scope))

    def export_chunk(self, scope: Scope, key: Any) -> Optional[StateChunk]:
        if scope is Scope.ALLFLOWS:
            return StateChunk(
                scope, None,
                {"rotor": self._rotor, "stats": dict(self.global_stats)},
            )
        if scope is Scope.PERFLOW:
            binding = self.bindings.get(key)
            if binding is None:
                return None
            return StateChunk(scope, key, dict(binding))
        stats = self.backends.get(key)
        if stats is None:
            return None
        return StateChunk(scope, key, stats.to_dict())

    def import_chunk(self, chunk: StateChunk) -> None:
        if chunk.scope is Scope.PERFLOW:
            self.bindings[chunk.flowid] = dict(chunk.data)
        elif chunk.scope is Scope.MULTIFLOW:
            existing = self.backends.get(chunk.flowid)
            if existing is None:
                self.backends[chunk.flowid] = BackendStats.from_dict(chunk.data)
            else:
                existing.merge_from(chunk.data)
        else:
            self._rotor = max(self._rotor, chunk.data["rotor"])
            for field, value in chunk.data["stats"].items():
                self.global_stats[field] = merge.add_counters(
                    self.global_stats.get(field, 0), value
                )

    def delete_by_flowid(self, scope: Scope, flowid: FlowId) -> int:
        if scope is Scope.PERFLOW:
            return 1 if self.bindings.pop(flowid, None) is not None else 0
        if scope is Scope.MULTIFLOW:
            return 1 if self.backends.pop(flowid, None) is not None else 0
        return 0
