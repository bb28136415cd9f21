"""Trace-replaying dummy NF for controller-scalability experiments.

§8.3 of the paper isolates the controller by using "dummy" NFs that
replay past state in response to ``getPerflow``, simply consume state
for ``putPerflow``, and generate events continuously. This NF does the
same: it can be preloaded with a number of per-flow chunks of a fixed
serialized size (the paper uses 202-byte chunks derived from PRADS
state), and its processing/serialization costs are negligible so the
controller dominates every measurement.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.flowspace.filter import Filter, FlowId
from repro.flowspace.fivetuple import FiveTuple
from repro.flowspace.index import FlowKeyedStore
from repro.nf.base import NetworkFunction
from repro.nf.costs import DUMMY_COSTS, NFCostModel
from repro.nf.state import Scope, StateChunk
from repro.net.packet import Packet
from repro.sim.core import Simulator

#: Target serialized chunk size (bytes), as in the paper's §8.3 setup.
DUMMY_CHUNK_BYTES = 202


class DummyNF(NetworkFunction):
    """A minimal NF whose costs are ~zero; the controller is the bottleneck."""

    def __init__(
        self, sim: Simulator, name: str, costs: Optional[NFCostModel] = None
    ) -> None:
        super().__init__(sim, name, costs or DUMMY_COSTS)
        self.flows: FlowKeyedStore = FlowKeyedStore()

    def preload(self, n_flows: int, base_ip: str = "172.16.0.0") -> List[FiveTuple]:
        """Create ``n_flows`` synthetic per-flow chunks; returns their tuples."""
        prefix = ".".join(base_ip.split(".")[:2])
        tuples = []
        for index in range(n_flows):
            five_tuple = FiveTuple(
                "%s.%d.%d" % (prefix, 1 + index // 250, 1 + index % 250),
                10000 + index,
                "198.18.0.1",
                80,
            )
            flow_id = FlowId.for_flow(five_tuple.canonical())
            self.flows[flow_id] = self._blob()
            tuples.append(five_tuple)
        return tuples

    @staticmethod
    def _blob() -> Dict[str, Any]:
        return {"blob": "x" * 120, "counter": 0}

    def process_packet(self, packet: Packet) -> None:
        flow_id = FlowId.for_flow(packet.five_tuple.canonical())
        record = self.flows.get(flow_id)
        if record is None:
            record = self._blob()
            self.flows[flow_id] = record
        record["counter"] += 1

    def state_keys(self, scope: Scope, flt: Filter) -> List[Any]:
        if scope is not Scope.PERFLOW:
            return []
        return self.flows.keys_matching(flt, self.relevant_fields(scope))

    def export_chunk(self, scope: Scope, key: Any) -> Optional[StateChunk]:
        record = self.flows.get(key)
        if record is None:
            return None
        return StateChunk(scope, key, record, size_bytes=DUMMY_CHUNK_BYTES)

    def import_chunk(self, chunk: StateChunk) -> None:
        if chunk.scope is Scope.PERFLOW:
            self.flows[chunk.flowid] = dict(chunk.data)

    def delete_by_flowid(self, scope: Scope, flowid: FlowId) -> int:
        return 1 if self.flows.pop(flowid, None) is not None else 0
