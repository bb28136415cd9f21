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

from repro.costs import DUMMY_COSTS, NFCostModel
from repro.flowspace.filter import FlowId
from repro.flowspace.fivetuple import FiveTuple
from repro.flowspace.index import FlowKeyedStore
from repro.nf.base import NetworkFunction
from repro.nf.state import Scope, StateChunk, StateSpec
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

    def _export_sized(self, scope, key, record):
        return StateChunk(scope, key, record, size_bytes=DUMMY_CHUNK_BYTES)

    STATE = {Scope.PERFLOW: StateSpec("flows", export=_export_sized)}
