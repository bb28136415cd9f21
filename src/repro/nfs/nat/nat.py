"""iptables-like NAT/firewall.

Per-flow state only (§7: "There is no multi-flow or all-flows state in
iptables"). A SYN allocates an external port and creates a conntrack
entry; mid-flow packets without an entry are counted as INVALID and
dropped — the quiet failure mode of rerouting a flow to a NAT instance
that lacks its state. §5 notes a loss-free/order-preserving move "is
unnecessary for a NAT"; the move benchmarks use this NF to demonstrate
the cheap end of the guarantee spectrum.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.flowspace.filter import Filter, FlowId
from repro.flowspace.index import FlowKeyedStore
from repro.nf.base import NetworkFunction
from repro.nf.costs import IPTABLES_COSTS, NFCostModel
from repro.nf.state import Scope, StateChunk
from repro.net.packet import Packet
from repro.nfs.nat.conntrack import CLOSED, ESTABLISHED, NEW, ConntrackEntry
from repro.sim.core import Simulator

FIRST_EXTERNAL_PORT = 10000


class NetworkAddressTranslator(NetworkFunction):
    """The iptables-like NF."""

    def __init__(
        self, sim: Simulator, name: str, costs: Optional[NFCostModel] = None
    ) -> None:
        super().__init__(sim, name, costs or IPTABLES_COSTS)
        self.conntrack: FlowKeyedStore = FlowKeyedStore()
        self._next_port = FIRST_EXTERNAL_PORT
        self.invalid_packets = 0
        self.translated_packets = 0

    # ------------------------------------------------------------- processing

    def process_packet(self, packet: Packet) -> None:
        flow_id = FlowId.for_flow(packet.five_tuple.canonical())
        entry = self.conntrack.get(flow_id)
        if entry is None:
            if packet.is_syn():
                entry = ConntrackEntry(self._allocate_port(), self.sim.now)
                self.conntrack[flow_id] = entry
            else:
                # Mid-flow packet with no state: INVALID, dropped.
                self.invalid_packets += 1
                return
        entry.observe(packet.size_bytes, self.sim.now)
        self.translated_packets += 1
        if packet.payload and entry.state == NEW:
            entry.state = ESTABLISHED
        if packet.is_fin_or_rst():
            entry.state = CLOSED
            del self.conntrack[flow_id]

    def _allocate_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        return port

    # ------------------------------------------------------------ state export

    def state_keys(self, scope: Scope, flt: Filter) -> List[Any]:
        if scope is not Scope.PERFLOW:
            return []
        return self.conntrack.keys_matching(flt, self.relevant_fields(scope))

    def export_chunk(self, scope: Scope, key: Any) -> Optional[StateChunk]:
        if scope is not Scope.PERFLOW:
            return None
        entry = self.conntrack.get(key)
        if entry is None:
            return None
        return StateChunk(scope, key, entry.to_dict())

    def import_chunk(self, chunk: StateChunk) -> None:
        if chunk.scope is not Scope.PERFLOW:
            return
        entry = ConntrackEntry.from_dict(chunk.data)
        self.conntrack[chunk.flowid] = entry
        # Keep the allocator clear of imported translations.
        if entry.external_port >= self._next_port:
            self._next_port = entry.external_port + 1

    def delete_by_flowid(self, scope: Scope, flowid: FlowId) -> int:
        if scope is not Scope.PERFLOW:
            return 0
        return 1 if self.conntrack.pop(flowid, None) is not None else 0

    # --------------------------------------------------------------- inspection

    def entry_for(self, five_tuple) -> Optional[ConntrackEntry]:
        return self.conntrack.get(FlowId.for_flow(five_tuple.canonical()))
