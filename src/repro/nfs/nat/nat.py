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

from typing import Optional

from repro.flowspace.filter import FlowId
from repro.flowspace.index import FlowKeyedStore
from repro.nf.base import NetworkFunction
from repro.nf.costs import IPTABLES_COSTS, NFCostModel
from repro.nf.state import REPLACE, Scope, StateSpec
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

    def _import_entry(self, spec, chunk):
        entry = REPLACE(self, spec, chunk)
        # Keep the allocator clear of imported translations.
        if entry.external_port >= self._next_port:
            self._next_port = entry.external_port + 1
        return entry

    STATE = {Scope.PERFLOW: StateSpec("conntrack", ConntrackEntry, _import_entry)}

    # --------------------------------------------------------------- inspection

    def entry_for(self, five_tuple) -> Optional[ConntrackEntry]:
        return self.conntrack.get(FlowId.for_flow(five_tuple.canonical()))
