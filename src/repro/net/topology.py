"""Multi-switch topologies.

The paper's move operation names ``sw``: "the last SDN switch through
which all packets matching filter will pass before diverging on their
paths to reach srcInst and dstInst" (Figure 4). In a one-switch
deployment that is the switch itself; in larger networks the instances
sit behind *leaf* switches and ``sw`` is the common spine where the
redirect happens. :class:`TwoTierTopology` builds that shape: a spine
switch (the controller's switch) whose ports lead to leaf switches,
each statically forwarding to its attached NF.

Everything upstream of the leaf is unchanged: the controller installs
rules and issues packet-outs at the spine only, exactly as the paper's
mechanisms assume.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.flowspace.filter import Filter
from repro.net.flowtable import LOW_PRIORITY
from repro.net.link import Link
from repro.net.switch import Switch
from repro.nf.base import NetworkFunction
from repro.nf.southbound import NFClient
from repro.controller.controller import OpenNFController
from repro.sim.core import Simulator

#: Spine→leaf and leaf→NF link latencies.
LEAF_LATENCY_MS = 0.2
NF_LINK_LATENCY_MS = 0.1


class TwoTierTopology:
    """A spine switch with per-NF leaf switches below it."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.spine = Switch(self.sim, name="spine")
        self.controller = OpenNFController(self.sim, switch=self.spine)
        self.leaves: Dict[str, Switch] = {}
        self.nfs: Dict[str, NetworkFunction] = {}

    def add_nf_behind_leaf(
        self, nf: NetworkFunction, leaf_name: Optional[str] = None
    ) -> NFClient:
        """Create a leaf switch for ``nf`` and wire spine → leaf → NF.

        The spine port towards the leaf is the NF's addressable port
        (what rule actions and packet-outs use); the leaf statically
        forwards everything to its NF.
        """
        leaf_name = leaf_name or ("leaf-%s" % nf.name)
        leaf = Switch(self.sim, name=leaf_name, flowmod_delay_ms=1.0)
        self.leaves[leaf_name] = leaf
        self.nfs[nf.name] = nf
        # Leaf → NF: static default forwarding.
        leaf.attach(
            nf.name,
            nf.receive,
            Link(self.sim, name="%s->%s" % (leaf_name, nf.name),
                 latency_ms=NF_LINK_LATENCY_MS),
        )
        leaf.table.install(Filter.wildcard(), LOW_PRIORITY, [nf.name], 0.0)
        # Spine → leaf.
        self.spine.attach(
            leaf_name,
            leaf.inject,
            Link(self.sim, name="spine->%s" % leaf_name,
                 latency_ms=LEAF_LATENCY_MS),
        )
        return self.controller.register_nf(nf, port=leaf_name)

    def set_default_route(self, nf_name: str,
                          flt: Optional[Filter] = None) -> None:
        """Spine bootstrap rule towards the leaf that hosts ``nf_name``."""
        port = self.controller.port_of(nf_name)
        self.spine.table.install(
            flt or Filter.wildcard(), LOW_PRIORITY, [port], self.sim.now
        )

    def inject(self, packet) -> None:
        """Traffic enters at the spine."""
        self.spine.inject(packet)
