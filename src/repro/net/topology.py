"""Multi-switch topologies.

The paper's move operation names ``sw``: "the last SDN switch through
which all packets matching filter will pass before diverging on their
paths to reach srcInst and dstInst" (Figure 4). In a one-switch
deployment that is the switch itself; in larger networks the instances
sit behind *leaf* switches and ``sw`` is the common spine where the
redirect happens. :class:`TwoTierTopology` builds that shape: the
deployment's switch is the spine, and each NF gets a leaf switch below
it that statically forwards to the NF.

Everything upstream of the leaf is unchanged: the controller installs
rules and issues packet-outs at the spine only, exactly as the paper's
mechanisms assume, and every :class:`~repro.harness.Deployment` mode
(``faults=``, ``batching=``, ``shards=``, ``offload=``, ``observe=``,
...) applies as it does on one switch.
"""

from __future__ import annotations

from typing import Dict

from repro.flowspace.filter import Filter
from repro.harness.deployment import Deployment
from repro.net.flowtable import LOW_PRIORITY
from repro.net.link import Link
from repro.net.switch import Switch
from repro.nf.base import NetworkFunction

#: Spine→leaf and leaf→NF link latencies.
LEAF_LATENCY_MS = 0.2
NF_LINK_LATENCY_MS = 0.1


class TwoTierTopology(Deployment):
    """A deployment whose NFs each sit behind their own leaf switch."""

    def __init__(self, **modes) -> None:
        super().__init__(**modes)
        self.leaves: Dict[str, Switch] = {}

    def _attach(self, nf: NetworkFunction) -> str:
        """Wire spine → ``leaf-<nf>`` → NF; the leaf is the NF's port.

        The spine port towards the leaf is what rule actions and
        packet-outs use; the leaf statically forwards everything to its
        NF.
        """
        leaf_name = "leaf-%s" % nf.name
        leaf = Switch(self.sim, name=leaf_name,
                      record_ground_truth=self.record_ground_truth)
        self.leaves[leaf_name] = leaf
        leaf.attach(
            nf.name,
            nf.receive,
            Link(self.sim, name="%s->%s" % (leaf_name, nf.name),
                 latency_ms=NF_LINK_LATENCY_MS),
        )
        leaf.table.install(Filter.wildcard(), LOW_PRIORITY, [nf.name], 0.0)
        self.switch.attach(
            leaf_name,
            leaf.inject,
            Link(self.sim, name="%s->%s" % (self.switch.name, leaf_name),
                 latency_ms=LEAF_LATENCY_MS),
        )
        return leaf_name
