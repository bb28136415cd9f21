"""OpenNF reproduction: coordinated control of NF and forwarding state.

A faithful, simulation-backed reimplementation of *OpenNF: Enabling
Innovation in Network Function Control* (SIGCOMM 2014): the southbound
API for exporting/importing NF state and observing/preventing updates,
the northbound ``move`` / ``copy`` / ``share`` / ``notify`` operations
with their loss-freedom, order-preservation, and consistency
guarantees, four NF implementations matching the prototype's (Bro-like
IDS, PRADS-like monitor, Squid-like proxy, iptables-like NAT), the
comparison baselines, and the control applications of §6.

Quick start::

    from repro import Deployment, AssetMonitor, Filter, Guarantee

    dep = Deployment()
    src = AssetMonitor(dep.sim, "prads1")
    dst = AssetMonitor(dep.sim, "prads2")
    dep.add_nf(src); dep.add_nf(dst)
    dep.set_default_route("prads1")

    from repro.traffic import TraceConfig, TraceReplayer, \\
        build_university_cloud_trace
    trace = build_university_cloud_trace(TraceConfig(n_flows=100))
    TraceReplayer(dep.sim, dep.inject, trace.packets, rate_pps=2500).start()

    flt = Filter({"nw_src": "10.0.0.0/8"}, symmetric=True)
    dep.sim.schedule(100.0, lambda: dep.controller.move(
        "prads1", "prads2", flt, scope="per",
        guarantee=Guarantee.LOSS_FREE))
    dep.sim.run()

Import policy: application code imports the blessed surface —
``Deployment``, ``Guarantee``, ``Operation``, ``Filter``, ``FaultPlan``,
``Chain`` and friends — from the top-level ``repro`` package; chains are
constructed only through ``Deployment.chain(...)``. Submodule paths
(``repro.controller.move`` etc.) are implementation detail and may move
between releases. See docs/api.md.
"""

from repro.controller import (
    Chain,
    ChainOperation,
    ChainSpec,
    CopyOperation,
    DeferredOperation,
    Guarantee,
    MoveOperation,
    OpenNFController,
    Operation,
    OperationReport,
    ShareOperation,
)
from repro.faults import FaultPlan
from repro.flowspace import Filter, FiveTuple, FlowId
from repro.harness import Deployment
from repro.nf import (
    EventAction,
    NFClient,
    NFCrash,
    NetworkFunction,
    PacketEvent,
    Scope,
    StateChunk,
)
from repro.net import Link, Packet, Switch
from repro.nfs.dummy import DummyNF
from repro.nfs.ids import IntrusionDetector, SignatureDB
from repro.nfs.lb import LoadBalancer
from repro.nfs.monitor import AssetMonitor
from repro.nfs.nat import NetworkAddressTranslator
from repro.nfs.proxy import CachingProxy
from repro.nfs.redup import REDecoder, REEncoder
from repro.sim import Event, Process, Simulator

__version__ = "1.0.0"

__all__ = [
    "AssetMonitor",
    "CachingProxy",
    "Chain",
    "ChainOperation",
    "ChainSpec",
    "CopyOperation",
    "DeferredOperation",
    "Deployment",
    "DummyNF",
    "Event",
    "EventAction",
    "FaultPlan",
    "Filter",
    "FiveTuple",
    "FlowId",
    "Guarantee",
    "IntrusionDetector",
    "Link",
    "LoadBalancer",
    "MoveOperation",
    "NFClient",
    "NFCrash",
    "NetworkAddressTranslator",
    "NetworkFunction",
    "OpenNFController",
    "Operation",
    "OperationReport",
    "Packet",
    "PacketEvent",
    "Process",
    "REDecoder",
    "REEncoder",
    "Scope",
    "ShareOperation",
    "SignatureDB",
    "Simulator",
    "StateChunk",
    "Switch",
    "__version__",
]
