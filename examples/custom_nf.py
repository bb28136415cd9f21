#!/usr/bin/env python3
"""Tutorial: adding your own NF to the OpenNF control plane.

The paper's southbound API was designed so a new NF needs only a small,
mechanical addition (§4.2, Table 2). Here that addition is declared,
not written: a record lists its fields and how each merges, and its
serializer is derived; the NF says, per scope, which store holds the
state, its record class and how an incoming one lands, and the base
class derives get / put / del. This example builds a toy "flow meter" NF
from scratch — per-flow byte counters, a per-host multi-flow rollup, and a
global total — then:

1. validates it against the southbound contract with the bundled
   conformance checker, and
2. performs a loss-free mid-traffic move of its state, exactly like the
   bundled NFs.

Run:  python examples/custom_nf.py
"""

from repro import Deployment, Filter, FlowId, NetworkFunction, Scope
from repro.costs import NFCostModel
from repro.flowspace import FlowKeyedStore
from repro.nf.conformance import check_nf_conformance
from repro.nf.record import Record
from repro.nf.state import ADD, HOST_FIELDS, MERGE, StateSpec
from repro.traffic import TraceConfig, TraceReplayer, build_university_cloud_trace


class HostBytes(Record):
    """Multi-flow record: the bytes one host has sent."""

    FIELDS = ("bytes",)                    # travels as {"bytes": n}
    # Max, not sum: idempotent, so re-copying converges (§5.2.1).
    MERGE = {"bytes": max}

    def __init__(self, sent: int = 0) -> None:
        self.bytes = sent


class FlowMeter(NetworkFunction):
    """A minimal but fully conformant NF: traffic accounting."""

    def __init__(self, sim, name):
        super().__init__(sim, name, NFCostModel(proc_ms=0.02))
        self.flows = FlowKeyedStore()      # per-flow: plain dicts
        self.hosts = FlowKeyedStore()      # multi-flow: HostBytes per sender
        self.stats = {"bytes": 0}          # all-flows

    # -- packet processing -------------------------------------------------
    def process_packet(self, packet) -> None:
        flow_id = FlowId.for_flow(packet.five_tuple.canonical())
        record = self.flows.get(flow_id)
        if record is None:
            record = self.flows[flow_id] = {"bytes": 0, "packets": 0}
        record["bytes"] += packet.size_bytes
        record["packets"] += 1
        host_id = FlowId.for_host(packet.five_tuple.src_ip)
        host = self.hosts.get(host_id)
        if host is None:
            host = self.hosts[host_id] = HostBytes()
        host.bytes += packet.size_bytes
        self.stats["bytes"] += packet.size_bytes

    # -- the state declaration: get / put / del are derived from it ---------
    STATE = {
        Scope.PERFLOW: StateSpec("flows"),              # replaced on import
        Scope.MULTIFLOW: StateSpec("hosts", HostBytes, MERGE, HOST_FIELDS),
        Scope.ALLFLOWS: StateSpec("stats", on_import=ADD),
    }


def main() -> None:
    # 1. Conformance: does FlowMeter honour the southbound contract?
    report = check_nf_conformance(lambda sim, name: FlowMeter(sim, name))
    print("Conformance: %d checks, %s"
          % (report.checks_run, "all passed" if report.ok else report.failures))
    assert report.ok

    # 2. Use it like any bundled NF: replay traffic, move it mid-stream.
    dep = Deployment()
    src = FlowMeter(dep.sim, "meter1")
    dst = FlowMeter(dep.sim, "meter2")
    dep.add_nf(src)
    dep.add_nf(dst)
    dep.set_default_route("meter1")

    trace = build_university_cloud_trace(TraceConfig(seed=2, n_flows=100))
    replayer = TraceReplayer(dep.sim, dep.inject, trace.packets, 2500.0)
    replayer.start()
    flt = Filter({"nw_src": "10.0.0.0/8"}, symmetric=True)
    dep.sim.schedule(
        replayer.duration_ms / 2,
        lambda: dep.controller.move("meter1", "meter2", flt,
                                    scope="per+multi", guarantee="lf"),
    )
    dep.sim.run()

    total_injected = sum(p.size_bytes for p in replayer.injected)
    total_metered = src.stats["bytes"] + dst.stats["bytes"]
    print("Bytes injected:  %d" % total_injected)
    print("Bytes metered:   %d (across both instances, loss-free)"
          % total_metered)
    print("meter2 now holds %d flow records" % len(dst.flows))
    assert total_metered == total_injected  # nothing lost in the move


if __name__ == "__main__":
    main()
