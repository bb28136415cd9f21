"""The Figure 1 scenario: scale-out under overload, end to end.

The paper's opening example: an IDS-style NF is overloaded (offered
load exceeds its per-packet capacity), threatening the throughput SLA.
NFV launches a second instance; the control plane reroutes half the
flows. Three strategies:

* **OpenNF loss-free move** — flows *and* state move within a couple
  hundred milliseconds; aggregate throughput recovers almost at once
  and nothing is dropped or missed;
* **reroute-only (new flows only)** — the old instance "continues to
  remain bottlenecked until some of the flows traversing it complete"
  (§8.4): with long-lived flows, the overload persists for the rest of
  the run;
* **no action** — the baseline floor.
"""

from __future__ import annotations

import pytest

from repro.baselines import RerouteOnlyScaler
from repro.flowspace import Filter
from repro.harness import (
    build_multi_instance_deployment,
    sustained_throughput,
    throughput_timeline,
)
from repro.nf.costs import PRADS_COSTS
from repro.nfs.monitor import AssetMonitor
from repro.traffic import TraceConfig, TraceReplayer, build_university_cloud_trace

from common import format_table, publish, run_once

#: Slow the monitor down so 4000 pps offered load overloads one
#: instance (capacity = 1/proc_ms = 2500 pps).
SLOW_MONITOR = PRADS_COSTS.scaled(proc_ms=0.4)
OFFERED_PPS = 4000.0
HALF_FILTER = Filter({"nw_src": "10.0.1.0/24"}, symmetric=True)
SCALE_AT_FRACTION = 0.35


def slow_monitor(sim, name):
    return AssetMonitor(sim, name, costs=SLOW_MONITOR)


def run_strategy(strategy: str):
    dep, (a, b) = build_multi_instance_deployment(
        2, nf_factory=slow_monitor
    )
    # 400 local hosts span 10.0.1.x and 10.0.2.x, so the /24 filter
    # splits the flows roughly in half.
    trace = build_university_cloud_trace(
        TraceConfig(seed=17, n_flows=200, data_packets=40,
                    n_local_hosts=400)
    )
    replayer = TraceReplayer(dep.sim, dep.inject, trace.packets, OFFERED_PPS)
    replayer.start()
    scale_at = replayer.duration_ms * SCALE_AT_FRACTION

    def act() -> None:
        if strategy == "opennf":
            dep.controller.move("inst1", "inst2", HALF_FILTER,
                                scope="per", guarantee="lf")
        elif strategy == "reroute-only":
            RerouteOnlyScaler(dep.controller).scale_out(
                "inst1", "inst2", HALF_FILTER
            )

    dep.sim.schedule(scale_at, act)
    dep.sim.run()
    timeline = throughput_timeline([a, b], bucket_ms=100.0)
    before = sustained_throughput(timeline, 0.0, scale_at)
    after = sustained_throughput(
        timeline, scale_at + 300.0, replayer.duration_ms
    )
    return {
        "before_pps": before,
        "after_pps": after,
        "inst2_share": b.packets_processed
        / max(1, a.packets_processed + b.packets_processed),
    }


def run_overload_scenario():
    return {
        strategy: run_strategy(strategy)
        for strategy in ("none", "reroute-only", "opennf")
    }


def test_scenario_overload_scaleout(benchmark):
    results = run_once(benchmark, run_overload_scenario)

    rows = []
    for strategy in ("none", "reroute-only", "opennf"):
        r = results[strategy]
        rows.append(
            [strategy,
             "%.0f" % r["before_pps"],
             "%.0f" % r["after_pps"],
             "%.0f%%" % (100 * r["inst2_share"])]
        )
    publish(
        "scenario_overload",
        format_table(
            "Figure 1 scenario — overloaded NF, offered load %d pps, "
            "single-instance capacity ~2500 pps" % int(OFFERED_PPS),
            ["strategy", "pps before scale-out", "pps after", "inst2 share"],
            rows,
        ),
    )

    none = results["none"]
    reroute = results["reroute-only"]
    opennf = results["opennf"]
    # Overload is real: one instance saturates below the offered load.
    assert none["before_pps"] < OFFERED_PPS * 0.75
    assert none["after_pps"] < OFFERED_PPS * 0.75
    # OpenNF recovers the SLA: aggregate ≈ offered load.
    assert opennf["after_pps"] > OFFERED_PPS * 0.9
    assert opennf["inst2_share"] > 0.2
    # Reroute-only barely helps while old flows persist: OpenNF clearly
    # better within the run.
    assert opennf["after_pps"] > reroute["after_pps"] * 1.15
