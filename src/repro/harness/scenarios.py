"""Reusable experiment scenarios.

These functions assemble the paper's evaluation setups — two NF
instances behind one switch, a trace replayed at a target packet rate,
an operation fired mid-trace — and return everything the figures need:
the operation report, the added-latency analysis, and the safety-check
verdicts. Tests, examples, and the benchmark harnesses all call these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.flowspace.filter import Filter
from repro.harness.deployment import Deployment
from repro.harness.measure import LatencyReport, added_latency
from repro.harness.properties import check_loss_free, check_order_preserving
from repro.nfs.monitor import AssetMonitor
from repro.controller.move import Guarantee
from repro.controller.reports import OperationReport
from repro.traffic.replay import TraceReplayer
from repro.traffic.traces import TraceConfig, build_university_cloud_trace

LOCAL_NET_FILTER = Filter({"nw_src": "10.0.0.0/8"}, symmetric=True)


@dataclass
class MoveExperimentResult:
    """Everything a move/copy benchmark row needs."""

    deployment: Deployment
    replayer: TraceReplayer
    report: OperationReport
    latency: LatencyReport
    loss_free: bool
    loss_free_detail: str
    order_preserving: bool
    order_detail: str

    @property
    def duration_ms(self) -> float:
        return self.report.duration_ms


def run_move_experiment(
    guarantee: Any = Guarantee.LOSS_FREE,
    parallel: bool = True,
    early_release: bool = False,
    n_flows: int = 100,
    rate_pps: float = 2500.0,
    move_at_ms: Optional[float] = None,
    seed: int = 7,
    nf_factory: Callable[..., Any] = AssetMonitor,
    data_packets: int = 20,
    trace_config: Optional[TraceConfig] = None,
    operation: Optional[Callable[[Deployment], Any]] = None,
    scope: str = "per",
    on_deployment: Optional[Callable[[Deployment], None]] = None,
    **deployment: Any,
) -> MoveExperimentResult:
    """Replay a trace to instance 1, move flows to instance 2 mid-trace.

    ``operation`` may override the default move (e.g. to run a
    Split/Merge migrate instead); it receives the deployment and must
    return an object with a ``done`` event carrying an OperationReport.
    Every other keyword (``observe``, ``audit``, ``faults``,
    ``batching``, ``shards``, ``offload``, ...) is a :class:`Deployment`
    keyword and is passed to it unchanged; with ``observe=True`` the
    spans are at ``result.deployment.obs.exporter.spans``, with
    ``audit=True`` the violations at
    ``result.deployment.obs.violations()``.
    """
    dep = Deployment(**deployment)
    src = nf_factory(dep.sim, "inst1")
    dst = nf_factory(dep.sim, "inst2")
    dep.add_nf(src)
    dep.add_nf(dst)
    dep.set_default_route("inst1")
    if on_deployment is not None:
        # Pre-run seam: attach reporters/probes before traffic starts
        # (`repro run --show top` arms its ProgressReporter here).
        on_deployment(dep)

    config = trace_config or TraceConfig(
        seed=seed, n_flows=n_flows, data_packets=data_packets
    )
    trace = build_university_cloud_trace(config)
    replayer = TraceReplayer(dep.sim, dep.inject, trace.packets,
                             rate_pps=rate_pps)
    replayer.start()

    if move_at_ms is None:
        # Move once roughly half the trace has played (state exists for
        # every flow by then thanks to round-robin interleaving).
        move_at_ms = replayer.duration_ms / 2.0

    holder: Dict[str, Any] = {}

    def kickoff() -> None:
        if operation is not None:
            holder["op"] = operation(dep)
        else:
            holder["op"] = dep.controller.move(
                "inst1",
                "inst2",
                LOCAL_NET_FILTER,
                scope=scope,
                guarantee=guarantee,
                parallel=parallel,
                early_release=early_release,
            )

    dep.sim.schedule(move_at_ms, kickoff)
    dep.sim.run()

    report = holder["op"].done.value
    latency = added_latency([src, dst], replayer.injected, report.affected_uids)
    lf_ok, lf_detail = check_loss_free(dep.switch, [src, dst])
    op_ok, op_detail = check_order_preserving(dep.switch, [src, dst],
                                              replayer.injected)
    return MoveExperimentResult(
        deployment=dep,
        replayer=replayer,
        report=report,
        latency=latency,
        loss_free=lf_ok,
        loss_free_detail=lf_detail,
        order_preserving=op_ok,
        order_detail=op_detail,
    )


def build_multi_instance_deployment(
    n_instances: int,
    nf_factory: Callable[..., Any] = AssetMonitor,
    name_prefix: str = "inst",
    **deployment: Any,
) -> Tuple[Deployment, List[Any]]:
    """A deployment with N instances, traffic defaulting to the first;
    the keywords are :class:`Deployment`'s."""
    dep = Deployment(**deployment)
    instances = []
    for index in range(n_instances):
        nf = nf_factory(dep.sim, "%s%d" % (name_prefix, index + 1))
        dep.add_nf(nf)
        instances.append(nf)
    if instances:
        dep.set_default_route(instances[0].name)
    return dep, instances
