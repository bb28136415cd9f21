"""Experiment harness: deployment wiring, scenarios, and property checks."""

from repro.harness.deployment import Deployment
from repro.harness.measure import (
    LatencyReport,
    added_latency,
    completion_times,
    sustained_throughput,
    throughput_timeline,
    time_to_reach,
)
from repro.harness.scenarios import (
    LOCAL_NET_FILTER,
    MoveExperimentResult,
    build_multi_instance_deployment,
    run_move_experiment,
)
from repro.harness.properties import (
    check_chain_loss_free,
    check_loss_free,
    check_order_preserving,
    merged_processing_order,
    switch_forwarding_order,
)

__all__ = [
    "Deployment",
    "LOCAL_NET_FILTER",
    "LatencyReport",
    "MoveExperimentResult",
    "added_latency",
    "build_multi_instance_deployment",
    "completion_times",
    "run_move_experiment",
    "sustained_throughput",
    "throughput_timeline",
    "time_to_reach",
    "check_chain_loss_free",
    "check_loss_free",
    "check_order_preserving",
    "merged_processing_order",
    "switch_forwarding_order",
]
