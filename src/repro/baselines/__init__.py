"""Comparison baselines: Split/Merge, VM replication, reroute-only (§2.2)."""

from repro.baselines.rerouteonly import RerouteOnlyScaler
from repro.baselines.splitmerge import SplitMergeMigrate
from repro.baselines.vmreplication import VMReplicator, full_state_size

__all__ = [
    "RerouteOnlyScaler",
    "SplitMergeMigrate",
    "VMReplicator",
    "full_state_size",
]
