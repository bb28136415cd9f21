"""VM-replication scaling baseline (§2.2, §8.4).

Clones an NF instance *in its entirety* — the Xen/CRIU approach. The
clone receives every piece of state the original holds, including state
for flows it will never serve ("unneeded state"), which §8.4 shows both
wastes memory and corrupts NF output: flows that keep flowing to only
one instance "terminate abruptly" at the other, producing incorrect
conn.log entries, and there is no way to later merge state back for
scale-in.

The snapshot is modeled as a bulk image transfer at a configurable
bandwidth; the original keeps processing during the copy (live
migration's copy phase), so the clone's state is the snapshot-instant
view, exactly like a real memory snapshot.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.flowspace.filter import Filter
from repro.nf.base import NetworkFunction
from repro.nf.state import Scope
from repro.controller.reports import OperationReport
from repro.sim.core import Event, Simulator

#: Default snapshot transfer bandwidth: 1 Gbps in bytes/ms.
SNAPSHOT_BANDWIDTH_BYTES_PER_MS = 125_000.0


def full_state_size(nf: NetworkFunction) -> int:
    """Serialized size of every chunk the NF holds (all scopes)."""
    total = 0
    wildcard = Filter.wildcard()
    for scope in (Scope.PERFLOW, Scope.MULTIFLOW, Scope.ALLFLOWS):
        for key in nf.state_keys(scope, wildcard):
            chunk = nf.export_chunk(scope, key)
            if chunk is not None:
                total += chunk.size_bytes
    return total


class VMReplicator:
    """Whole-instance cloning."""

    def __init__(
        self,
        sim: Simulator,
        snapshot_overhead_ms: float = 50.0,
    ) -> None:
        self.sim = sim
        self.snapshot_overhead_ms = snapshot_overhead_ms

    def clone(self, src: NetworkFunction, dst: NetworkFunction) -> Event:
        """Copy *all* of ``src``'s state into ``dst``.

        Returns an event firing with an :class:`OperationReport` once the
        modeled snapshot transfer completes. The state installed at the
        clone is the snapshot-instant view.
        """
        report = OperationReport(
            kind="vm-replication",
            guarantee="full-image",
            src=src.name,
            dst=dst.name,
            started_at=self.sim.now,
        )
        wildcard = Filter.wildcard()
        chunks = []
        for scope in (Scope.PERFLOW, Scope.MULTIFLOW, Scope.ALLFLOWS):
            for key in src.state_keys(scope, wildcard):
                chunk = src.export_chunk(scope, key)
                if chunk is not None:
                    chunks.append(chunk)
                    report.add_chunk(scope.value, chunk.size_bytes)

        transfer_ms = (
            self.snapshot_overhead_ms
            + report.total_bytes / SNAPSHOT_BANDWIDTH_BYTES_PER_MS
        )
        done = self.sim.event("vm-clone-done")

        def install() -> None:
            for chunk in chunks:
                dst.import_chunk(chunk)
            report.finished_at = self.sim.now
            done.trigger(report)

        self.sim.schedule(transfer_ms, install)
        return done
