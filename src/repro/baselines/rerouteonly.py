"""Reroute-only scaling baseline (§2.2, §8.4).

Control planes that "steer only new flows to new scaled-out NF
instances" [22, 38]: existing flows stay pinned to the old instance
(exact-match rules), new flows follow a broad rule to the new instance.
No state ever moves. Consequences the paper measures:

* at scale-*out*, the old instance "continues to remain bottlenecked
  until some of the flows traversing it complete";
* at scale-*in*, the old instance cannot be retired until its last
  pinned flow ends — with ~9 % of HTTP flows exceeding 25 minutes, the
  paper must "wait for more than 25 minutes before we can safely
  terminate" it.
"""

from __future__ import annotations

from typing import Any, List

from repro.costs import REROUTE_POLL_INTERVAL_MS
from repro.flowspace.filter import Filter
from repro.net.flowtable import HIGH_PRIORITY, MID_PRIORITY
from repro.net.switch import TableFullError
from repro.nf.state import Scope
from repro.controller.reports import OperationReport
from repro.sim.core import Event
from repro.sim.process import AllOf


class RerouteOnlyScaler:
    """Scale by steering new flows only; never move state."""

    def __init__(self, controller,
                 poll_interval_ms: float = REROUTE_POLL_INTERVAL_MS) -> None:
        self.controller = controller
        self.sim = controller.sim
        self.poll_interval_ms = poll_interval_ms

    def scale_out(self, old: Any, new: Any, flt: Filter) -> Event:
        """Pin existing flows to ``old``; steer everything else to ``new``.

        Fires with an :class:`OperationReport`; ``chunks_moved`` is empty
        by construction (no state moves), and ``notes`` records how many
        per-flow pin rules were needed — the rule-table cost of this
        approach.
        """
        old_client = self.controller.client(old)
        new_client = self.controller.client(new)
        report = OperationReport(
            kind="reroute-only",
            guarantee="new-flows-only",
            filter_repr=repr(flt),
            src=old_client.name,
            dst=new_client.name,
            started_at=self.sim.now,
        )
        done = self.sim.event("reroute-only-done")
        old_port = self.controller.port_of(old_client.name)
        new_port = self.controller.port_of(new_client.name)

        def run():
            flowids = yield old_client.list_flowids(Scope.PERFLOW, flt)
            pinned = 0
            rejected = 0
            for flowid in flowids:
                pin_filter = Filter(flowid.fields, symmetric=True)
                install = self.controller.switch_client.install(
                    pin_filter, [old_port], HIGH_PRIORITY
                )
                try:
                    yield install
                    pinned += 1
                except TableFullError:
                    # The per-flow-rule cost of this approach made
                    # concrete: the TCAM ran out.
                    rejected += 1
            try:
                yield self.controller.switch_client.install(
                    flt, [new_port], MID_PRIORITY
                )
            except TableFullError:
                report.notes.append("broad rule rejected: table full")
            report.notes.append("pin_rules=%d" % pinned)
            if rejected:
                report.notes.append("pin_rules_rejected=%d" % rejected)
            report.finished_at = self.sim.now
            done.trigger(report)

        self.sim.spawn(run(), name="reroute-only")
        return done

    def wait_for_drain(self, old: Any, flt: Filter) -> Event:
        """Poll until the old instance holds no per-flow state under ``flt``.

        Fires with the simulated time at which scale-in became safe —
        the paper's tens-of-minutes scale-in penalty.
        """
        old_client = self.controller.client(old)
        done = self.sim.event("drain-done")

        def run():
            while True:
                flowids = yield old_client.list_flowids(Scope.PERFLOW, flt)
                if not flowids:
                    break
                yield self.poll_interval_ms
            done.trigger(self.sim.now)

        self.sim.spawn(run(), name="drain-wait")
        return done
