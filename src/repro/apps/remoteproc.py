"""Selectively invoking advanced remote processing (§2.1, §6).

When a local IDS raises an ``outdated_browser`` alert for a flow, the
enterprise escalates that flow to a more powerful cloud-resident IDS
(which additionally checks HTTP replies for malware). The escalation is
a **loss-free move of just that flow's per-flow state** — loss-free so
every data packet of the HTTP reply is included in the md5 the cloud
instance compares against its signature corpus; multi-flow scan
counters stay local because they are irrelevant to the cloud analysis.
"""

from __future__ import annotations

from typing import Any, List, Set

from repro.costs import REMOTE_POLL_INTERVAL_MS
from repro.flowspace.filter import Filter
from repro.sim.core import Event


#: Alert kind that escalates a flow to the cloud IDS.
TRIGGER_KIND = "outdated_browser"


class SelectiveRemoteProcessing:
    """Escalate alert-triggering flows from a local to a cloud IDS."""

    def __init__(
        self,
        controller,
        local: Any,
        cloud: Any,
    ) -> None:
        self.controller = controller
        self.sim = controller.sim
        self.local = controller.client(local)
        self.cloud = controller.client(cloud)
        self.escalated: List[Filter] = []
        self._seen_alerts = 0
        self._escalated_flows: Set[str] = set()
        self._stopped = False
        self.stopped = self.sim.event("remoteproc-stopped")
        self.sim.spawn(self._watch(), name="remoteproc-watch")

    def _watch(self):
        """Poll the local IDS's alert stream (its output channel)."""
        while not self._stopped:
            alerts = self.local.nf.alerts
            new_alerts = alerts[self._seen_alerts :]
            self._seen_alerts = len(alerts)
            for alert in new_alerts:
                if alert.kind != TRIGGER_KIND or alert.flow is None:
                    continue
                key = str(alert.flow.canonical())
                if key in self._escalated_flows:
                    continue
                self._escalated_flows.add(key)
                flow_filter = Filter.for_flow(alert.flow, symmetric=True)
                self.escalated.append(flow_filter)
                # move(locInst, cloudInst, flowid, perflow, lossfree)
                self.controller.move(
                    self.local.name,
                    self.cloud.name,
                    flow_filter,
                    scope="per",
                    guarantee="loss-free",
                )
            yield REMOTE_POLL_INTERVAL_MS
        self.stopped.trigger()

    def stop(self) -> None:
        self._stopped = True

    @property
    def escalation_count(self) -> int:
        return len(self.escalated)
