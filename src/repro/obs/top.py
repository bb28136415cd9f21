"""The live run snapshot and the periodic sim-clock progress reporter.

End-of-run totals answer "how much"; the interesting signals at scale
(§8.3/Fig. 13's controller scaling, queue build-up during a move
window) are *levels and rates over time*. :func:`snapshot_top` reads
one frame of them off a running deployment — events and inbox backlog
per controller shard, operations in flight, per-NF packet counts, XFSM
occupancy — and :class:`ProgressReporter` takes such a frame every
``interval_ms`` of simulated time, deriving per-NF rates from counter
deltas between ticks. The frames are the one sim-clock series; the
metrics registry (:mod:`repro.obs.metrics`) holds the end-of-run
distributions (``op.latency_ms`` per kind, ...).

The reporter re-schedules itself on the simulator and stops on the
first tick that finds the event queue empty — it can therefore never
wedge ``sim.run()`` into an infinite loop, at the cost of the clock
possibly ending on a tick boundary. ``repro top`` renders each frame
via :func:`format_top`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional


def snapshot_top(deployment) -> Dict[str, Any]:
    """One ``repro top`` frame: live state of a running deployment.

    Pure reads (queue lengths, counters, admission-table size) — never
    mutates the simulation. Per-NF *rates* are not in the raw snapshot
    (rates need two points in time); :class:`ProgressReporter` derives
    them from counter deltas between its ticks and adds ``rate_per_s``
    to the ``nfs`` entries of the frames it emits.
    """
    sim = deployment.sim
    obs = deployment.obs

    shards = {}
    ops_in_flight = 0
    for replica in deployment.controller.replicas:
        ops_in_flight += len(replica._admission)
        shards[replica.shard_id] = {
            "inbox_depth": len(replica.inbox._queue),
            "handled": replica.inbox.messages_handled,
            "max_backlog": replica.inbox.max_backlog,
            "events": replica.events_received,
        }

    nfs = {}
    for name, nf in sorted(deployment.nfs.items()):
        nfs[name] = {
            "processed": nf.packets_processed,
            "queued": len(nf._queue),
        }

    machines = deployment.switch._xfsm_machines
    xfsm = {
        "machines": len(machines),
        "buffered_now": sum(m._buffered_count for m in machines),
    }

    violations = None
    if obs.audit is not None:
        violations = len(obs.audit.violations)

    snap = {
        "time_ms": sim.now,
        "events_processed": sim.events_processed,
        "ops_in_flight": ops_in_flight,
        "shards": shards,
        "nfs": nfs,
        "xfsm": xfsm,
        "violations": violations,
    }
    sampler = obs.sampling
    if sampler is not None:
        snap["sampling"] = sampler.stats()
    return snap


def format_top(snap: Dict[str, Any]) -> str:
    """Render one :func:`snapshot_top` frame as a terminal block."""
    lines = [
        "t=%.1fms  events=%d  ops-in-flight=%d%s" % (
            snap["time_ms"],
            snap["events_processed"],
            snap["ops_in_flight"],
            ""
            if snap["violations"] is None
            else "  violations=%d" % snap["violations"],
        )
    ]
    for shard, info in sorted(snap["shards"].items()):
        lines.append(
            "  shard %s: inbox depth=%d handled=%d max-backlog=%d events=%d"
            % (shard, info["inbox_depth"], info["handled"],
               info["max_backlog"], info["events"])
        )
    for name, info in sorted(snap["nfs"].items()):
        rate = (
            "  %.0f pkt/s" % info["rate_per_s"]
            if "rate_per_s" in info else ""
        )
        lines.append(
            "  nf %s: processed=%d queued=%d%s"
            % (name, info["processed"], info["queued"], rate)
        )
    if snap["xfsm"]["machines"]:
        lines.append(
            "  xfsm: machines=%d buffered=%d"
            % (snap["xfsm"]["machines"], snap["xfsm"]["buffered_now"])
        )
    if "sampling" in snap:
        stats = snap["sampling"]
        lines.append(
            "  sampling: ops seen=%d kept=%d (head=%d tail=%d) "
            "records dropped=%d"
            % (stats["ops_seen"], stats["ops_kept"], stats["ops_kept_head"],
               stats["ops_kept_tail"], stats["records_sampled_out"])
        )
    return "\n".join(lines)


class ProgressReporter:
    """Periodic sim-time progress snapshots for long runs.

    Self-rescheduling: each tick snapshots the deployment, hands the
    frame to ``sink``, then re-arms only while the simulator still has work queued — the
    reporter alone can never keep ``sim.run()`` alive. Ticks only
    *read* deployment state, so the workload's event timeline is
    byte-identical with the reporter on or off (tick callbacks do
    consume scheduler sequence numbers, which preserves the relative
    order of all other same-instant events).

    Per-NF throughput is derived here, not on the data path: each tick
    diffs ``packets_processed`` against the previous tick and stamps
    ``rate_per_s`` into the frame's ``nfs`` entries. That keeps the
    per-packet hot path free of telemetry work — the overhead
    benchmark's 5% budget is won here.
    """

    def __init__(
        self,
        deployment,
        interval_ms: float = 1000.0,
        sink: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        if interval_ms <= 0:
            raise ValueError("interval_ms must be > 0")
        self.deployment = deployment
        self.interval_ms = interval_ms
        self.sink = sink
        self.ticks = 0
        self._armed = False
        self._last_time_ms = 0.0
        self._last_processed: Dict[str, int] = {}

    def start(self) -> "ProgressReporter":
        """Arm the first tick (idempotent)."""
        if not self._armed:
            self._armed = True
            self.deployment.sim.schedule(self.interval_ms, self._tick)
        return self

    def _tick(self) -> None:
        self.ticks += 1
        snap = snapshot_top(self.deployment)
        now = snap["time_ms"]
        elapsed_s = (now - self._last_time_ms) / 1000.0
        if elapsed_s > 0:
            for name, info in snap["nfs"].items():
                delta = info["processed"] - self._last_processed.get(name, 0)
                info["rate_per_s"] = delta / elapsed_s
                self._last_processed[name] = info["processed"]
        self._last_time_ms = now
        if self.sink is not None:
            self.sink(snap)
        if self.deployment.sim.pending:
            self.deployment.sim.schedule(self.interval_ms, self._tick)
        else:
            self._armed = False
