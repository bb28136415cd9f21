"""Sim-clock windowed time-series: rates and gauges over time.

End-of-run totals answer "how much"; the interesting signals at scale
(§7/Fig. 13's controller scaling, queue build-up during a move window)
are *rates and occupancies over time*. A :class:`TimeSeriesHub` holds
named series; each :class:`TimeSeries` aggregates records into
fixed-width windows aligned to the simulated clock and keeps only the
most recent ``max_windows`` closed windows in a ring — fixed memory
however long the run, O(1) per record (one float modulo, a handful of
compares), and strictly passive (nothing is ever scheduled on the
simulator), so a telemetered run has a byte-identical event timeline.

A window is the tuple ``(start_ms, count, sum, min, max, last)``; a
"rate" series reads it as count-per-window (events/s, packets/s), a
"gauge" series as the sampled level (queue depth, ring occupancy) —
the storage is identical, only rendering differs. Windows with no
records are simply absent (sparse), which is what keeps idle series
free.

Exports mirror the metrics registry: :meth:`TimeSeriesHub.write_jsonl`
for offline analysis and :meth:`TimeSeriesHub.render_prometheus` for a
scrape-style text dump of the latest window per series. The same
label-cardinality guard applies: past ``max_series`` distinct
(name, label-set) pairs, new series aggregate into an
``{"overflow": "other"}`` series after a single warning.

:class:`ProgressReporter` is the periodic heartbeat for long runs: it
re-schedules itself on the simulator at a fixed sim-time interval,
snapshots the deployment (:func:`snapshot_top`), and stops on the
first tick that finds the event queue empty — it can therefore never
wedge ``sim.run()`` into an infinite loop, at the cost of the clock
possibly ending on a tick boundary. ``repro top`` renders the same
snapshot via :func:`format_top`.
"""

from __future__ import annotations

import json
import warnings
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import (
    OVERFLOW_KEY,
    OVERFLOW_LABELS,
    _NAME_SANITIZE,
    LabelKey,
    _label_key,
)

#: Default window width: 100 ms of simulated time resolves the move
#: windows (tens of ms to seconds) the reproduction cares about.
DEFAULT_WINDOW_MS = 100.0

#: Default ring length: 600 windows x 100 ms = the last minute of sim
#: time at default resolution.
DEFAULT_MAX_WINDOWS = 600

#: Frames a :class:`ProgressReporter` retains.
SNAPSHOTS_KEPT = 120

#: Default cap on distinct (name, label-set) series per hub.
DEFAULT_MAX_SERIES = 512

#: Window tuple layout (documentation for consumers of raw windows).
WINDOW_FIELDS = ("start_ms", "count", "sum", "min", "max", "last")


class TimeSeries:
    """One (name, label-set) series of aligned aggregation windows."""

    __slots__ = (
        "name", "labels", "kind", "window_ms", "_windows",
        "_start", "_count", "_total", "_min", "_max", "_last",
    )

    def __init__(
        self,
        name: str,
        labels: Dict[str, str],
        kind: str = "rate",
        window_ms: float = DEFAULT_WINDOW_MS,
        max_windows: int = DEFAULT_MAX_WINDOWS,
    ) -> None:
        if kind not in ("rate", "gauge"):
            raise ValueError("kind must be 'rate' or 'gauge', not %r" % kind)
        if window_ms <= 0:
            raise ValueError("window_ms must be > 0")
        self.name = name
        self.labels = dict(labels)
        self.kind = kind
        self.window_ms = window_ms
        #: Ring of closed windows (oldest evicted first).
        self._windows: deque = deque(maxlen=max_windows)
        self._start: Optional[float] = None
        self._count = 0
        self._total = 0.0
        self._min = 0.0
        self._max = 0.0
        self._last = 0.0

    # ------------------------------------------------------------------ record

    def record(self, now: float, value: float = 1.0) -> None:
        """Fold one observation into the window covering ``now``.

        O(1): records arrive in non-decreasing sim time, so at most the
        one open window rolls into the ring.
        """
        start = now - (now % self.window_ms)
        if start != self._start:
            if self._start is not None:
                self._windows.append((
                    self._start, self._count, self._total,
                    self._min, self._max, self._last,
                ))
            self._start = start
            self._count = 1
            self._total = value
            self._min = value
            self._max = value
            self._last = value
            return
        self._count += 1
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._last = value

    # ------------------------------------------------------------------- query

    def windows(self, include_open: bool = True) -> List[Tuple]:
        """Closed windows (oldest first), plus the open one if asked."""
        result = list(self._windows)
        if include_open and self._start is not None:
            result.append((
                self._start, self._count, self._total,
                self._min, self._max, self._last,
            ))
        return result

    def latest(self) -> Optional[Tuple]:
        """The most recent window (open if any, else last closed)."""
        if self._start is not None:
            return (
                self._start, self._count, self._total,
                self._min, self._max, self._last,
            )
        return self._windows[-1] if self._windows else None

    def rate_per_s(self) -> float:
        """Events per second in the most recent window (0.0 when idle)."""
        window = self.latest()
        if window is None:
            return 0.0
        return window[1] / (self.window_ms / 1000.0)

    def last_value(self) -> Optional[float]:
        """The most recently recorded value (gauges' current level)."""
        window = self.latest()
        return None if window is None else window[5]


class TimeSeriesHub:
    """Named windowed series sharing one sim clock and one size budget."""

    def __init__(
        self,
        sim=None,
        window_ms: float = DEFAULT_WINDOW_MS,
        max_series: Optional[int] = DEFAULT_MAX_SERIES,
    ) -> None:
        self.sim = sim
        self.window_ms = window_ms
        self.max_series = max_series
        self._series: Dict[Tuple[str, LabelKey], TimeSeries] = {}
        self.series_overflowed = 0
        self._overflow_warned = False

    @property
    def now(self) -> float:
        return 0.0 if self.sim is None else self.sim.now

    def series(
        self,
        name: str,
        kind: str = "rate",
        window_ms: Optional[float] = None,
        **labels: Any,
    ) -> TimeSeries:
        """Get or create one series; hot paths hold on to the result.

        Past ``max_series`` distinct (name, label-set) pairs, new label
        sets collapse into the per-name overflow series (cardinality
        guard, same policy as the metrics registry).
        """
        key = (name, _label_key(labels))
        ts = self._series.get(key)
        if ts is not None:
            return ts
        cap = self.max_series
        if cap is not None and len(self._series) >= cap:
            if not self._overflow_warned:
                self._overflow_warned = True
                warnings.warn(
                    "time-series hub exceeded %d series; further label "
                    "sets aggregate into %r" % (cap, OVERFLOW_LABELS),
                    RuntimeWarning,
                    stacklevel=3,
                )
            self.series_overflowed += 1
            overflow_key = (name, OVERFLOW_KEY)
            ts = self._series.get(overflow_key)
            if ts is None:
                ts = self._series[overflow_key] = TimeSeries(
                    name, dict(OVERFLOW_LABELS), kind=kind,
                    window_ms=window_ms or self.window_ms,
                )
            return ts
        ts = self._series[key] = TimeSeries(
            name, {k: str(v) for k, v in labels.items()}, kind=kind,
            window_ms=window_ms or self.window_ms,
        )
        return ts

    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        """One-shot rate record (cold paths; hot paths bind a series)."""
        self.series(name, kind="rate", **labels).record(self.now, amount)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """One-shot gauge record (cold paths)."""
        self.series(name, kind="gauge", **labels).record(self.now, value)

    # ----------------------------------------------------------------- exports

    def snapshot(self, include_open: bool = True) -> List[Dict[str, Any]]:
        """JSON-friendly dump: one entry per window per series."""
        entries: List[Dict[str, Any]] = []
        for (name, _key), ts in sorted(self._series.items()):
            for window in ts.windows(include_open=include_open):
                start, count, total, vmin, vmax, last = window
                entries.append({
                    "type": "timeseries",
                    "name": name,
                    "kind": ts.kind,
                    "labels": ts.labels,
                    "window_start_ms": start,
                    "window_ms": ts.window_ms,
                    "count": count,
                    "sum": total,
                    "min": vmin,
                    "max": vmax,
                    "last": last,
                    "rate_per_s": count / (ts.window_ms / 1000.0),
                })
        return entries

    def write_jsonl(self, path: str, include_open: bool = True) -> int:
        """Append every window as one JSON line; returns lines written."""
        entries = self.snapshot(include_open=include_open)
        with open(path, "a") as handle:
            for entry in entries:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
        return len(entries)

    def render_prometheus(self) -> str:
        """Scrape-style dump of the latest window per series.

        Rate series render ``<name>_rate_per_s`` and ``<name>_total``
        (window count); gauge series render ``<name>_last`` / ``_min``
        / ``_max`` / ``_avg``.
        """
        lines: List[str] = []
        for (name, key), ts in sorted(self._series.items()):
            window = ts.latest()
            if window is None:
                continue
            _start, count, total, vmin, vmax, last = window
            metric = _NAME_SANITIZE.sub("_", name)
            labels = ",".join('%s="%s"' % kv for kv in key)
            suffix = "{%s}" % labels if labels else ""
            if ts.kind == "rate":
                lines.append("%s_rate_per_s%s %g" % (
                    metric, suffix, count / (ts.window_ms / 1000.0)
                ))
                lines.append("%s_total%s %g" % (metric, suffix, total))
            else:
                lines.append("%s_last%s %g" % (metric, suffix, last))
                lines.append("%s_min%s %g" % (metric, suffix, vmin))
                lines.append("%s_max%s %g" % (metric, suffix, vmax))
                lines.append("%s_avg%s %g" % (metric, suffix, total / count))
        return "\n".join(lines) + ("\n" if lines else "")


# --------------------------------------------------------------- run snapshot


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
    frame to ``sink`` (and keeps the last :data:`SNAPSHOTS_KEPT`), then
    re-arms only while the simulator still has work queued — the
    reporter alone can never keep ``sim.run()`` alive. Ticks only
    *read* deployment state, so the workload's event timeline is
    byte-identical with the reporter on or off (tick callbacks do
    consume scheduler sequence numbers, which preserves the relative
    order of all other same-instant events).

    Per-NF throughput is derived here, not on the data path: each tick
    diffs ``packets_processed`` against the previous tick and stamps
    ``rate_per_s`` into the frame's ``nfs`` entries (also folded into
    the hub as the ``nf.processed.rate`` gauge series when a hub is
    attached). That keeps the per-packet hot path free of time-series
    work — the overhead benchmark's 5% budget is won here.
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
        self.snapshots: deque = deque(maxlen=SNAPSHOTS_KEPT)
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
            hub = self.deployment.obs.timeseries
            for name, info in snap["nfs"].items():
                delta = info["processed"] - self._last_processed.get(name, 0)
                rate = delta / elapsed_s
                info["rate_per_s"] = rate
                self._last_processed[name] = info["processed"]
                if hub is not None:
                    hub.series(
                        "nf.processed.rate", kind="gauge", nf=name
                    ).record(now, rate)
        self._last_time_ms = now
        self.snapshots.append(snap)
        if self.sink is not None:
            self.sink(snap)
        if self.deployment.sim.pending:
            self.deployment.sim.schedule(self.interval_ms, self._tick)
        else:
            self._armed = False
