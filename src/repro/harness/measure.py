"""Measurements over the ground-truth logs of a finished run.

Two families, both read from the NFs' ``processing_log``:

* **Added latency** (Figure 10(b)): the *additional* latency imposed on
  packets affected by an operation — carried in events from the source
  or buffered at the destination. Each packet's end-to-end latency is
  processing completion minus injection; the baseline is the median
  over unaffected packets.
* **Throughput timelines** (§2's performance SLAs, "aggregate
  throughput should exceed 1 Gbps most of the time"): per-interval
  packets/second, so scenarios can measure overload, scale-out and
  recovery times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple


@dataclass
class LatencyReport:
    """Added-latency summary for one operation."""

    baseline_ms: float = 0.0
    affected_count: int = 0
    samples: List[float] = field(default_factory=list)

    @property
    def average_added_ms(self) -> float:
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    @property
    def max_added_ms(self) -> float:
        return max(self.samples) if self.samples else 0.0

    def percentile(self, fraction: float) -> float:
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index]


def _median(values: List[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def completion_times(nfs) -> Dict[int, float]:
    """uid -> earliest processing-completion time across instances."""
    times: Dict[int, float] = {}
    for nf in nfs:
        for when, uid in nf.processing_log:
            if uid not in times or when < times[uid]:
                times[uid] = when
    return times


def added_latency(
    nfs,
    injected_packets,
    affected_uids: Set[int],
) -> LatencyReport:
    """Compute the added latency of ``affected_uids``.

    ``injected_packets`` supplies each packet's injection time; baseline
    is the median latency of processed packets *not* in the affected set.
    """
    completions = completion_times(nfs)
    created: Dict[int, float] = {p.uid: p.created_at for p in injected_packets}
    baseline_samples: List[float] = []
    affected_samples: List[Tuple[int, float]] = []
    for uid, done_at in completions.items():
        if uid not in created:
            continue
        latency = done_at - created[uid]
        if uid in affected_uids:
            affected_samples.append((uid, latency))
        else:
            baseline_samples.append(latency)
    baseline = _median(baseline_samples)
    report = LatencyReport(baseline_ms=baseline, affected_count=len(affected_samples))
    report.samples = [max(0.0, latency - baseline) for _uid, latency in
                      affected_samples]
    return report


def throughput_timeline(
    nfs, bucket_ms: float = 50.0, until: Optional[float] = None
) -> List[Tuple[float, float]]:
    """Aggregate processed packets/second per time bucket.

    Returns ``[(bucket_start_ms, packets_per_second), ...]`` over the
    union of the given NFs' processing logs.
    """
    times: List[float] = []
    for nf in nfs:
        times.extend(t for (t, _uid) in nf.processing_log)
    if not times:
        return []
    horizon = max(times) if until is None else until
    n_buckets = int(horizon / bucket_ms) + 1
    counts = [0] * n_buckets
    for t in times:
        index = int(t / bucket_ms)
        if index < n_buckets:
            counts[index] += 1
    return [
        (i * bucket_ms, count * 1000.0 / bucket_ms)
        for i, count in enumerate(counts)
    ]


def sustained_throughput(
    timeline: Sequence[Tuple[float, float]],
    start_ms: float,
    end_ms: Optional[float] = None,
) -> float:
    """Mean throughput over a window of the timeline."""
    window = [
        pps for (t, pps) in timeline
        if t >= start_ms and (end_ms is None or t < end_ms)
    ]
    return sum(window) / len(window) if window else 0.0


def time_to_reach(
    timeline: Sequence[Tuple[float, float]],
    target_pps: float,
    after_ms: float = 0.0,
    sustain_buckets: int = 2,
) -> Optional[float]:
    """First time (≥ ``after_ms``) throughput sustains ``target_pps``.

    "Sustains" means ``sustain_buckets`` consecutive buckets at or above
    the target; returns the start of the first such run, or None.
    """
    run = 0
    for t, pps in timeline:
        if t < after_ms:
            continue
        if pps >= target_pps:
            run += 1
            if run >= sustain_buckets:
                return t - (sustain_buckets - 1) * (
                    timeline[1][0] - timeline[0][0] if len(timeline) > 1 else 0
                )
        else:
            run = 0
    return None
