"""Counters, gauges, and histograms with label sets.

A :class:`MetricsRegistry` holds named instruments; each instrument
keeps one numeric series per label set (``counter.inc(1, nf="inst1")``
and ``counter.inc(1, nf="inst2")`` are independent series). The design
mirrors the common client-library shape (Prometheus-style) scaled down
to what the reproduction needs: deterministic, stdlib-only, and cheap
enough to leave compiled into the hot paths behind an ``enabled`` check.

Scale-readiness (two mechanisms the soak harness depends on):

* **Bounded histograms.** :meth:`MetricsRegistry.histogram` returns a
  :class:`BoundedHistogram` storing log-spaced bucket counts (growth
  factor ``GAMMA`` = 2^(1/4), ~19% relative bucket width) instead of
  every raw sample, so a million observations cost a few dozen ints.
  ``count``/``sum``/``min``/``max``/``mean`` stay *exact*; percentiles
  are nearest-rank over the cumulative buckets, clamped to the observed
  ``[min, max]``, and therefore within one bucket width of the
  raw-sample answer (the nearest-rank oracle in ``tests/oracles.py``).
* **Label-cardinality guard.** Every instrument caps its distinct label
  sets (``max_label_sets``, per registry); the first overflowing label
  set warns once and all overflow aggregates into a single
  ``{"overflow": "other"}`` series, so an accidental per-flow label
  cannot grow memory without bound.

Who writes a counter (``docs/observability.md``, "Who counts"): a
long-lived component counts in a plain attribute and its one pull
collector publishes it on every read; only histograms and the counters
of a per-operation object are pushed, behind an ``obs.enabled`` guard.
A histogram hot path resolves its label set once via ``bind(**labels)``.

Semantics the test suite pins down:

* counters are monotone — a negative increment raises ``ValueError``;
* label sets are order-insensitive and fully separating;
* ``registry.reset()`` clears every series but keeps the instruments,
  so one registry can span several scenarios;
* re-requesting a name with a different instrument kind is an error;
* ``percentile`` validates ``0 <= q <= 100`` and returns the exact
  min/max at ``q=0``/``q=100``.
"""

from __future__ import annotations

import math
import re
import warnings
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Quantiles included in every histogram snapshot / render.
PERCENTILES = (50, 90, 99)

#: Log-bucket growth factor for :class:`BoundedHistogram`: bucket ``i``
#: covers ``(GAMMA**(i-1), GAMMA**i]``, so any percentile is off from
#: the raw-sample nearest-rank answer by at most a factor of GAMMA.
GAMMA = 2.0 ** 0.25
_INV_LOG_GAMMA = 1.0 / math.log(GAMMA)

#: Label set that absorbs writes past the cardinality cap.
OVERFLOW_LABELS = {"overflow": "other"}
OVERFLOW_KEY: LabelKey = (("overflow", "other"),)

#: Default per-instrument cap on distinct label sets. High enough for
#: every legitimate series in the repo (per-NF, per-port, per-shard,
#: per-kind) and low enough that a per-flow label is caught instantly.
DEFAULT_MAX_LABEL_SETS = 512

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def bucket_index(value: float) -> int:
    """Index of the log bucket ``(GAMMA**(i-1), GAMMA**i]`` holding
    ``value`` (which must be > 0)."""
    return int(math.ceil(math.log(value) * _INV_LOG_GAMMA - 1e-9))


class _Instrument:
    """Base: one named instrument holding per-label-set series."""

    kind = "instrument"
    #: Runs the owning registry's pull collectors (the registry sets it):
    #: every public read calls it first, so no published series is stale.
    _collect: Callable[[], None] = staticmethod(lambda: None)

    def __init__(
        self, name: str, max_label_sets: Optional[int] = DEFAULT_MAX_LABEL_SETS
    ) -> None:
        self.name = name
        self._series: Dict[LabelKey, Any] = {}
        #: Cap on distinct label sets (None = unbounded).
        self.max_label_sets = max_label_sets
        #: Writes routed into the overflow series so far.
        self.overflow_routed = 0
        self._overflow_warned = False

    def _key(self, labels: Dict[str, Any]) -> LabelKey:
        """Label key for a *write*, routed through the cardinality guard.

        A label set already present is always admitted; a new one past
        the cap lands in the shared :data:`OVERFLOW_KEY` series (after
        a single warning), so runaway label cardinality degrades to one
        aggregate bucket instead of unbounded memory.
        """
        key = _label_key(labels)
        series = self._series
        if key in series or key == OVERFLOW_KEY:
            return key
        cap = self.max_label_sets
        if cap is not None and len(series) >= cap:
            if not self._overflow_warned:
                self._overflow_warned = True
                warnings.warn(
                    "metric %r exceeded %d distinct label sets; further "
                    "label sets aggregate into %r"
                    % (self.name, cap, OVERFLOW_LABELS),
                    RuntimeWarning,
                    stacklevel=4,
                )
            self.overflow_routed += 1
            return OVERFLOW_KEY
        return key

    def label_sets(self) -> List[Dict[str, str]]:
        """Every label combination this instrument has seen."""
        self._collect()
        return [dict(key) for key in sorted(self._series)]

    def reset(self) -> None:
        self._series.clear()
        self.overflow_routed = 0

    def _snapshot_value(self, value: Any) -> Any:
        return value

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly dump: label-set repr -> value."""
        self._collect()
        return self._dump()

    def _dump(self) -> Dict[str, Any]:
        return {
            ",".join("%s=%s" % kv for kv in key) or "_": self._snapshot_value(v)
            for key, v in sorted(self._series.items())
        }


class _BoundBucketHistogram:
    """Pre-resolved bounded-histogram handle."""

    __slots__ = ("_series", "_key")

    def __init__(self, series: Dict[LabelKey, Any], key: LabelKey) -> None:
        self._series = series
        self._key = key

    def observe(self, value: float) -> None:
        state = self._series.get(self._key)
        if state is None:
            state = self._series[self._key] = _Buckets()
        state.observe(value)


class Counter(_Instrument):
    """Monotonically increasing count (packets, events, bytes)."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(
                "counter %r cannot decrease (inc by %r)" % (self.name, amount)
            )
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        self._collect()
        return self._series.get(_label_key(labels), 0)

    def total(self) -> float:
        """Sum across every label set."""
        self._collect()
        return sum(self._series.values())


class Gauge(_Instrument):
    """A value that can move both ways (queue depth, active transfers)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        self._series[self._key(labels)] = value

    def add(self, delta: float, **labels: Any) -> None:
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0) + delta

    def value(self, **labels: Any) -> float:
        self._collect()
        return self._series.get(_label_key(labels), 0)


class _Buckets:
    """Fixed-memory distribution state for one bounded-histogram series.

    ``count``/``total``/``vmin``/``vmax`` are exact; the sample spread
    lives in log-spaced bucket counts (positive and negative magnitudes
    bucketed separately, zeros counted apart) whose size is the number
    of *occupied* buckets — independent of the observation count.
    """

    __slots__ = ("count", "total", "vmin", "vmax", "zero", "pos", "neg")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf
        self.zero = 0
        self.pos: Dict[int, int] = {}
        self.neg: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        if value > 0.0:
            idx = bucket_index(value)
            self.pos[idx] = self.pos.get(idx, 0) + 1
        elif value < 0.0:
            idx = bucket_index(-value)
            self.neg[idx] = self.neg.get(idx, 0) + 1
        else:
            self.zero += 1

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile over the buckets.

        Returns the holding bucket's upper edge clamped to the exact
        observed ``[vmin, vmax]``, so the result is never outside the
        data and is within one bucket width (a factor of GAMMA) of the
        raw-sample nearest-rank answer. ``q=0``/``q=100`` return the
        exact min/max.
        """
        if not (0.0 <= q <= 100.0):
            raise ValueError("percentile q=%r outside [0, 100]" % (q,))
        if self.count == 0:
            return None
        if q == 0:
            return self.vmin
        if q == 100:
            return self.vmax
        rank = max(1, int(math.ceil(q / 100.0 * self.count)))
        cumulative = 0
        # Negative values ascend from the most negative magnitude.
        for idx in sorted(self.neg, reverse=True):
            cumulative += self.neg[idx]
            if cumulative >= rank:
                return self._clamp(-(GAMMA ** (idx - 1)))
        cumulative += self.zero
        if cumulative >= rank:
            return self._clamp(0.0)
        for idx in sorted(self.pos):
            cumulative += self.pos[idx]
            if cumulative >= rank:
                return self._clamp(GAMMA ** idx)
        return self.vmax

    def _clamp(self, value: float) -> float:
        return min(max(value, self.vmin), self.vmax)


class BoundedHistogram(_Instrument):
    """Log-bucket distribution with fixed memory per series.

    What :meth:`MetricsRegistry.histogram` returns: storage is bucket
    counts, not samples, so soak-length runs cannot grow memory with
    the observation count.
    """

    kind = "histogram"

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        state = self._series.get(key)
        if state is None:
            state = self._series[key] = _Buckets()
        state.observe(value)

    def bind(self, **labels: Any) -> _BoundBucketHistogram:
        """A fast handle pre-resolved to one label set (hot paths)."""
        return _BoundBucketHistogram(self._series, self._key(labels))

    def count(self, **labels: Any) -> int:
        state = self._series.get(_label_key(labels))
        return state.count if state is not None else 0

    def sum(self, **labels: Any) -> float:
        state = self._series.get(_label_key(labels))
        return state.total if state is not None else 0.0

    def min(self, **labels: Any) -> Optional[float]:
        state = self._series.get(_label_key(labels))
        return state.vmin if state is not None and state.count else None

    def max(self, **labels: Any) -> Optional[float]:
        state = self._series.get(_label_key(labels))
        return state.vmax if state is not None and state.count else None

    def mean(self, **labels: Any) -> Optional[float]:
        state = self._series.get(_label_key(labels))
        if state is None or not state.count:
            return None
        return state.total / state.count

    def percentile(self, q: float, **labels: Any) -> Optional[float]:
        """Bucketed nearest-rank percentile (``None`` when empty)."""
        state = self._series.get(_label_key(labels))
        return state.percentile(q) if state is not None else None

    def _snapshot_value(self, value: _Buckets) -> Dict[str, float]:
        summary = {
            "count": value.count,
            "sum": value.total,
            "min": value.vmin,
            "max": value.vmax,
        }
        for q in PERCENTILES:
            summary["p%d" % q] = value.percentile(q)
        return summary


class MetricsRegistry:
    """Named instruments, created on first use.

    ``max_label_sets`` is the per-instrument cardinality cap handed to
    every instrument (None = unbounded).
    """

    def __init__(
        self, max_label_sets: Optional[int] = DEFAULT_MAX_LABEL_SETS
    ) -> None:
        self._instruments: Dict[str, _Instrument] = {}
        self.max_label_sets = max_label_sets
        #: Pull collectors, one per long-lived component: each runs
        #: before every read and hands :meth:`publish` the counts its
        #: component keeps in plain attributes.
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []
        #: Names of the counters collectors publish into.
        self._published: Set[str] = set()

    def _get(self, name: str, cls) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name, max_label_sets=self.max_label_sets)
            instrument._collect = self.collect
            self._instruments[name] = instrument
        elif instrument.kind != cls.kind:
            raise TypeError(
                "metric %r already registered as %s, not %s"
                % (name, instrument.kind, cls.kind)
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> BoundedHistogram:
        return self._get(name, BoundedHistogram)

    def add_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """Register a pull collector: ``fn(registry)`` runs before every
        read and calls :meth:`publish` for each count it owns."""
        self._collectors.append(fn)

    def publish(self, name: str, value: float, **labels: Any) -> None:
        """Collector-side: add ``value`` to one series of counter ``name``.

        Collectors sharing a label set sum; a zero count publishes
        nothing, not even the instrument. Nothing else may ``inc`` a
        published counter: each pass rebuilds its series from scratch.
        """
        if value:
            self._published.add(name)
            self.counter(name).inc(value, **labels)

    def collect(self) -> None:
        """Rebuild every published counter from its collectors' counts."""
        for name in self._published:
            self._instruments[name]._series.clear()
        for fn in self._collectors:
            fn(self)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def __iter__(self) -> Iterator[_Instrument]:
        self.collect()
        return iter(self._instruments.values())

    def reset(self) -> None:
        """Zero every series (between scenarios) without re-registering."""
        for instrument in self._instruments.values():
            instrument.reset()

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-friendly dump of every instrument."""
        self.collect()
        return {
            name: {"kind": inst.kind, "series": inst._dump()}
            for name, inst in sorted(self._instruments.items())
        }

    def render_prometheus(self) -> str:
        """Exposition-format text dump of every instrument.

        Counters and gauges render one sample per label set; histograms
        render as summaries (``{quantile="0.5"}`` …) plus ``_sum`` and
        ``_count`` samples, via the instrument's own snapshot summary.
        """
        self.collect()
        lines: List[str] = []
        for name, inst in sorted(self._instruments.items()):
            metric = _NAME_SANITIZE.sub("_", name)
            lines.append("# TYPE %s %s" % (
                metric,
                "summary" if inst.kind == "histogram" else inst.kind,
            ))
            for key, value in sorted(inst._series.items()):
                labels = ",".join('%s="%s"' % kv for kv in key)
                if inst.kind != "histogram":
                    lines.append(
                        "%s{%s} %g" % (metric, labels, value)
                        if labels else "%s %g" % (metric, value)
                    )
                    continue
                summary = inst._snapshot_value(value)
                for q in PERCENTILES:
                    qlabel = 'quantile="%g"' % (q / 100.0)
                    qlabels = "%s,%s" % (labels, qlabel) if labels else qlabel
                    lines.append(
                        "%s{%s} %g"
                        % (metric, qlabels, summary["p%d" % q])
                    )
                suffix = "{%s}" % labels if labels else ""
                lines.append("%s_sum%s %g" % (metric, suffix, summary["sum"]))
                lines.append(
                    "%s_count%s %d" % (metric, suffix, summary["count"])
                )
        return "\n".join(lines) + ("\n" if lines else "")
