"""Operation tracing and metrics (the observability subsystem).

The paper's whole evaluation (§8, Figs. 10–13) is about *where time
goes* inside ``move``/``copy``/``share``; this package makes that
measurable from inside a run instead of post-hoc. It provides:

* :class:`~repro.obs.span.Tracer` — nested spans with attributes,
  stamped by the *simulation* clock (never wall time);
* :class:`~repro.obs.metrics.MetricsRegistry` — labelled counters /
  gauges / histograms (packets buffered, events flushed, chunks
  transferred, wire bytes, drops);
* the in-memory exporter tests and the CLI read, and
  :func:`~repro.obs.audit.write_trace` for a replayable ``.trace.jsonl``;
* :class:`~repro.obs.operation.OperationTrace` — the bridge that
  derives :class:`~repro.controller.reports.OperationReport` phase
  times from span lifecycle.

One :class:`Observability` bundle is shared by a deployment (switch,
controller, channels, NF clients, NFs). It is **disabled by default**
and then allocates no span objects and registers no collector —
components count in plain attributes either way, and the sites that
build a span, a record or a histogram sample guard on ``obs.enabled`` —
so the seed behaviour and benchmark trajectories are unchanged unless a
caller opts in (``Deployment(observe=True)``).

Because tracing only records (it never schedules simulator callbacks),
an observed run has the *identical* event timeline as an unobserved
one, and the trace itself is deterministic per seed.
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.audit import (
    AuditPipeline,
    Violation,
    audit_entries,
    entries_from_obs,
    load_trace_entries,
    write_trace,
)
from repro.obs.export import InMemoryExporter, render_timeline
from repro.obs.metrics import (
    BoundedHistogram,
    Counter,
    Gauge,
    MetricsRegistry,
)
from repro.obs.operation import OperationTrace
from repro.obs.recorder import FlightRecorder, render_bundle
from repro.obs.sampling import SamplingPolicy, TraceSampler
from repro.obs.span import NULL_SPAN, Span, Tracer
from repro.obs.timeseries import (
    ProgressReporter,
    TimeSeriesHub,
    format_top,
    snapshot_top,
)


class _TeeExporter:
    """Fans finished spans/records out to the base exporter plus taps.

    The span payload dict is built exactly once per span, shared by
    every tap (auditors, flight recorder) and left on the span for
    ``entries_from_obs``; the base exporter keeps receiving the
    :class:`Span` object itself, so test/CLI queries on ``obs.exporter``
    are unchanged.
    """

    __slots__ = ("base", "taps")

    def __init__(self, base, taps) -> None:
        self.base = base
        self.taps = taps

    def export_span(self, span: Span) -> None:
        self.base.export_span(span)
        payload = span.payload = span.to_dict()
        for tap in self.taps:
            tap.on_span(payload)

    def export_record(self, record) -> None:
        self.base.export_record(record)
        for tap in self.taps:
            tap.on_record(record)


class Observability:
    """Tracer + metrics + exporter bundle shared by one deployment.

    ``audit=True`` (implies ``enabled``) additionally streams every
    finished span and point record through the guarantee auditors of
    :mod:`repro.obs.audit` and a :class:`FlightRecorder`; a violation
    or an operation abort then freezes a post-mortem bundle. Auditing
    only *reads* the stream — the simulation timeline is identical with
    it on or off.
    """

    def __init__(
        self,
        sim=None,
        enabled: bool = False,
        exporter=None,
        audit: bool = False,
        timeseries=None,
        sampling=None,
    ) -> None:
        if audit or timeseries or sampling:
            enabled = True
        if exporter is None and enabled:
            exporter = InMemoryExporter()
        self.enabled = enabled
        self.exporter = exporter
        self.audit: Optional[AuditPipeline] = AuditPipeline() if audit else None
        self.recorder: Optional[FlightRecorder] = (
            FlightRecorder() if audit else None
        )
        #: Optional windowed time-series hub (``timeseries=True`` builds
        #: one with defaults; or pass a pre-built :class:`TimeSeriesHub`).
        #: Strictly passive: hot paths fold rates/gauges into it, nothing
        #: is scheduled, the timeline is byte-identical either way.
        if timeseries is True:
            timeseries = TimeSeriesHub(sim=sim)
        self.timeseries: Optional[TimeSeriesHub] = timeseries or None
        #: Optional trace sampler (``sampling=True`` → default policy;
        #: or pass a :class:`SamplingPolicy` / pre-built sampler). It
        #: wraps the *stored* exporter only — the auditor/recorder taps
        #: always see the full stream.
        sampler: Optional[TraceSampler] = None
        if sampling is not None and sampling is not False \
                and exporter is not None:
            if isinstance(sampling, TraceSampler):
                sampler = sampling
            elif isinstance(sampling, SamplingPolicy):
                sampler = TraceSampler(exporter, sampling)
            else:  # sampling is True
                sampler = TraceSampler(exporter)
        self.sampling = sampler
        # The recorder taps *before* the auditors so that a violation
        # fired while a span is being exported can already see that span
        # in the rings when it freezes its bundle.
        taps = [t for t in (self.recorder, self.audit) if t is not None]
        tracer_exporter = exporter if sampler is None else sampler
        if taps and tracer_exporter is not None:
            tracer_exporter = _TeeExporter(tracer_exporter, taps)
        self.tracer = Tracer(sim=sim, exporter=tracer_exporter,
                             enabled=enabled)
        self.metrics = MetricsRegistry()
        #: Per-flow gate for per-packet trace records (``nf.process`` /
        #: ``nf.buffer``): when sampling is active and *no* tap needs
        #: the full stream, the hot paths skip building unsampled
        #: records entirely. With auditors or a flight recorder
        #: attached the gate stays None (they require every record) and
        #: the sampler filters at the storage layer instead.
        self.packet_gate = None
        if sampler is not None and not taps:
            self.packet_gate = sampler.keep_flow
        if self.audit is not None:
            self.audit.on_violation = self._capture_violation

    def add_collector(self, fn) -> None:
        """Pull a component's counts on every read (if enabled at all)."""
        if self.enabled:
            self.metrics.add_collector(fn)

    def gated_flow(self, packet) -> Optional[str]:
        """The packet's flow key, or ``None`` if :attr:`packet_gate`
        dropped the flow and its trace records need not be built.

        Verdict and flow key are memoized together on the five-tuple
        (shared by all packets of one flow direction), tagged with the
        gate that produced them so another deployment's sampler never
        sees a stale verdict: the steady state is one attribute read.
        """
        gate = self.packet_gate
        if gate is None:
            return packet.flow_key()
        verdict = packet.five_tuple._gate_keep
        if verdict is None or verdict[0] is not gate:
            flow = packet.flow_key()
            verdict = (gate, flow if gate(flow) else None)
            object.__setattr__(packet.five_tuple, "_gate_keep", verdict)
        return verdict[1]

    def _capture_violation(self, violation: Violation) -> None:
        if self.sampling is not None:
            self.sampling.flag(violation.trace_id)
        if self.recorder is not None:
            self.recorder.capture(
                self,
                reason="violation",
                trace_id=violation.trace_id,
                kind=violation.op_kind,
                detail=violation.detail,
                violation=violation,
            )

    def violations(self) -> List[Violation]:
        """Finalize the auditors and return every violation found.

        Finalize-time violations flag their operations with the trace
        sampler *before* it flushes still-open operations, so a trace
        discarded mid-run can still be resurrected here.
        """
        found = [] if self.audit is None else self.audit.finalize()
        self.flush_sampling()
        return found

    def flush_sampling(self):
        """Flush the trace sampler's still-open operations, if any.

        Returns the sampler's stats dict (``None`` without a sampler).
        """
        if self.sampling is not None:
            return self.sampling.finalize()
        return None

    def operation(self, sim, report, kind: str, **attrs) -> OperationTrace:
        """Start an :class:`OperationTrace` for one northbound operation."""
        return OperationTrace(self, sim, report, kind, **attrs)


#: Shared disabled instance used as the default everywhere an ``obs``
#: parameter is omitted; its registry stays empty (no collector is
#: registered with it and every push site guards on ``enabled``).
NULL_OBS = Observability()

__all__ = [
    "AuditPipeline",
    "BoundedHistogram",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "InMemoryExporter",
    "MetricsRegistry",
    "NULL_OBS",
    "NULL_SPAN",
    "Observability",
    "OperationTrace",
    "ProgressReporter",
    "SamplingPolicy",
    "Span",
    "TimeSeriesHub",
    "TraceSampler",
    "Tracer",
    "Violation",
    "audit_entries",
    "entries_from_obs",
    "format_top",
    "load_trace_entries",
    "render_bundle",
    "render_timeline",
    "snapshot_top",
    "write_trace",
]
