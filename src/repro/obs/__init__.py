"""Operation tracing and metrics (the observability subsystem).

The paper's whole evaluation (§8, Figs. 10–13) is about *where time
goes* inside ``move``/``copy``/``share``; this package makes that
measurable from inside a run instead of post-hoc. It provides:

* :class:`~repro.obs.span.Tracer` — nested spans with attributes,
  stamped by the *simulation* clock (never wall time);
* :class:`~repro.obs.metrics.MetricsRegistry` — labelled counters and
  histograms (packets buffered, events flushed, chunks transferred,
  wire bytes, drops);
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
    MetricsRegistry,
)
from repro.obs.operation import OperationTrace
from repro.obs.recorder import FlightRecorder, render_bundle
from repro.obs.span import NULL_SPAN, Span, Tracer
from repro.obs.top import ProgressReporter, format_top, snapshot_top


class Observability:
    """Tracer + metrics + exporter bundle shared by one deployment.

    ``enabled`` stores the full trace in an :class:`InMemoryExporter`.
    ``audit=True`` (implies ``enabled``) additionally streams every
    finished span and point record through the guarantee auditors of
    :mod:`repro.obs.audit` and a :class:`FlightRecorder`, whose rings
    are the one bounded trace store; a violation or an operation abort
    then freezes a post-mortem bundle. Auditing only *reads* the
    stream — the simulation timeline is identical with it on or off.
    """

    def __init__(
        self, sim=None, enabled: bool = False, audit: bool = False
    ) -> None:
        self.enabled = enabled = enabled or audit
        self.exporter = exporter = InMemoryExporter() if enabled else None
        self.audit: Optional[AuditPipeline] = AuditPipeline() if audit else None
        self.recorder: Optional[FlightRecorder] = (
            FlightRecorder() if audit else None
        )
        self.tracer = Tracer(sim=sim, exporter=exporter, enabled=enabled)
        # The recorder taps *before* the auditors so that a violation
        # fired while a span is being exported can already see that span
        # in the rings when it freezes its bundle.
        if self.recorder is not None:
            self.tracer.subscribe(self.recorder.route, False)
        if self.audit is not None:
            self.tracer.subscribe(self.audit.route, True)
            self.audit.on_violation = self._capture_violation
        self.metrics = MetricsRegistry()

    def add_collector(self, fn) -> None:
        """Pull a component's counts on every read (if enabled at all)."""
        if self.enabled:
            self.metrics.add_collector(fn)

    def _capture_violation(self, violation: Violation) -> None:
        self.recorder.capture(
            self,
            reason="violation",
            trace_id=violation.trace_id,
            kind=violation.op_kind,
            detail=violation.detail,
            violation=violation,
        )

    def violations(self) -> List[Violation]:
        """Finalize the auditors and return every violation found."""
        return [] if self.audit is None else self.audit.finalize()

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
    "InMemoryExporter",
    "MetricsRegistry",
    "NULL_OBS",
    "NULL_SPAN",
    "Observability",
    "OperationTrace",
    "ProgressReporter",
    "Span",
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
