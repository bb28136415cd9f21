"""Span bookkeeping for one northbound operation.

:class:`OperationTrace` owns the operation's root span and turns the
Figure-6 phase structure into child spans. The per-phase completion
times in :attr:`OperationReport.phases` are *derived* from phase-span
lifecycle — a phase is marked when (and only when) its span closes, at
the simulated time the span's end is stamped with — so the span tree
and the report can never disagree, and no caller hand-marks phases with
an ad-hoc clock.

The trace is also the anchor of causal propagation: the root span's id
doubles as the operation's ``trace_id``, stamped onto the root, every
phase span, every southbound RPC issued through a client bound with
:meth:`bind`, and every buffered-packet record — one id that selects
the operation's complete causal slice out of a mixed stream. An
``op.start`` point record announces the operation to streaming
consumers (the guarantee auditors) the moment it begins, since the root
span itself is only exported when it *finishes*.

With tracing disabled the same code path runs without allocating any
:class:`~repro.obs.span.Span` objects: only the (cheap) report marks
remain, which is the seed behaviour exactly.
"""

from __future__ import annotations

from typing import Any, Optional

#: Sentinel: "mark the report phase under the span's own name".
_SAME = object()


class OperationTrace:
    """Root span + phase spans for a move/copy/share operation."""

    def __init__(self, obs, sim, report, kind: str, **attrs: Any) -> None:
        self.obs = obs
        self.sim = sim
        self.report = report
        self.kind = kind
        self.root = obs.tracer.span(kind, **attrs)
        #: The operation's causal trace id (``None`` when disabled):
        #: equal to the root span's id, inherited by everything the
        #: operation causes.
        self.trace_id: Optional[int] = self.root.span_id
        if self.trace_id is not None:
            self.root.set(trace_id=self.trace_id)
            # Streaming consumers (auditors, the flight recorder) need
            # to learn about the operation *now*; the root span only
            # reaches the exporter when it closes.
            obs.tracer.record(
                "op.start", trace_id=self.trace_id, kind=kind, **attrs
            )

    def bind(self, target: Any) -> Any:
        """Causally bind a client/switch stub to this operation.

        Calls on the returned proxy run with the root span as the
        tracer's current cause, so the RPC spans they mint carry this
        operation's ``trace_id``. Returns ``target`` unchanged when
        tracing is disabled.
        """
        return self.obs.tracer.bind(target, self.root)

    def phase(
        self,
        name: str,
        mark: Any = _SAME,
        parent: Any = None,
        **attrs: Any,
    ) -> "_Phase":
        """Open a phase: a ``<kind>.<name>`` span plus a report mark.

        ``mark`` names the :attr:`OperationReport.phases` entry stamped
        when the phase closes (default: ``name``); pass ``None`` for
        span-only phases such as structural wrappers. ``parent``
        overrides the root span as the parent (for nested phases).
        """
        if self.trace_id is not None:
            attrs.setdefault("trace_id", self.trace_id)
        return _Phase(
            self,
            "%s.%s" % (self.kind, name),
            name if mark is _SAME else mark,
            self.root if parent is None else parent,
            attrs,
        )

    def event(self, name: str, **attrs: Any) -> None:
        """Point annotation on the root span (no-op when disabled)."""
        self.root.event(name, **attrs)

    def finish(self, aborted: Optional[str] = None) -> None:
        """Close the root span (idempotent), tagging abort causes.

        On abort, the observability bundle's flight recorder (when one
        is installed) dumps a post-mortem bundle for this operation's
        causal slice — the recorder only reads its ring buffers, so the
        simulation timeline is untouched.
        """
        already_finished = self.root.finished
        if aborted is not None:
            self.root.set(aborted=aborted)
            if self.root.span_id is not None:
                self.root.status = "error"
        self.root.finish()
        if self.trace_id is None or already_finished:
            return
        duration = self.root.duration_ms
        self.obs.metrics.histogram("op.latency_ms").observe(
            duration, kind=self.kind
        )
        hub = self.obs.timeseries
        if hub is not None:
            # Label is `op=` (not `kind=`): the hub's series() reserves
            # the `kind` keyword for the series type (rate vs gauge).
            hub.gauge("op.latency_ms", duration, op=self.kind)
            hub.inc("ops.completed", 1.0, op=self.kind)
        # The op.end record is what lets streaming consumers (auditors,
        # the trace sampler) close the operation; the root span was
        # exported just above, so the sampler already knows the
        # duration when this record triggers its keep/discard decision.
        self.obs.tracer.record(
            "op.end",
            trace_id=self.trace_id,
            kind=self.kind,
            aborted=aborted,
        )
        recorder = self.obs.recorder
        if aborted is not None and recorder is not None:
            recorder.capture(
                self.obs,
                reason="abort",
                trace_id=self.trace_id,
                kind=self.kind,
                detail=aborted,
            )


class _Phase:
    """Context manager for one phase; usable across generator yields."""

    __slots__ = ("trace", "span", "mark")

    def __init__(self, trace, span_name, mark, parent, attrs) -> None:
        self.trace = trace
        self.mark = mark
        self.span = parent.child(span_name, **attrs)

    def __enter__(self) -> "_Phase":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.__exit__(exc_type, exc, tb)
        if self.mark is not None and exc is None:
            self.trace.report.mark_phase(self.mark, self.trace.sim.now)
        return False
