"""Post-mortem flight recorder: bounded rings + causal-slice bundles.

Long runs cannot keep every span in memory, but the spans that matter
most are the ones *just before* something went wrong. The
:class:`FlightRecorder` keeps a bounded ring buffer of recent spans
and point records per component (southbound client, switch,
NFs, channels, controller operations), costing O(ring size) memory no
matter how long the run is.

When a guarantee auditor emits a violation, or an operation aborts, the
recorder freezes a **bundle**: the violated operation's *causal slice*
(every buffered span/record carrying its ``trace_id``, plus the root
span itself), the triggering violation, a snapshot of the ring
occupancy, and a full metrics snapshot. A violation bundle frozen while
its operation runs takes the whole slice when the operation ends
(:meth:`complete`). Bundles are JSON-serializable; ``repro audit
<bundle.json>`` renders them.

Like the tracer and the auditors, the recorder never schedules
simulator callbacks — capturing a bundle only reads memory, so an
audited run keeps the zero-perturbation guarantee.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

#: Span-name prefixes mapped to ring components; anything else (the
#: operation roots and their phase spans: ``move.*``, ``copy.*``, …)
#: lands in the controller ring.
_COMPONENTS = {
    "sb": "southbound",
    "sw": "switch",
    "nf": "nf",
    "chan": "channel",
    "ctrl": "controller",
    "op": "controller",
}


def _component(name: str) -> str:
    return _COMPONENTS.get(name.split(".", 1)[0], "controller")


#: Ring sizes: the most recent spans / point records kept per component.
MAX_SPANS_PER_COMPONENT = 1024
MAX_RECORDS_PER_COMPONENT = 4096


class FlightRecorder:
    """Per-component ring buffers + on-demand post-mortem bundles.

    The rings hold what the tracer emitted — :class:`~repro.obs.span.Span`
    objects and record dicts — and a span is serialised only when a
    bundle holding it is read.
    """

    def __init__(self) -> None:
        self._spans: Dict[str, Deque[Any]] = {}
        self._records: Dict[str, Deque[Dict[str, Any]]] = {}
        #: (kind, component) -> its ring's ``append``, as :meth:`route`
        #: hands it out.
        self._appends: Dict[Tuple[str, str], Tuple[Any, ...]] = {}
        self._bundles: List[Dict[str, Any]] = []
        self._captured: Set[Tuple[Any, Any]] = set()
        #: trace_id -> (bundle, spans, records) of each violation bundle
        #: frozen while that operation ran, for :meth:`complete`.
        self._running: Dict[Any, List[Tuple[Any, Any, Any]]] = {}
        #: Slices whose spans are still Span objects.
        self._unread: List[Dict[str, List[Any]]] = []

    @property
    def bundles(self) -> List[Dict[str, Any]]:
        """Captured bundles, in capture order. A slice's spans are
        serialised on the first read after its capture, so a bundle
        nobody reads costs no span payload."""
        for causal in self._unread:
            causal["spans"] = [span.read() for span in causal["spans"]]
        self._unread.clear()
        return self._bundles

    # ------------------------------------------------------------- stream taps

    def route(self, kind: str, name: str) -> Tuple[Any, ...]:
        """The tracer's handler for entries named ``name``: the bound
        ``append`` of its component's ring, made on the component's
        first entry and shared by every name it holds."""
        component = _component(name)
        handlers = self._appends.get((kind, component))
        if handlers is None:
            if kind == "span":
                rings, size = self._spans, MAX_SPANS_PER_COMPONENT
            else:
                rings, size = self._records, MAX_RECORDS_PER_COMPONENT
            ring = rings[component] = deque(maxlen=size)
            handlers = self._appends[kind, component] = (ring.append,)
        return handlers

    # ---------------------------------------------------------------- capture

    def causal_slice(
        self, trace_id: Any, spans=(), records=()
    ) -> Tuple[List[Any], List[Dict[str, Any]]]:
        """Everything in the rings belonging to one operation, plus the
        earlier ``spans`` / ``records`` the rings have evicted since.

        A span belongs if its ``trace_id`` attribute matches — which
        includes the operation root itself (stamped at creation), every
        phase span, RPC span and NF-side apply/flush span the operation
        caused, and the ``nf.drop`` spans of the packets its rules
        dropped; a record belongs via its ``trace_id`` field.
        """
        spans = {id(span): span for span in spans}
        spans.update(
            (id(span), span) for ring in self._spans.values() for span in ring
            if span.attrs.get("trace_id") == trace_id
        )
        records = {id(record): record for record in records}
        records.update(
            (id(record), record)
            for ring in self._records.values() for record in ring
            if record.get("trace_id") == trace_id
        )
        return (
            sorted(spans.values(), key=lambda s: (s.start, s.span_id)),
            sorted(records.values(), key=lambda r: r.get("time_ms", 0.0)),
        )

    def _hold(self, bundle: Dict[str, Any], spans, records) -> None:
        causal = bundle["causal_slice"] = {"spans": spans, "records": records}
        self._unread.append(causal)

    def capture(
        self,
        obs,
        reason: str,
        trace_id: Any,
        kind: Optional[str] = None,
        detail: str = "",
        violation=None,
    ) -> None:
        """Freeze a post-mortem bundle for one operation.

        Deduplicates per (cause, operation): a lossy baseline dropping
        50 packets yields one bundle, not 50.
        """
        cause = violation.check if violation is not None else reason
        key = (cause, trace_id)
        if key in self._captured:
            return
        self._captured.add(key)
        bundle = {
            "reason": reason,
            "time_ms": obs.tracer.now,
            "trace_id": trace_id,
            "kind": kind,
            "detail": detail,
            "violation": violation.to_dict() if violation is not None else None,
            "buffers": {
                component: {
                    "spans": len(self._spans.get(component, ())),
                    "records": len(self._records.get(component, ())),
                }
                for component in sorted(
                    set(self._spans) | set(self._records)
                )
            },
            "metrics": obs.metrics.snapshot(),
        }
        spans, records = self.causal_slice(trace_id)
        self._hold(bundle, spans, records)
        self._bundles.append(bundle)
        if violation is not None:
            self._running.setdefault(trace_id, []).append(
                (bundle, spans, records)
            )

    def complete(self, trace_id: Any) -> None:
        """The operation ``trace_id`` ended: each violation bundle frozen
        while it ran takes the operation's whole slice."""
        for bundle, spans, records in self._running.pop(trace_id, ()):
            self._hold(bundle, *self.causal_slice(trace_id, spans, records))


def render_bundle(bundle: Dict[str, Any], width: int = 48) -> str:
    """Human-readable dump of one flight-recorder bundle."""
    lines = [
        "flight-recorder bundle: reason=%s op=%s(#%s) at %.3f ms"
        % (
            bundle.get("reason"),
            bundle.get("kind"),
            bundle.get("trace_id"),
            bundle.get("time_ms", 0.0),
        ),
    ]
    if bundle.get("detail"):
        lines.append("  detail: %s" % bundle["detail"])
    violation = bundle.get("violation")
    if violation:
        lines.append(
            "  violation: %s flow=%s spans=%s — %s"
            % (
                violation.get("check"),
                violation.get("flow"),
                ",".join(str(s) for s in violation.get("span_ids", [])),
                violation.get("detail"),
            )
        )
    causal = bundle.get("causal_slice") or {}
    spans = causal.get("spans") or []
    records = causal.get("records") or []
    lines.append(
        "  causal slice: %d spans, %d records" % (len(spans), len(records))
    )
    for span in spans:
        start = span.get("start_ms", 0.0)
        end = span.get("end_ms")
        lines.append(
            "    span #%-4s %-28s %9.3f ..%9.3f ms"
            % (
                span.get("span_id"),
                span.get("name"),
                start,
                start if end is None else end,
            )
        )
    for record in records:
        extras = ", ".join(
            "%s=%s" % (k, v)
            for k, v in sorted(record.items())
            if k not in ("name", "time_ms", "trace_id")
        )
        lines.append(
            "    rec  %-33s %9.3f ms  %s"
            % (record.get("name"), record.get("time_ms", 0.0), extras)
        )
    buffers = bundle.get("buffers") or {}
    if buffers:
        lines.append(
            "  rings: "
            + ", ".join(
                "%s=%ds/%dr" % (c, b.get("spans", 0), b.get("records", 0))
                for c, b in sorted(buffers.items())
            )
        )
    return "\n".join(lines)
