"""Simulation-clock spans and the tracer that mints them.

A :class:`Span` is one timed region of an operation — a whole ``move``,
one phase of Figure 6, a single southbound RPC — timestamped with the
*simulated* clock (milliseconds), never wall time. Spans form trees via
``parent_id``, carry free-form attributes (operation id, flow filter,
NF names, guarantee level), and can record point events.

The :class:`Tracer` is the factory. A disabled tracer returns the
shared :data:`NULL_SPAN` from every call and allocates nothing — the
``Span.allocated`` class counter exists so the test suite can assert
this zero-overhead property directly.

Parenting is always explicit (``parent=`` or ``span.child``): the
simulator interleaves many cooperative processes, so an implicit
"current span" stack would attach children to whichever process last
ran. Explicit parents keep the tree deterministic.

Causal linkage crosses component boundaries where structural parenting
cannot: an operation's driver issues southbound RPCs whose spans are
minted inside the client, and the NF applies state long after the
request was sent. Those links travel as the ``trace_id`` / ``cause_id``
*attributes* instead of ``parent_id``: ``trace_id`` names the
operation's root span (constant for everything the operation caused),
``cause_id`` names the immediate causing span. The tracer carries a
``current_cause`` that is only ever set for the duration of a
*synchronous* call (via :class:`CausalProxy`), so interleaved operations
can never steal each other's attribution — the same reasoning that
rules out an implicit parent stack.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple


class Span:
    """One timed, attributed region on the simulated clock."""

    #: Total spans ever constructed in this process; the zero-overhead
    #: guard test asserts this does not grow while tracing is disabled.
    allocated = 0

    __slots__ = (
        "tracer", "name", "span_id", "parent_id", "start", "end",
        "status", "attrs", "events", "payload",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent_id: Optional[int],
        attrs: Dict[str, Any],
    ) -> None:
        Span.allocated += 1
        self.tracer = tracer
        self.name = name
        self.span_id = tracer.next_span_id()
        self.parent_id = parent_id
        self.start = tracer.now
        self.end: Optional[float] = None
        self.status = "ok"
        self.attrs = dict(attrs)
        self.events: List[Tuple[float, str, Dict[str, Any]]] = []
        #: :meth:`to_dict` of the finished span, kept by whoever already
        #: built it (the audit tee) for :func:`~repro.obs.audit.entries_from_obs`.
        self.payload: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ record

    def set(self, **attrs: Any) -> "Span":
        """Attach or overwrite attributes."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time annotation inside this span."""
        self.events.append((self.tracer.now, name, attrs))

    def child(self, name: str, **attrs: Any) -> "Span":
        """Open a child span (same tracer, this span as parent)."""
        return self.tracer.span(name, parent=self, **attrs)

    def finish(self) -> "Span":
        """Close the span at the current simulated time (idempotent)."""
        if self.end is None:
            self.end = self.tracer.now
            self.tracer._export(self)
        return self

    # ---------------------------------------------------------------- measure

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration_ms(self) -> float:
        return (self.tracer.now if self.end is None else self.end) - self.start

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly dump (exporters and the CLI renderer use this)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ms": self.start,
            "end_ms": self.end,
            "duration_ms": self.duration_ms,
            "status": self.status,
            "attrs": dict(self.attrs),
            "events": [
                {"time_ms": t, "name": n, "attrs": dict(a)}
                for (t, n, a) in self.events
            ],
        }

    # ------------------------------------------------------------ ctx manager

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc is not None:
            self.status = "error"
            self.attrs.setdefault("error", repr(exc))
        self.finish()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        window = "%.2f..%s" % (
            self.start, "open" if self.end is None else "%.2f" % self.end
        )
        return "<Span #%d %s %s>" % (self.span_id, self.name, window)


class _NullSpan:
    """Shared no-op span returned by disabled tracers.

    Supports the full Span surface (attributes, events, children,
    context-manager use) while allocating nothing per call.
    """

    __slots__ = ()

    name = ""
    span_id = None
    parent_id = None
    start = 0.0
    end = 0.0
    status = "disabled"
    duration_ms = 0.0
    finished = True

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def child(self, name: str, **attrs: Any) -> "_NullSpan":
        return self

    def finish(self) -> "_NullSpan":
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullSpan>"


#: The singleton no-op span handed out while tracing is disabled.
NULL_SPAN = _NullSpan()


class Tracer:
    """Mints spans stamped with the simulated clock.

    ``sim`` is anything with a ``now`` property (the discrete-event
    :class:`~repro.sim.core.Simulator`); span ids are a per-tracer
    counter, so identical runs produce identical ids — the trace itself
    is part of the deterministic output of an experiment.
    """

    def __init__(self, sim=None, exporter=None, enabled: bool = True) -> None:
        self.sim = sim
        self.exporter = exporter
        self.enabled = enabled
        self._span_ids = itertools.count(1)
        #: The span whose synchronous call frame we are currently inside
        #: (set by :class:`CausalProxy` around each proxied call); spans
        #: minted while it is set inherit ``trace_id``/``cause_id``.
        self.current_cause: Optional[Span] = None

    @property
    def now(self) -> float:
        """Current simulated time (0.0 when no clock is attached)."""
        return 0.0 if self.sim is None else self.sim.now

    def next_span_id(self) -> int:
        return next(self._span_ids)

    def span(self, name: str, parent: Any = None, **attrs: Any):
        """Open a span; returns :data:`NULL_SPAN` when disabled.

        A span minted while :attr:`current_cause` is set (i.e. inside a
        :class:`CausalProxy` call) inherits the cause's ``trace_id`` and
        records the cause's span id as its ``cause_id``, unless the
        caller already supplied a ``trace_id`` of its own.
        """
        if not self.enabled:
            return NULL_SPAN
        parent_id = parent.span_id if isinstance(parent, Span) else None
        span = Span(self, name, parent_id, attrs)
        cause = self.current_cause
        if cause is not None and "trace_id" not in span.attrs:
            span.attrs["trace_id"] = cause.attrs.get(
                "trace_id", cause.span_id
            )
            span.attrs["cause_id"] = cause.span_id
        return span

    def bind(self, target: Any, cause: Any) -> Any:
        """Wrap ``target`` so its method calls run under ``cause``.

        Returns ``target`` unchanged when tracing is disabled (or the
        cause is the null span), keeping the disabled path allocation-
        free and byte-identical.
        """
        if not self.enabled or cause is None or cause.span_id is None:
            return target
        return CausalProxy(target, self, cause)

    def record(self, name: str, **attrs: Any) -> None:
        """Emit a standalone point record (no span) to the exporter."""
        if not self.enabled or self.exporter is None:
            return
        record = {"time_ms": self.now, "name": name}
        record.update(attrs)
        self.exporter.export_record(record)

    def _export(self, span: Span) -> None:
        if self.exporter is not None:
            self.exporter.export_span(span)


class CausalProxy:
    """Transparent wrapper that scopes calls to a causing span.

    Operations bind their southbound clients (and the switch client)
    with :meth:`Tracer.bind`; every method call on the proxy then runs
    with :attr:`Tracer.current_cause` set to the operation's root span
    for exactly the duration of the (synchronous) call. RPC request
    issuance happens inside that window, so the spans the clients mint
    pick up the correct ``trace_id``/``cause_id`` even when several
    operations interleave on the simulator — the cause is never left set
    across a yield.

    Attribute reads pass through untouched, so ``client.nf``,
    ``client.stats``, ``client.name`` etc. behave exactly as before.
    """

    __slots__ = ("_target", "_tracer", "_cause")

    def __init__(self, target: Any, tracer: Tracer, cause: Span) -> None:
        self._target = target
        self._tracer = tracer
        self._cause = cause

    def __getattr__(self, name: str) -> Any:
        value = getattr(self._target, name)
        if not callable(value) or isinstance(value, type):
            return value
        tracer = self._tracer
        cause = self._cause

        def scoped(*args: Any, **kwargs: Any) -> Any:
            previous = tracer.current_cause
            tracer.current_cause = cause
            try:
                return value(*args, **kwargs)
            finally:
                tracer.current_cause = previous

        return scoped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<CausalProxy %r cause=#%s>" % (
            self._target, self._cause.span_id
        )
