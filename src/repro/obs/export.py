"""The in-memory span/record exporter and the timeline renderer.

Tests, the CLI and the conformance kit introspect finished spans in
memory; :func:`repro.obs.audit.write_trace` dumps them as a
``.trace.jsonl`` that can be diffed, replayed or post-processed offline.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.obs.span import Span


class InMemoryExporter:
    """Keeps every finished span and point record, in completion order.

    Both lists grow without bound; a run that needs bounded retention
    arms the :class:`~repro.obs.recorder.FlightRecorder` (``audit=True``).
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.records: List[Dict[str, Any]] = []
        #: The exporter protocol (``export_span(span)`` /
        #: ``export_record(record)``), bound straight to the stores'
        #: ``append``: storing an entry runs no Python frame.
        self.export_span: Callable[[Span], None] = self.spans.append
        self.export_record: Callable[[Dict[str, Any]], None] = \
            self.records.append

    # ------------------------------------------------------------------ query

    def find(self, name: str) -> List[Span]:
        """Finished spans with this exact name, ordered by start time."""
        return sorted(
            (s for s in self.spans if s.name == name),
            key=lambda s: (s.start, s.span_id),
        )

    def roots(self) -> List[Span]:
        """Finished spans with no parent, ordered by start time."""
        return sorted(
            (s for s in self.spans if s.parent_id is None),
            key=lambda s: (s.start, s.span_id),
        )

    def children_of(self, span: Span) -> List[Span]:
        """Direct children of ``span``, ordered by start time."""
        return sorted(
            (s for s in self.spans if s.parent_id == span.span_id),
            key=lambda s: (s.start, s.span_id),
        )


def render_timeline(
    spans: List[Span], width: int = 48, clip_to: Optional[str] = None
) -> str:
    """ASCII gantt of a span forest, one line per span.

    Each line shows the span's tree position, its [start..end] window in
    simulated milliseconds, and a proportional bar. ``clip_to`` limits
    the rendering to roots with that name (e.g. ``"move"``) and their
    descendants.
    """
    finished = [s for s in spans if s.finished]
    if not finished:
        return "(no finished spans)"
    roots = sorted(
        (s for s in finished if s.parent_id is None),
        key=lambda s: (s.start, s.span_id),
    )
    if clip_to is not None:
        roots = [s for s in roots if s.name == clip_to]
        if not roots:
            return "(no finished %r spans)" % clip_to

    by_parent: Dict[int, List[Span]] = {}
    for span in finished:
        if span.parent_id is not None:
            by_parent.setdefault(span.parent_id, []).append(span)
    for children in by_parent.values():
        children.sort(key=lambda s: (s.start, s.span_id))

    ordered: List[Any] = []

    def walk(span: Span, depth: int) -> None:
        ordered.append((span, depth))
        for child in by_parent.get(span.span_id, []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)

    t0 = min(s.start for (s, _d) in ordered)
    t1 = max(s.end for (s, _d) in ordered)
    extent = max(t1 - t0, 1e-9)
    label_width = max(len("  " * d + s.name) for (s, d) in ordered)

    lines = []
    for span, depth in ordered:
        left = int(round((span.start - t0) / extent * width))
        right = int(round((span.end - t0) / extent * width))
        bar = " " * left + "#" * max(right - left, 1)
        label = ("  " * depth + span.name).ljust(label_width)
        lines.append(
            "%s  %9.1f ..%9.1f ms  |%s|"
            % (label, span.start, span.end, bar.ljust(width + 1))
        )
    return "\n".join(lines)
