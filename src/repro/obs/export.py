"""The in-memory span/record exporter and the timeline renderer.

Tests, the CLI and the conformance kit introspect finished spans in
memory; :func:`repro.obs.audit.write_trace` dumps them as a
``.trace.jsonl`` that can be diffed, replayed or post-processed offline.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional

from repro.obs.span import Span


class InMemoryExporter:
    """Keeps finished spans and point records, in completion order.

    By default both lists grow without bound (the right behaviour for
    tests and short CLI runs). ``max_spans`` / ``max_records`` switch
    the corresponding store to a ring that retains only the most recent
    entries, so a long observed run has bounded memory; the query
    helpers work identically on either representation.
    """

    def __init__(
        self,
        max_spans: Optional[int] = None,
        max_records: Optional[int] = None,
    ) -> None:
        self.max_spans = max_spans
        self.max_records = max_records
        self.spans = (
            deque(maxlen=max_spans) if max_spans is not None else []
        )
        self.records = (
            deque(maxlen=max_records) if max_records is not None else []
        )

    def export_span(self, span: Span) -> None:
        self.spans.append(span)

    def export_record(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def clear(self) -> None:
        self.spans.clear()
        self.records.clear()

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
