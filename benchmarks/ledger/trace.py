"""Outside-in span tracer for the one traced iteration.

Nothing in ``src/`` knows about this file. :class:`SpanTracer` swaps
the boundary functions :mod:`adapter` names for wrappers that record a
span each — name, start, end, parent — and puts them back afterwards.
``Simulator.schedule`` is wrapped so that every callback handed to the
event loop runs inside a span named after its owning module: time spent
under the loop is attributed too, and the loop itself keeps only what
is left (heap work and dispatch).

Spans live in flat arrays until :meth:`write` dumps them. A span's
*self time* is its duration minus what its children cover. The
wrapper's own bookkeeping is clocked separately (two extra clock reads
per span) and charged to the tracer, not to the span or its parent; it
is reported, together with the time the benchmark's own glue spends
outside any span, as ``unattributed``. Layer self times plus
``unattributed`` therefore add up to the traced iteration exactly. What
stays in the layers is the bare cost of calling through a wrapper,
roughly 0.2 us per span.
"""

from __future__ import annotations

import gc
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

import adapter

_clock = time.perf_counter_ns


class SpanTracer:
    def __init__(self) -> None:
        self.names: List[str] = ["<iteration>"]
        self.metrics: List[str] = [""]
        self._name_ids: Dict[Tuple[str, str], int] = {}
        self._callback_ids: Dict[Any, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.name_id = array("l")
        self.self_ns: List[int] = [0]
        self.calls: List[int] = [0]
        #: Open spans, innermost last: [span index, child ns, child count].
        self._stack: List[List[int]] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        self.missing: List[str] = []
        #: Nanoseconds the wrappers spent on their own bookkeeping.
        self.bookkeeping = [0]
        self.traced_ns = 0
        self.traced_cpu_s = 0.0

    # ------------------------------------------------------------------ spans

    def _id(self, name: str, metric: str) -> int:
        key = (name, metric)
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(name)
            self.metrics.append(metric)
            self.self_ns.append(0)
            self.calls.append(0)
        return nid

    def _spanned(self, nid: int, call: Callable, name_of=None) -> Callable:
        """``call`` recorded as one span per invocation.

        The span is named ``nid``, or ``name_of(first argument)`` when
        given, looked up on the tracer's clock, not the caller's.
        """
        start, end = self.start, self.end
        parent_append, name_append = self.parent.append, self.name_id.append
        start_append, end_append = start.append, end.append
        stack = self._stack
        push, pop = stack.append, stack.pop
        self_ns, calls, bookkeeping = self.self_ns, self.calls, self.bookkeeping
        clock = _clock
        fixed_nid = nid

        def traced(*args, **kwargs):
            entered = clock()
            nid = fixed_nid if name_of is None else name_of(args[0])
            index = len(start)
            parent_append(stack[-1][0])
            name_append(nid)
            start_append(0)
            end_append(0)
            frame = [index, 0, 0]
            push(frame)
            t0 = clock()
            try:
                return call(*args, **kwargs)
            finally:
                t1 = clock()
                pop()
                start[index] = t0
                end[index] = t1
                duration = t1 - t0
                self_ns[nid] += duration - frame[1]
                calls[nid] += 1
                outer = stack[-1]
                outer[2] += 1
                # The parent is charged entry-to-exit, so bookkeeping
                # lands in neither span: span 0 collects it instead.
                gross = clock() - entered
                outer[1] += gross
                bookkeeping[0] += gross - duration

        return traced

    def wrap(self, fn: Callable, name: str, metric: str) -> Callable:
        return self._spanned(self._id(name, metric), fn)

    def _root(self, fn: Callable[[], Any]):
        """Run ``fn`` as span 0; returns (value, cpu seconds, wall ns)."""
        self.parent.append(-1)
        self.name_id.append(0)
        self.start.append(0)
        self.end.append(0)
        frame = [0, 0, 0]
        self._stack.append(frame)
        cpu0 = time.process_time()
        t0 = _clock()
        try:
            value = fn()
        finally:
            t1 = _clock()
            cpu = time.process_time() - cpu0
            self._stack.pop()
            self.start[0], self.end[0] = t0, t1
            self.self_ns[0] = t1 - t0 - frame[1]
        return value, cpu, t1 - t0

    # --------------------------------------------------------------- patching

    def _patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        found = adapter.resolve(target)
        if found is None:
            self.missing.append(target)
            return
        owner, attr, fn = found
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    def install(self) -> None:
        """Swap in the wrappers; :meth:`uninstall` puts the originals back."""
        for target, metric in adapter.TARGETS:
            label = target.partition(":")[2]
            self._patch(target, lambda fn, n=label, m=metric: self.wrap(fn, n, m))
        for target, metric in adapter.NF_CLASSES:
            cls = target.partition(":")[2]
            handlers = [("process_packet", metric)] + [
                (handler, adapter.NF_STATE_METRIC)
                for handler in adapter.NF_STATE_HANDLERS
            ]
            for handler, handler_metric in handlers:
                self._patch(
                    "%s.%s" % (target, handler),
                    lambda fn, n="%s.%s" % (cls, handler), m=handler_metric:
                        self.wrap(fn, n, m),
                )
        for target, keyword, position in adapter.CALLBACK_ARGS:
            self._patch(
                target,
                lambda fn, k=keyword, p=position: self._wrap_callback_arg(fn, k, p),
            )
        self._patch(adapter.SCHEDULE, self._wrap_schedule)

    def _wrap_callback_arg(self, fn: Callable, keyword: str, position: int):
        def label(callback):
            return self.wrap(callback, *adapter.callback_label(callback))

        def passing_traced_callback(*args, **kwargs):
            if keyword in kwargs:
                kwargs[keyword] = label(kwargs[keyword])
            elif len(args) > position:
                args = list(args)
                args[position] = label(args[position])
            return fn(*args, **kwargs)

        return passing_traced_callback

    def _wrap_schedule(self, schedule: Callable) -> Callable:
        """Span ``schedule`` itself and label the callback it is given.

        The event loop ends up calling ``dispatch(callback, args)``: one
        span named after the module that owns the callback's code.
        """
        ids = self._callback_ids

        def name_of(callback) -> int:
            key = adapter.callback_key(callback)
            nid = ids.get(key)
            if nid is None:
                nid = ids[key] = self._id(*adapter.callback_label(callback))
            return nid

        def apply(callback, args):
            callback(*args)

        dispatch = self._spanned(0, apply, name_of)

        def labelling_schedule(sim, delay, callback, *args):
            return schedule(sim, delay, dispatch, callback, args)

        return self.wrap(
            labelling_schedule, "Simulator.schedule", adapter.SCHEDULE_METRIC
        )

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    # -------------------------------------------------------------- one trace

    def timed(self, fn: Callable[[], Any]):
        """Drop-in for ``workloads.timed``: ``fn`` runs wrapped, as span 0."""
        gc.collect()
        self.install()
        try:
            value, cpu, wall_ns = self._root(fn)
        finally:
            self.uninstall()
        self.traced_ns, self.traced_cpu_s = wall_ns, cpu
        return value, cpu, wall_ns / 1e9

    def self_time_ns(self) -> Dict[str, int]:
        """Self time per metric, over every span but span 0."""
        totals: Dict[str, int] = {}
        for nid in range(1, len(self.names)):
            metric = self.metrics[nid]
            totals[metric] = totals.get(metric, 0) + self.self_ns[nid]
        return totals

    def call_counts(self) -> Dict[str, int]:
        return {
            self.names[nid]: self.calls[nid]
            for nid in range(1, len(self.names)) if self.calls[nid]
        }

    def write(self, path: str) -> int:
        """One JSON object per span: id, name, start/end ns, parent id."""
        names = self.names
        origin = self.start[0] if len(self.start) else 0
        with open(path, "w") as out:
            for index in range(len(self.start)):
                out.write(
                    '{"id":%d,"name":"%s","start_ns":%d,"end_ns":%d,"parent":%d}\n'
                    % (
                        index, names[self.name_id[index]],
                        self.start[index] - origin, self.end[index] - origin,
                        self.parent[index],
                    )
                )
        return len(self.start)
