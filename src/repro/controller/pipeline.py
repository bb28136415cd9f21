"""The get → (del) → put state hand-off shared by ``move`` and ``copy``.

:func:`transfer_scope` is the one per-scope transfer loop (serial,
streamed per chunk, or streamed in batched frames);
:class:`WindowedPutPipeline` is the batched form's put side:
windowed get→put pipelining for state transfer (§8.3 fast path).

The classic parallelized transfer issues one ``put`` per streamed chunk
the moment it clears the controller inbox — correct, but every chunk
pays its own southbound RPC. With batching enabled, chunks arrive at
the controller in multi-chunk *frames*; :class:`WindowedPutPipeline`
forwards each frame to the destination as a single ``put`` RPC while
keeping at most ``window`` frames in flight, so the source keeps
streaming while earlier frames are still being applied — a pipelined
hand-off instead of today's lock-step per-chunk one.

On a put failure the pipeline stops issuing queued frames, lets the
in-flight ones settle, and fails its :meth:`drained` event with the
first error so the operation's normal abort recovery runs (queued
frames were already exported from the source; the recovery path
restores them from the operation's export log).
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Any, Callable, Deque, List, Optional

from repro.sim.core import Event, Simulator
from repro.sim.process import AllOf


class WindowedPutPipeline:
    """Forward chunk frames via ``putter`` with bounded in-flight window."""

    def __init__(
        self,
        sim: Simulator,
        putter: Callable[[List[Any]], Event],
        window: int,
        on_frame_done: Optional[Callable[[List[Any]], None]] = None,
    ) -> None:
        self.sim = sim
        self.putter = putter
        self.window = max(1, window)
        #: Called with each frame once its put completed successfully
        #: (hook for early release: flows in an applied frame can be
        #: rerouted before the whole transfer finishes).
        self.on_frame_done = on_frame_done
        self._in_flight = 0
        self._waiting: Deque[List[Any]] = deque()
        self._failure: Optional[BaseException] = None
        self._drained_evt: Optional[Event] = None
        self.frames_submitted = 0
        self.frames_completed = 0
        self.chunks_submitted = 0
        self.max_in_flight = 0

    def submit(self, frame: List[Any]) -> None:
        """Queue one chunk frame for a windowed put."""
        if not frame:
            return
        self.frames_submitted += 1
        self.chunks_submitted += len(frame)
        if self._failure is not None:
            return  # transfer already failing; recovery will restore
        if self._in_flight < self.window:
            self._issue(frame)
        else:
            self._waiting.append(frame)

    def _issue(self, frame: List[Any]) -> None:
        self._in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self._in_flight)
        evt = self.putter(frame)
        evt.add_callback(lambda e, f=frame: self._on_put_done(f, e))

    def _on_put_done(self, frame: List[Any], evt: Event) -> None:
        self._in_flight -= 1
        if evt.ok:
            self.frames_completed += 1
            if self.on_frame_done is not None:
                self.on_frame_done(frame)
        elif self._failure is None:
            self._failure = evt.exception
            self._waiting.clear()
        if self._waiting and self._in_flight < self.window:
            self._issue(self._waiting.popleft())
        self._check_drained()

    def drained(self) -> Event:
        """Event firing once every submitted frame has been put.

        Fails with the first put error if any frame failed. Call after
        the final :meth:`submit` — frames submitted later do not extend
        an already-triggered wait.
        """
        evt = self.sim.event("put-pipeline-drained")
        self._drained_evt = evt
        self._check_drained()
        return evt

    def _check_drained(self) -> None:
        evt = self._drained_evt
        if evt is None or evt.triggered:
            return
        if self._in_flight == 0 and not self._waiting:
            if self._failure is not None:
                evt.fail(self._failure)
            else:
                evt.trigger(self.frames_completed)


def transfer_scope(
    op,
    scope,
    putter: Callable[[List[Any]], Event],
    delete: bool = False,
    on_applied: Optional[Callable[[List[Any]], None]] = None,
    exported: Optional[List[Any]] = None,
    **lock_kwargs: Any,
):
    """Generator: export ``scope`` state from ``op.src``, import via ``putter``.

    ``op`` is the driving operation (its source client and filter,
    ``parallel`` / ``compress`` options, home ``shard``, ``_note_chunk``
    accounting and abort ``_checkpoint``). ``delete`` removes the
    exported state at the source (move; copy leaves it).
    ``on_applied(chunks)`` is called as each streamed put completes
    (move's early release); ``exported`` collects every chunk as it
    reaches the controller (move's restore-on-abort log); ``lock_kwargs``
    (late locking) reach only the streamed getter.

    Three forms: with batching on, chunks arrive in multi-chunk frames
    (one inbox slot per frame) and forward as windowed frame puts, so
    the source keeps streaming while earlier frames apply; otherwise
    the parallelizing optimization streams each chunk through the
    shard's serialized inbox and issues one put per chunk (§8.3); and
    without it the whole scope is one get then one put.
    """
    shard = op.shard
    batching = op.controller.batching
    scope_name = scope.value

    def delete_exported(chunks):
        # (All-flows chunks carry no flowid: nothing to delete.)
        flowids = [c.flowid for c in chunks if c.flowid] if delete else []
        if flowids:
            yield op.src.delete(scope, flowids)

    if not op.parallel:
        chunks = yield op.src.get(scope, op.flt, compress=op.compress)
        for chunk in chunks:
            op._note_chunk(scope_name, chunk)
        if exported is not None:
            exported.extend(chunks)
        yield from delete_exported(chunks)
        yield putter(chunks)
        return

    pipeline: Optional[WindowedPutPipeline] = None
    put_events: List[Event] = []
    if batching is not None:
        pipeline = WindowedPutPipeline(
            op.sim, putter, batching.pipeline_window,
            on_frame_done=on_applied,
        )

        def handle_frame(frame: List[Any]) -> None:
            for chunk in frame:
                op._note_chunk(scope_name, chunk)
            if exported is not None:
                exported.extend(frame)
            pipeline.submit(frame)

        stream = {"stream_frame": functools.partial(
            shard.enqueue_chunks, handle_frame
        )}
    else:
        def handle_chunk(chunk: Any) -> None:
            op._note_chunk(scope_name, chunk)
            if exported is not None:
                exported.append(chunk)
            put_event = putter([chunk])
            if on_applied is not None:
                put_event.add_callback(lambda _evt: on_applied([chunk]))
            put_events.append(put_event)

        stream = {"stream": functools.partial(
            shard.enqueue_chunk, handle_chunk
        )}
    chunks = yield op.src.get(
        scope, op.flt, compress=op.compress, **stream, **lock_kwargs
    )
    yield from delete_exported(chunks)
    yield shard.inbox.drained()
    if pipeline is not None:
        yield pipeline.drained()
    elif put_events:
        yield AllOf(put_events)
    op._checkpoint()
