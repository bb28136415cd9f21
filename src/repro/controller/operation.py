"""The unified northbound operation handle.

Every northbound call — ``move``, ``copy``, ``share`` — used to return
its own concrete type, and a conflicting move returned a private
``_DeferredMove``; callers had to branch on which one they got.
:class:`Operation` is the public protocol they all implement now:

* ``done`` — a :class:`~repro.sim.core.Event` that triggers with the
  :class:`~repro.controller.reports.OperationReport` (or fails with the
  terminal exception);
* ``report`` — the report, or ``None`` until one exists;
* ``guarantee`` — the parsed :class:`~repro.controller.move.Guarantee`
  for moves (a consistency string for shares, ``None`` for copies);
* ``filter`` — the flow-space :class:`~repro.flowspace.filter.Filter`
  the operation covers;
* ``abort()`` — request cooperative cancellation; returns ``done``.

:class:`DeferredOperation` is the public replacement for
``_DeferredMove``: any operation whose filter overlaps an in-flight
operation's flow space is admitted into the same table and handed back
deferred, with the identical handle surface, so callers never need to
know whether their operation started immediately.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.flowspace.filter import Filter
from repro.nf.southbound import SouthboundError
from repro.nf.state import Scope, StateChunk
from repro.controller.reports import OperationReport


def when_all(events: List[Any], then: Callable[[], None]) -> None:
    """Call ``then()`` once every event has fired (at once if none pend)."""
    remaining = len(events)
    if not remaining:
        then()
        return

    def one_fired(_evt) -> None:
        nonlocal remaining
        remaining -= 1
        if not remaining:
            then()

    for event in events:
        event.add_callback(one_fired)


class OperationAborted(SouthboundError):
    """Raised inside an operation driver at an abort checkpoint.

    Subclassing :class:`SouthboundError` routes the abort through the
    operations' existing crash-recovery paths: a move aborted by its
    caller runs the same restore-to-source logic as a destination
    failure (exported chunks return to the source, events are disabled,
    buffered packets flush back), so ``abort()`` never strands state.
    """


class Operation:
    """Base class / protocol for every northbound operation handle.

    Concrete operations (:class:`~repro.controller.move.MoveOperation`,
    :class:`~repro.controller.copy.CopyOperation`,
    :class:`~repro.controller.share.ShareOperation`) set ``done``,
    ``report``, ``flt``, and ``guarantee`` in their constructors; the
    class attributes here are documentation-grade defaults so partially
    constructed or deferred handles still present the full surface.
    """

    #: "move" / "copy" / "share" / "deferred".
    kind: str = "operation"
    #: Event triggering with the OperationReport on completion.
    done: Any = None
    #: The OperationReport (None until the operation has one).
    report: Optional[OperationReport] = None
    #: Parsed guarantee (moves), consistency string (shares), or None.
    guarantee: Any = None
    #: Flow-space filter the operation covers.
    flt: Optional[Filter] = None
    #: Abort reason once requested (drivers poll via _checkpoint()).
    _abort_requested: Optional[str] = None

    @property
    def filter(self) -> Optional[Filter]:
        return self.flt

    def abort(self, reason: str = "aborted by caller"):
        """Request cooperative cancellation; returns the ``done`` event.

        The operation driver notices at its next checkpoint and unwinds
        through its abort-recovery path; the eventual report carries
        ``aborted``. Aborting an already finished operation is a no-op.
        """
        if self.done is not None and not self.done.triggered:
            if self._abort_requested is None:
                self._abort_requested = reason
        return self.done

    def _abort_target(self) -> str:
        """Which NF the abort should masquerade as losing (overridden)."""
        return ""

    def _checkpoint(self) -> None:
        """Raise :class:`OperationAborted` if an abort was requested."""
        if self._abort_requested is not None:
            raise OperationAborted(
                "aborted: %s" % self._abort_requested, self._abort_target()
            )

    # ---- shared by the src -> dst state-transfer operations (move, copy)

    def _sb_stats(self) -> Dict[str, int]:
        """Cumulative retry/timeout counts of the two clients involved.

        Client stats are shared: concurrent operations on the same
        clients may attribute each other's retries.
        """
        return {
            key: self.src.stats[key] + self.dst.stats[key]
            for key in ("retries", "timeouts")
        }

    def _finalize_reliability(self) -> None:
        """Fill the report's retry/timeout counts from client deltas."""
        now = self._sb_stats()
        self.report.retries = now["retries"] - self._sb_stats_at_start["retries"]
        self.report.timeouts = (
            now["timeouts"] - self._sb_stats_at_start["timeouts"]
        )

    def _note_chunk(self, scope: Scope, chunk: StateChunk) -> None:
        """Account one exported chunk (report + transfer metrics)."""
        self.report.add_chunk(
            scope.value, chunk.size_bytes, chunk.wire_size_bytes
        )
        if self.obs.enabled:
            metrics = self.obs.metrics
            metrics.counter("ctrl.chunks.transferred").inc(1, scope=scope.value)
            metrics.counter("ctrl.chunks.wire_bytes").inc(
                chunk.wire_size_bytes, scope=scope.value
            )

    def _scope_calls(self, scope: Scope):
        """Southbound (getter, putter, deleter) for one state scope.

        All-flows state has no filter and no delete; its getter takes
        (and ignores) the filter and lock arguments so the transfer loop
        calls every scope the same way.
        """
        if scope is Scope.PERFLOW:
            return (self.src.get_perflow, self.dst.put_perflow,
                    self.src.del_perflow)
        if scope is Scope.MULTIFLOW:
            return (self.src.get_multiflow, self.dst.put_multiflow,
                    self.src.del_multiflow)

        def get_allflows(flt, stream=None, lock_per_chunk=False,
                         lock_silent=False, compress=False, raw_stream=None,
                         stream_frame=None):
            return self.src.get_allflows(
                stream=stream, compress=compress, raw_stream=raw_stream,
                stream_frame=stream_frame,
            )

        return (get_allflows, self.dst.put_allflows, None)


class DeferredOperation(Operation):
    """An admitted-but-waiting operation with the full handle surface.

    Created by the controller's admission step when a new operation's
    filter overlaps flow space in flight on its home shard. The deferred filter is itself
    *reserved* in the admission table at submission time, so any later
    operation overlapping it queues behind this one — deferral is FIFO
    per overlapping flow space, and a stream of newcomers can no longer
    starve an already-waiting operation by leapfrogging it. Once every
    conflicting operation finishes, the deferred operation re-checks
    admission (excluding its own reservation) and launches; its ``done``
    event then mirrors the live operation's, and the reservation holds
    the flow space continuously from submission through completion.
    """

    kind = "deferred"

    def __init__(
        self,
        shard,
        kind: str,
        flt: Filter,
        conflicts: List[Any],
        start: Callable[[], Operation],
        guarantee: Any = None,
    ) -> None:
        self.shard = shard
        self.sim = shard.sim
        self.deferred_kind = kind
        self.flt = flt
        self._start = start
        self._guarantee = guarantee
        self.operation: Optional[Operation] = None
        self._abort_requested = None
        self.done = self.sim.event("deferred-%s-done" % kind)
        # FIFO: reserve our filter NOW. The reservation is released when
        # self.done triggers — after the launched operation completes
        # (its done mirrors into ours) or on abort-while-deferred.
        self._admission_handle = shard._reserve(flt, self.done)
        self._await(conflicts)

    def _await(self, conflicts: List[Any]) -> None:
        when_all(conflicts, lambda: self.sim.schedule(0.0, self._launch))

    def _launch(self) -> None:
        if self.done.triggered:  # aborted while waiting
            return
        # Only wait on entries OLDER than our reservation: newer ones
        # are queued behind us (waiting on our done), and waiting on
        # them back would deadlock; our own reservation is newer than
        # nothing, so `before` also excludes it.
        conflicts = self.shard._conflicting(
            self.flt, before=self._admission_handle
        )
        if conflicts:
            self._await(conflicts)
            return
        self._begin()

    def _begin(self) -> None:
        """Flow space is clear: construct and run the real operation.

        No new reservation here: our standing one already covers the
        filter until self.done (mirroring the live operation's done)
        triggers. Overridden by the cross-shard handshake to interpose
        the ownership transfer.
        """
        operation = self._start()
        self.operation = operation
        if self._abort_requested is not None:
            operation.abort(self._abort_requested)
        operation.done.add_callback(
            lambda evt: self.done.trigger(evt.value)
            if evt.ok else self.done.fail(evt.exception)
        )

    def abort(self, reason: str = "aborted by caller"):
        if self.operation is not None:
            self.operation.abort(reason)
            return self.done
        if self._abort_requested is None and not self.done.triggered:
            self._abort_requested = reason
            report = OperationReport(
                kind=self.deferred_kind,
                guarantee=self._guarantee,
                filter_repr=repr(self.flt),
                started_at=self.sim.now,
                finished_at=self.sim.now,
                aborted="aborted while deferred: %s" % reason,
            )
            self.report_override = report
            self.done.trigger(report)
        return self.done

    @property
    def report(self) -> Optional[OperationReport]:
        if self.operation is not None:
            return self.operation.report
        return getattr(self, "report_override", None)

    @property
    def guarantee(self) -> Any:
        if self.operation is not None:
            return self.operation.guarantee
        return self._guarantee
