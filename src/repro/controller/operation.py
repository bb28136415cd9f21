"""The unified northbound operation handle and its one driver.

Every northbound call — ``move``, ``copy``, ``share``, the chain calls
and the Split/Merge baseline — returns an :class:`Operation`:

* ``done`` — a :class:`~repro.sim.core.Event` that triggers with the
  :class:`~repro.controller.reports.OperationReport` (or fails with the
  terminal exception); it fires on **every** path;
* ``report`` — the report, or ``None`` until one exists;
* ``guarantee`` — the parsed :class:`~repro.controller.move.Guarantee`
  for moves and chains (a consistency string for shares, ``None`` for
  copies);
* ``filter`` — the flow-space :class:`~repro.flowspace.filter.Filter`
  the operation covers;
* ``abort()`` — request cooperative cancellation; returns ``done``.

The paper's operations (§5, Figure 6) are all one shape — a short
sequence of southbound calls and forwarding updates, with an unwind if
an instance dies — so they share one lifecycle here. A kind declares
*rows* (:func:`_plan`: named steps plus the facts its abort and cleanup
read) and one ``_step_*`` generator per step name; the constructor and
:meth:`Operation._run` below are the only ones there are: checkpoint,
walk the row, clean up; one ladder for the failures an operation
recovers from (the kind's ``_recover``); anything else fails ``done``;
one ``finally`` drops the interests, settles the retry counts and closes
the trace.

:class:`DeferredOperation` is the handle of an operation whose filter
overlaps an in-flight operation's flow space: it is admitted into the
same table and handed back deferred, with the identical surface, so
callers never need to know whether their operation started immediately.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.flowspace.filter import Filter
from repro.net.switch import TableFullError
from repro.nf.base import NFCrash
from repro.nf.southbound import SouthboundError
from repro.nf.state import StateChunk
from repro.controller.reports import OperationReport

#: What an operation unwinds from and still fires ``done`` ok with
#: ``report.aborted`` set: a fail-stopped instance, an unreachable one
#: (or a caller ``abort()``), and a flow-mod the switch refused.
RECOVERABLE = (NFCrash, SouthboundError, TableFullError)


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


def _plan(*steps, unmarked=(), marks=None, **facts):
    """One row of a kind's table.

    ``steps`` is what :meth:`Operation._walk` runs: a string names a
    step (the kind's ``_step_*`` generator, written once); a tuple is a
    wrapper phase around the entries after its name — span-only unless
    ``marks`` maps it to a report mark. ``unmarked`` lists phases this
    row opens span-only where other rows also stamp a report mark
    (pinned by the golden timelines). ``facts`` are what the kind's
    abort, cleanup and callbacks read instead of re-deriving the variant.
    """
    return SimpleNamespace(
        steps=steps, unmarked=unmarked, marks=marks or {}, **facts
    )


class OperationAborted(SouthboundError):
    """Raised inside an operation driver at an abort checkpoint.

    Subclassing :class:`SouthboundError` routes the abort through the
    operations' crash-recovery paths: a move aborted by its caller runs
    the same restore-to-source logic as a destination failure (exported
    chunks return to the source, events are disabled, buffered packets
    flush back), so ``abort()`` never strands state.
    """


class Operation:
    """Base class of every northbound operation: handle and driver.

    A concrete kind validates its own options, hands the shared ones to
    this constructor, and then initialises its private state — the
    driver process spawned here only starts on the next tick. The class
    attributes are documentation-grade defaults so deferred handles
    still present the full surface.
    """

    #: "move" / "copy" / "share" / "chain" / "deferred" / ...
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

    def __init__(
        self,
        controller,
        shard,
        flt: Filter,
        plan,
        trace_attrs: Dict[str, str],
        guarantee: Any = None,
        src=None,
        dst=None,
        instances: Sequence[Any] = (),
        ends: Optional[Tuple[str, str]] = None,
    ) -> None:
        self.controller = controller
        #: Home shard: its inbox serializes this operation's streamed
        #: chunks, and its labels ride the trace.
        self.shard = shard
        self.sim = controller.sim
        self.flt = flt
        #: This variant's row: its steps, and the facts everything reads.
        self.plan = plan
        self.guarantee = guarantee
        endpoints = {} if src is None else {"src": src.name, "dst": dst.name}
        if ends is None:
            ends = (src.name, dst.name)
        self.report = OperationReport(
            kind=self.kind,
            guarantee="" if guarantee is None else guarantee,
            filter_repr=repr(flt),
            src=ends[0],
            dst=ends[1],
        )
        self.done = self.sim.event("%s-done" % self.kind)
        #: Observability bundle shared with the owning controller; phase
        #: marks in :attr:`report` are derived from phase-span closes.
        self.obs = controller.obs
        self.trace = self.obs.operation(
            self.sim, self.report, self.kind,
            filter=repr(flt), **endpoints, **trace_attrs, **shard.trace_attrs
        )
        if self.trace.trace_id is not None:
            self.trace.root.set(op_id=self.trace.trace_id)
        #: Causally bound stubs: southbound RPCs and switch commands
        #: issued through these inherit this operation's ``trace_id``
        #: (plain pass-throughs while tracing is disabled).
        bind = self.trace.bind
        self.src = None if src is None else bind(src)
        self.dst = None if dst is None else bind(dst)
        self.instances = [bind(client) for client in instances]
        self.switch = bind(controller.switch_client)
        #: Event / packet-in interests the steps registered; dropped in
        #: :meth:`_run`'s ``finally`` at the latest.
        self._interest_handles: List[int] = []
        self._sb_stats_at_start = self._sb_stats()
        self.process = self.sim.spawn(self._run(), name="%s-op" % self.kind)

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
        """Which NF an abort masquerades as losing: the destination, so
        a src → dst operation unwinds exactly like a destination failure."""
        return "" if self.dst is None else self.dst.name

    def _checkpoint(self) -> None:
        """Raise :class:`OperationAborted` if an abort was requested."""
        if self._abort_requested is not None:
            raise OperationAborted(
                "aborted: %s" % self._abort_requested, self._abort_target()
            )

    # ------------------------------------------------------------------ driver

    def _run(self):
        report = self.report
        report.started_at = self.sim.now
        if self.src is not None:
            # Baselines of the report's drop and buffered-packet counts.
            self._src_drops_at_start = self.src.nf.packets_dropped_silent
            self._dst_buffered_at_start = len(self.dst.nf.buffered_log)
        failure: Optional[Exception] = None
        try:
            try:
                self._checkpoint()
                yield from self._walk(self.plan.steps, self.trace.root)
                yield from self._cleanup()
            except RECOVERABLE as crash:
                # An instance died or became unreachable past the retry
                # budget, the caller aborted, or the switch refused a
                # rule: surface the abort instead of wedging.
                report.aborted = str(crash)
                report.finished_at = self.sim.now
                if isinstance(crash, TableFullError):
                    # Both instances are alive and reachable, so a
                    # rejected flow-mod unwinds as a caller abort does.
                    crash = OperationAborted(
                        report.aborted, self._abort_target()
                    )
                yield from self._recover(crash)
        except Exception as exc:
            # Anything else is an internal error: fail loudly so callers
            # never hang on an operation that died (the done event
            # carries the exception).
            report.aborted = "internal error: %r" % (exc,)
            report.finished_at = self.sim.now
            failure = exc
        finally:
            self._drop_interests()
            self._finalize_reliability()
            self.trace.finish(aborted=report.aborted)
        if failure is not None:
            self.done.fail(failure)
        else:
            self.done.trigger(report)
        return report

    def _walk(self, steps, parent):
        """Run one plan row: steps in order, wrapper phases nested."""
        for step in steps:
            if isinstance(step, tuple):
                mark = self.plan.marks.get(step[0])
                with self._phase(step[0], mark, parent) as ph:
                    yield from self._walk(step[1:], ph.span)
            else:
                run_step = getattr(self, "_step_" + step.replace("-", "_"))
                yield from run_step(parent)

    def _phase(self, name: str, mark: Optional[str], parent):
        """Open a phase; span-only on the rows that leave it unmarked."""
        if name in self.plan.unmarked:
            mark = None
        return self.trace.phase(name, mark=mark, parent=parent)

    def _cleanup(self):
        """What follows the row on success; stamps ``finished_at`` at the
        point this kind counts as finished."""
        self.report.finished_at = self.sim.now
        yield from ()

    def _recover(self, crash):
        """Unwind after a recoverable failure (``report.aborted`` is set;
        ``crash.nf_name``, when present, names the instance lost)."""
        yield from ()

    def _drop_interests(self) -> None:
        while self._interest_handles:
            self.controller.remove_interest(self._interest_handles.pop())

    # ---- shared by the src -> dst state-transfer operations

    def _sb_stats(self) -> Dict[str, int]:
        """Cumulative retry/timeout counts of the src and dst clients.

        Client stats are shared: concurrent operations on the same
        clients may attribute each other's retries.
        """
        ends = [c for c in (self.src, self.dst) if c is not None]
        return {
            key: sum(client.stats[key] for client in ends)
            for key in ("retries", "timeouts")
        }

    def _finalize_reliability(self) -> None:
        """Add the client deltas to the report's retry/timeout counts."""
        now, at_start = self._sb_stats(), self._sb_stats_at_start
        self.report.retries += now["retries"] - at_start["retries"]
        self.report.timeouts += now["timeouts"] - at_start["timeouts"]

    def _count_src_drops(self) -> None:
        self.report.packets_dropped = (
            self.src.nf.packets_dropped_silent - self._src_drops_at_start
        )

    def _record_packet(self, name: str, packet, where: str) -> None:
        """Buffered/released packet record, tagged with the trace id."""
        self.obs.tracer.record(
            name,
            trace_id=self.trace.trace_id,
            where=where,
            uid=packet.uid,
            flow=packet.flow_key(),
        )

    def _note_chunk(self, scope_name: str, chunk: StateChunk) -> None:
        """Account one exported chunk (report + transfer metrics).

        ``scope_name`` is ``scope.value``, read once per transfer by the
        caller rather than once per chunk here.
        """
        wire_bytes = chunk.wire_size_bytes
        self.report.add_chunk(scope_name, chunk.size_bytes, wire_bytes)
        if self.obs.enabled:
            metrics = self.obs.metrics
            metrics.counter("ctrl.chunks.transferred").inc(1, scope=scope_name)
            metrics.counter("ctrl.chunks.wire_bytes").inc(
                wire_bytes, scope=scope_name
            )


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
