"""The ``copy`` operation (§5.2.1).

Clones state from one instance to another using the southbound get/put
calls. No forwarding state changes and no events: the source keeps
processing traffic and updating its own copy, so copy alone gives no
consistency — applications achieve *eventual* consistency by re-invoking
copy (on a timer, or from ``notify`` callbacks), and the NF's
``put*`` handlers merge the incoming chunks with local state.
"""

from __future__ import annotations

from typing import Tuple

from repro.flowspace.filter import Filter
from repro.nf.base import NFCrash
from repro.nf.southbound import SouthboundError
from repro.nf.state import Scope
from repro.controller.operation import Operation
from repro.controller.pipeline import transfer_scope
from repro.controller.reports import OperationReport


class CopyOperation(Operation):
    """One in-flight ``copy``; ``done`` fires with the OperationReport."""

    kind = "copy"
    #: Read by :func:`transfer_scope`; only ``move`` offers compression.
    compress = False

    def __init__(
        self,
        controller,
        shard,
        src,
        dst,
        flt: Filter,
        scopes: Tuple[Scope, ...],
        parallel: bool = True,
    ) -> None:
        self.controller = controller
        #: Home shard: its inbox serializes this copy's streamed chunks.
        self.shard = shard
        self.sim = controller.sim
        self.src = src
        self.dst = dst
        self.flt = flt
        self.scopes = scopes
        self.parallel = parallel
        self.report = OperationReport(
            kind="copy",
            guarantee="",
            filter_repr=repr(flt),
            src=src.name,
            dst=dst.name,
        )
        self.done = self.sim.event("copy-done")
        self._abort_requested = None
        #: Chunks whose put at the destination has completed; on abort
        #: this becomes ``report.partial_chunks`` so callers know what
        #: already landed (and must be reconciled or purged) instead of
        #: the delivered state silently lingering with no record.
        self._chunks_delivered = 0
        self.obs = controller.obs
        self.trace = self.obs.operation(
            self.sim,
            self.report,
            "copy",
            filter=repr(flt),
            src=src.name,
            dst=dst.name,
            scopes=",".join(s.value for s in scopes),
            **shard.trace_attrs,
        )
        # Causally bound stubs (pass-throughs while tracing is off):
        # every get/put RPC below inherits this copy's trace_id.
        self.src = self.trace.bind(self.src)
        self.dst = self.trace.bind(self.dst)
        self._sb_stats_at_start = self._sb_stats()
        self.process = self.sim.spawn(self._run(), name="copy-op")

    def _track_put(self, put_event, chunk_count: int):
        """Count chunks whose destination put actually completed."""
        def on_done(evt):
            if evt.ok:
                self._chunks_delivered += chunk_count
        put_event.add_callback(on_done)
        return put_event

    def _abort_target(self) -> str:
        return self.dst.name

    def _run(self):
        self.report.started_at = self.sim.now
        try:
            yield from self._run_scopes()
        except (NFCrash, SouthboundError) as crash:
            self.report.aborted = str(crash)
            self.report.partial_chunks = self._chunks_delivered
            if self._chunks_delivered:
                self.report.notes.append(
                    "%d chunks already delivered to %s before abort"
                    % (self._chunks_delivered, self.dst.name)
                )
        except Exception as exc:
            self.report.aborted = "internal error: %r" % (exc,)
            self.report.finished_at = self.sim.now
            self._finalize_reliability()
            self.trace.finish(aborted=self.report.aborted)
            self.done.fail(exc)
            raise
        self.report.finished_at = self.sim.now
        self._finalize_reliability()
        self.trace.finish(aborted=self.report.aborted)
        self.done.trigger(self.report)
        return self.report

    def _run_scopes(self):
        for scope in self.scopes:
            self._checkpoint()
            getter, putter, _deleter = self._scope_calls(scope)
            with self.trace.phase(
                "scope.%s" % scope.value, mark="copied-%s" % scope.value
            ):
                yield from transfer_scope(
                    self, scope, getter,
                    lambda chunks, _putter=putter: self._track_put(
                        _putter(chunks), len(chunks)
                    ),
                )
