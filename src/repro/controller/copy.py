"""The ``copy`` operation (§5.2.1).

Clones state from one instance to another using the southbound get/put
calls. No forwarding state changes and no events: the source keeps
processing traffic and updating its own copy, so copy alone gives no
consistency — applications achieve *eventual* consistency by re-invoking
copy (on a timer, or from ``notify`` callbacks), and the NF's
``put*`` handlers merge the incoming chunks with local state.
"""

from __future__ import annotations

import functools
from typing import Tuple

from repro.flowspace.filter import Filter
from repro.nf.state import Scope
from repro.controller.operation import Operation, _plan
from repro.controller.pipeline import transfer_scope

#: A copy has one variant: every scope, one after the other.
COPY_PLANS = {"copy": _plan("copy-scopes")}


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
        super().__init__(
            controller, shard, flt, COPY_PLANS["copy"],
            {"scopes": ",".join(s.value for s in scopes)}, src=src, dst=dst,
        )
        self.scopes = scopes
        self.parallel = parallel
        #: Chunks whose put at the destination has completed; on abort
        #: this becomes ``report.partial_chunks`` so callers know what
        #: already landed (and must be reconciled or purged) instead of
        #: the delivered state silently lingering with no record.
        self._chunks_delivered = 0

    def _put_tracked(self, scope: Scope, chunks):
        """Put at the destination, counting chunks that actually land."""
        def on_done(evt):
            if evt.ok:
                self._chunks_delivered += len(chunks)
        put_event = self.dst.put(scope, chunks)
        put_event.add_callback(on_done)
        return put_event

    def _step_copy_scopes(self, parent):
        for scope in self.scopes:
            self._checkpoint()
            with self._phase(
                "scope.%s" % scope.value, "copied-%s" % scope.value, parent
            ):
                yield from transfer_scope(
                    self, scope, functools.partial(self._put_tracked, scope)
                )

    def _recover(self, crash):
        self.report.partial_chunks = self._chunks_delivered
        if self._chunks_delivered:
            self.report.notes.append(
                "%d chunks already delivered to %s before abort"
                % (self._chunks_delivered, self.dst.name)
            )
        yield from ()
