"""Controller-side southbound API client (§4.2–4.3).

:class:`NFClient` is how the controller talks to one NF instance. Each
call is an RPC over a pair of control channels (request and response
directions). Message sizes are those of the JSON wire form, computed
from field lengths (:class:`repro.nf.protocol.Request`; a chunk, filter
or flowid is encoded once and its length kept) and pinned against the
encoding by ``tests/test_southbound.py`` — so moving many or bulky
chunks costs proportionally more, as in the prototype.

Method names follow the paper's API:
``get_perflow`` / ``put_perflow`` / ``del_perflow``,
``get_multiflow`` / ``put_multiflow`` / ``del_multiflow``,
``get_allflows`` / ``put_allflows``, and
``enable_events`` / ``disable_events``. Every call returns a
:class:`~repro.sim.core.Event` that triggers with the result once the
operation (including NF-side processing time) completes. Callers that
hold a :class:`~repro.nf.state.Scope` use the scope-keyed ``get`` /
``put`` / ``delete``, which dispatch to those methods by name.

``get_*`` accept a ``stream`` callback: when provided, the NF ships each
chunk to the controller the moment it is serialized instead of batching
the full result — the parallelizing optimization of §5.1.3.
``lock_per_chunk`` enables late locking for the early-release
optimization. ``stream_frame`` is the §8.3 batching variant: chunks
still leave the NF as they serialize, but they coalesce into multi-chunk
frames on the wire (via the channel's :class:`~repro.net.channel.
BatchConfig`) and the callback receives each frame's chunk list in one
call — one controller handling cost per frame instead of per chunk.

Every RPC of this stub and of the switch's (:class:`~repro.controller.
forwarding.SwitchClient`) runs one lifecycle, :meth:`SouthboundStub._call`:
a completion event, an ``sb.<op>`` / ``sw.<kind>`` span opened at request
time and closed (with its round-trip and retry metrics) when the response
lands, and the request shipped one of two ways. Classic: a single send.
Reliable (``reliable=True``, switched on whenever a
:class:`~repro.faults.FaultPlan` is installed): the request carries an id
from the stub's counter, is resent under a per-call timeout with capped
exponential backoff, and the peer's :class:`~repro.net.channel.AtMostOnce`
table (behind :meth:`~repro.nf.base.NetworkFunction.rpc_deliver`) runs
it once and answers replays from the memoized response, so a retried
``put_perflow`` never double-applies state. Streamed get responses
additionally reconcile the chunk list in the final response against the
chunks that actually arrived and NACK the NF to retransmit any the
channel lost. A call whose retry budget is exhausted fails its event
with :class:`SouthboundTimeout`, which the northbound operations turn
into a clean abort. Without a fault plan message sizes, channel timing
and the event timeline are exactly the classic ones.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from functools import lru_cache, partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.flowspace.filter import Filter, FlowId
from repro.net.channel import (
    RPC_MAX_ATTEMPTS,
    BatchConfig,
    ControlChannel,
    rpc_timeout_ms,
)
from repro.nf.base import NetworkFunction
from repro.nf.events import EventAction
from repro.nf import protocol
from repro.nf.state import Scope, StateChunk, chunks_wire_bytes
from repro.obs import NULL_OBS
from repro.obs.span import NULL_SPAN
from repro.sim.core import Event, Simulator

#: Size of small fixed messages (acks, list requests, bodiless requests).
REQUEST_BYTES = 128
#: Per-chunk framing overhead when chunks travel in a response.
CHUNK_OVERHEAD_BYTES = 74
#: Extra request bytes for a request id on calls without a JSON body.
REQUEST_ID_BYTES = 10
#: Calibrated controller↔NF (and NF↔NF) control-channel propagation delay.
NF_CHANNEL_LATENCY_MS = 1.0


class SouthboundError(Exception):
    """A southbound RPC failed for control-plane reasons.

    ``nf_name`` identifies the unreachable instance so an aborting
    operation can pick the correct recovery direction (restore to the
    source when the destination is unreachable, and vice versa).
    """

    def __init__(self, message: str, nf_name: str) -> None:
        super().__init__(message)
        self.nf_name = nf_name


class SouthboundTimeout(SouthboundError):
    """A southbound RPC exhausted its retry budget without a response."""


@lru_cache(maxsize=None)
def _put_request(count: int) -> protocol.Request:
    """The header of a put of ``count`` chunks (immutable: built once)."""
    return protocol.Request("put", chunks=count)


def _finish_span(span: Any, event: Event) -> None:
    """Close ``span`` on the event that ends it; a failure marks it."""
    span.__exit__(None, event.exception, None)


class Call:
    """One RPC in flight: what its peer-side body answers through."""

    __slots__ = ("stub", "done", "rid", "span", "trace_id", "retries",
                 "op", "issued_at")

    def __init__(self, stub: "SouthboundStub", done: Event) -> None:
        self.stub = stub
        self.done = done
        #: Request id and resends so far; ``None`` on a single-send call.
        self.rid: Optional[int] = None
        self.retries: Optional[int] = None
        self.span: Any = NULL_SPAN
        #: The operation this call was issued for (None when untraced):
        #: what the peer stamps on the records and rules the call causes.
        self.trace_id: Optional[int] = None
        #: RPC name and issue time, kept for :meth:`close` (traced only).
        self.op = ""
        self.issued_at = 0.0

    def close(self, done: Event) -> None:
        """A traced call's end: its RPC metrics, then its span."""
        stub = self.stub
        stub._note_done(self.op, stub.sim.now - self.issued_at, self.retries)
        _finish_span(self.span, done)

    def settle(self, value: Any = None) -> None:
        """Trigger ``done`` unless a duplicate response beat us to it."""
        if not self.done.triggered:
            self.done.trigger(value)

    def settle_fail(self, exc: BaseException) -> None:
        if not self.done.triggered:
            self.done.fail(exc)

    def ack(self, event: Optional[Event] = None) -> None:
        """The peer-side ``event`` settled the request; no response message.

        A request the peer refused (a flow-mod on a full table) fails the
        call with the peer's exception instead of reading as installed.
        """
        if event is not None and event.exception is not None:
            self.settle_fail(event.exception)
        else:
            self.settle()

    def reply(
        self,
        payload: Any = None,
        size: int = REQUEST_BYTES,
        deliver: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Peer-side: ship one response; memoize the resend under the id.

        A replayed request finds the memoized thunk in the peer's
        :class:`~repro.net.channel.AtMostOnce` table and re-sends the
        response instead of re-running the operation.
        """
        stub = self.stub
        deliver = deliver or self.settle
        if self.rid is None:
            stub.from_peer.send(size, deliver, payload)
        elif not stub.peer.failed:
            # (Fail-stop: a dead peer sends nothing; the caller's retry
            # budget expires and the operation aborts on the timeout.)
            resend = partial(stub.from_peer.send, size, deliver, payload)
            resend()
            stub.peer.rpc_complete(self.rid, resend)

    def respond(
        self,
        event: Event,
        size: int = REQUEST_BYTES,
        deliver: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Reply with the outcome of the peer-side process ``event`` ends."""
        if event.exception is None:
            self.reply(event._value, size, deliver)
        else:
            self.reply(event.exception, deliver=self.settle_fail)


class SouthboundStub:
    """The one RPC lifecycle :class:`NFClient` and the switch client share.

    A public RPC method is its peer-side body plus its wire size; the
    rest — completion event, request id, ``sb.<op>`` / ``sw.<kind>`` span
    and metrics, classic-or-reliable shipping, response memoization —
    happens in :meth:`_call` and :class:`Call`. A stub adds only its
    own names: :attr:`SPAN` / :attr:`PEER_LABEL`, its histograms in
    ``_note_done(op, elapsed_ms, retries)`` (a finished spanned call;
    ``retries`` is ``None`` for a single-send one) and the metric names
    of its reliability counts in ``_publish`` (its pull collector).
    """

    #: Span name pattern and the label key that names the peer.
    SPAN: str
    PEER_LABEL: str

    def __init__(
        self,
        sim: Simulator,
        peer: Any,
        to_peer: ControlChannel,
        from_peer: ControlChannel,
        obs: Any,
        reliable: bool,
    ) -> None:
        self.sim = sim
        self.peer = peer
        self.to_peer = to_peer
        self.from_peer = from_peer
        self.obs = obs
        #: True whenever a fault plan is installed: calls carry request
        #: ids, retry on a timeout and are deduplicated at the peer.
        self.reliable = reliable
        self._request_ids = itertools.count(1)
        # Cumulative reliability accounting, per RPC name as published.
        self.attempts = 0
        self.failures = 0
        self.timeouts_by_op: Dict[str, int] = defaultdict(int)
        self.retries_by_op: Dict[str, int] = defaultdict(int)
        obs.add_collector(self._publish)

    @property
    def stats(self) -> Dict[str, int]:
        """The totals (operations diff them into their reports)."""
        return {
            "attempts": self.attempts,
            "retries": sum(self.retries_by_op.values()),
            "timeouts": sum(self.timeouts_by_op.values()),
            "failures": self.failures,
        }

    def _call(
        self,
        op: str,
        name: str,
        body: Callable[[Call], None],
        request: Optional[protocol.Request] = None,
        payload_bytes: int = 0,
        on_fault_only: bool = False,
        spanned: bool = True,
        **attrs: Any,
    ) -> Event:
        """Issue one RPC; the returned event fires with what ``body`` replies.

        ``body(call)`` runs at the peer — at most once however often the
        request is resent — and answers through ``call``. The request
        weighs ``payload_bytes`` plus the size of its ``request``
        message (a fixed frame without one). The span is minted *before*
        the request ships so that a causally bound caller's ``trace_id`` is
        inherited while the proxy's cause window is still open and
        peer-side closures can cite it as their ``cause_id``; retries
        are events inside it, not orphan spans.
        """
        done = Event(self.sim, name)
        call = Call(self, done)
        if spanned and self.obs.enabled:
            span = call.span = self.obs.tracer.span(
                self.SPAN % op, **{self.PEER_LABEL: self.peer.name}, **attrs
            )
            call.trace_id = span.attrs.get("trace_id")
            call.op = op
            call.issued_at = self.sim.now
            done.add_callback(call.close)
        # The one mode question. A fault plan makes every call reliable
        # except ``on_fault_only`` ones (the flow-mods), which stay
        # single-send until the stub's own channel carries an injector.
        if not self.reliable or (
            on_fault_only and self.to_peer.faults is None
            and self.from_peer.faults is None
        ):
            size = REQUEST_BYTES if request is None else request.size()
            self.to_peer.send(payload_bytes + size, body, call)
            return done
        call.rid = next(self._request_ids)
        size = (REQUEST_BYTES + REQUEST_ID_BYTES if request is None
                else request.size(call.rid))
        self._send_until_done(
            op, call, payload_bytes + size, partial(body, call)
        )
        return done

    def _send_until_done(
        self, op: str, call: Call, size: int, run: Callable[[], None]
    ) -> None:
        """The southbound retry loop (schedule: :mod:`repro.net.channel`).

        Each attempt ships the request and arms a timer behind it. A
        timer that expires with ``done`` still pending resends, or fails
        ``done`` with :class:`SouthboundTimeout` once the budget is spent;
        either way the stub's accounting hears of it first.
        """
        done = call.done
        call.retries = 0

        def attempt(number: int) -> None:
            self.attempts += 1
            self.to_peer.send(size, self.peer.rpc_deliver, call.rid, run)
            self.sim.schedule(rpc_timeout_ms(number), expired, number)

        def expired(number: int) -> None:
            if done.triggered:
                return
            final = number + 1 >= RPC_MAX_ATTEMPTS
            self.timeouts_by_op[op] += 1
            if final:
                self.failures += 1
                done.fail(SouthboundTimeout(
                    "%s to %s gave up after %d attempts"
                    % (op, self.peer.name, number + 1),
                    self.peer.name,
                ))
            else:
                call.retries += 1
                self.retries_by_op[op] += 1
                call.span.event("retry", attempt=call.retries)
                attempt(number + 1)

        attempt(0)


class NFClient(SouthboundStub):
    """RPC stub for one NF instance."""

    SPAN = "sb.%s"
    PEER_LABEL = "nf"

    def __init__(
        self,
        sim: Simulator,
        nf: NetworkFunction,
        to_nf: Optional[ControlChannel] = None,
        from_nf: Optional[ControlChannel] = None,
        obs=None,
        reliable: bool = False,
        batch: Optional[BatchConfig] = None,
    ) -> None:
        obs = obs or NULL_OBS
        super().__init__(
            sim, nf,
            to_nf or ControlChannel(sim, name="ctrl->%s" % nf.name, obs=obs),
            from_nf or ControlChannel(sim, name="%s->ctrl" % nf.name, obs=obs),
            obs, reliable,
        )
        self.nf = nf
        self.to_nf = self.to_peer
        self.from_nf = self.from_peer
        if batch is not None:
            # Both directions, so chunk streams and acks coalesce into
            # frames (§8.3 fast path).
            for channel in (self.to_nf, self.from_nf):
                if channel.batching is None:
                    channel.batching = batch
        #: Streamed chunks NACKed and retransmitted.
        self.chunks_recovered = 0
        #: Completion-event name of every put (one is made per chunk).
        self._put_name = "put@%s" % nf.name
        #: (RPC name, retried) -> its bound ``sb.*`` series.
        self._rpc_metrics: Dict[Tuple[str, bool], Tuple[Any, ...]] = {}

    @property
    def name(self) -> str:
        return self.nf.name

    def _note_done(
        self, op: str, elapsed_ms: float, retries: Optional[int]
    ) -> None:
        key = (op, retries is not None)
        bound = self._rpc_metrics.get(key)
        if bound is None:
            bound = self._rpc_metrics[key] = self._bind_rpc_metrics(*key)
        retried, rpcs, rpc_ms = bound
        if retried is not None:
            retried.observe(retries)
        rpcs.inc()
        rpc_ms.observe(elapsed_ms)

    def _bind_rpc_metrics(self, op: str, retried: bool) -> Tuple[Any, ...]:
        """The ``sb.*`` series of one RPC name, resolved on its first
        completion (``sb.retries`` only once a call can retry)."""
        metrics = self.obs.metrics
        labels = {"nf": self.nf.name, "op": op}
        return (
            metrics.histogram("sb.retries").bind(**labels) if retried
            else None,
            metrics.counter("sb.rpcs").bind(**labels),
            metrics.histogram("sb.rpc_ms").bind(**labels),
        )

    def _publish(self, reg) -> None:
        nf = self.peer.name
        for op, count in self.timeouts_by_op.items():
            reg.publish("sb.timeouts", count, nf=nf, op=op)
        for op, count in self.retries_by_op.items():
            reg.publish("sb.retries_total", count, nf=nf, op=op)
        reg.publish("sb.chunks_recovered", self.chunks_recovered, nf=nf)

    def _nf_side_span(self, name: str, rpc_span: Any, **attrs) -> Any:
        """NF-side span causally chained to the RPC that requested it.

        The NF applies/flushes after the request crossed the channel,
        so the tracer's cause window is long closed — the causal link
        is stamped explicitly from the RPC span instead.
        """
        if rpc_span.span_id is None:
            return NULL_SPAN
        trace_id = rpc_span.attrs.get("trace_id")
        if trace_id is not None:
            attrs["trace_id"] = trace_id
        attrs["cause_id"] = rpc_span.span_id
        return self.obs.tracer.span(name, nf=self.nf.name, **attrs)

    # ------------------------------------------------------------------- get

    def _get(
        self,
        scope: Scope,
        flt: Filter,
        stream: Optional[Callable[[StateChunk], None]],
        lock_per_chunk: bool,
        lock_silent: bool = False,
        compress: bool = False,
        raw_stream: Optional[Callable[[StateChunk], None]] = None,
        stream_frame: Optional[Callable[[List[StateChunk]], None]] = None,
    ) -> Event:
        """``raw_stream`` receives chunks NF-side, with no channel hop:
        the caller ships them itself (peer-to-peer transfer, paper
        footnote 10). ``stream_frame`` receives controller-side chunk
        *lists*, one per coalesced wire frame (§8.3 batching); without
        an active batching config it degrades to one-chunk frames.
        ``stream``/``raw_stream``/``stream_frame`` are mutually
        exclusive."""
        streamed = stream is not None or stream_frame is not None
        #: Streamed chunks that actually landed controller-side; lost or
        #: duplicated chunk messages are reconciled against this. (A
        #: chunk hashes and compares by identity.)
        received: set = set()

        def deliver_fresh(chunks: List[StateChunk]) -> None:
            if stream_frame is not None:
                stream_frame(chunks)
            else:
                for chunk in chunks:
                    stream(chunk)

        def stream_recv(chunk: StateChunk) -> None:
            if chunk in received:
                return  # duplicated or already-recovered chunk
            received.add(chunk)
            if stream_frame is None:
                stream(chunk)
            else:
                stream_frame([chunk])

        def frame_recv(chunks: List[StateChunk]) -> None:
            # One coalesced frame of chunks. A replayed frame has
            # already been deduplicated whole at the channel layer; this
            # per-chunk filter additionally drops chunks recovered via a
            # NACK round that raced a late original.
            fresh = [c for c in chunks if c not in received]
            received.update(fresh)
            if fresh:
                deliver_fresh(fresh)

        def stream_back(chunk: StateChunk) -> None:
            # NF-side shipping. With frames requested and batching
            # active, chunks join the channel's pending frame and are
            # handed to frame_recv a whole frame at a time.
            size = chunk.wire_size_bytes + CHUNK_OVERHEAD_BYTES
            if stream_frame is not None and self.from_nf.batching is not None:
                self.from_nf.queue_send(
                    size, stream_recv, chunk, coalesce=frame_recv
                )
            else:
                self.from_nf.send(size, stream_recv, chunk)

        def close_ok(chunks: List[StateChunk]) -> None:
            # Controller-side: the final response names every chunk, so
            # any streamed chunk (or whole dropped frame) the channel
            # ate is detected here and NACKed back to the NF for
            # retransmission before the call completes — the caller
            # then sees exactly-once chunks. Recovery re-ships through
            # stream_back, so retransmissions re-frame at the same
            # granularity as the original stream.
            if done.triggered:
                return
            missing = [c for c in chunks if c not in received]
            if not missing:
                done.trigger(chunks)
                return
            self.chunks_recovered += len(missing)

            def retransmit() -> None:
                for chunk in missing:
                    stream_back(chunk)
                # A plain send flushes the pending recovery frame first
                # (ordering barrier), so close_ok always trails the
                # retransmitted chunks.
                self.from_nf.send(REQUEST_BYTES, close_ok, chunks)

            self.to_nf.send(REQUEST_BYTES, retransmit)

        def at_nf(call: Call) -> None:
            def respond(event: Event) -> None:
                # Streamed chunks already travelled: the response only
                # names them, and close_ok reconciles before it settles.
                bulk = event.ok and not streamed and raw_stream is None
                call.respond(
                    event,
                    REQUEST_BYTES + (chunks_wire_bytes(event.value) if bulk else 0),
                    close_ok if streamed else None,
                )

            if raw_stream is not None:
                nf_stream = raw_stream
            elif streamed:
                nf_stream = stream_back
            else:
                nf_stream = None
            self.nf.sb_get(
                scope,
                flt,
                stream=nf_stream,
                lock_per_chunk=lock_per_chunk,
                lock_silent=lock_silent,
                compress=compress,
                trace_id=call.trace_id,
                cause_id=call.span.span_id,
            ).done.add_callback(respond)

        # (close_ok settles ``done``, so it needs the name.)
        done = self._call(
            "get.%s" % scope.value,
            "get-%s@%s" % (scope.value, self.nf.name),
            at_nf,
            protocol.Request(
                "get%s" % scope.value.capitalize(),
                flt,
                lock_per_chunk=lock_per_chunk,
                compress=compress,
                stream=streamed or raw_stream is not None,
            ),
            filter=str(flt),
            streamed=streamed or raw_stream is not None,
        )
        return done

    def get_perflow(
        self,
        flt: Filter,
        stream: Optional[Callable[[StateChunk], None]] = None,
        lock_per_chunk: bool = False,
        lock_silent: bool = False,
        compress: bool = False,
        raw_stream: Optional[Callable[[StateChunk], None]] = None,
        stream_frame: Optional[Callable[[List[StateChunk]], None]] = None,
    ) -> Event:
        """``getPerflow(filter)``; triggers with ``List[StateChunk]``."""
        return self._get(Scope.PERFLOW, flt, stream, lock_per_chunk,
                         lock_silent, compress, raw_stream, stream_frame)

    def get_multiflow(
        self,
        flt: Filter,
        stream: Optional[Callable[[StateChunk], None]] = None,
        lock_per_chunk: bool = False,
        lock_silent: bool = False,
        compress: bool = False,
        raw_stream: Optional[Callable[[StateChunk], None]] = None,
        stream_frame: Optional[Callable[[List[StateChunk]], None]] = None,
    ) -> Event:
        """``getMultiflow(filter)``; triggers with ``List[StateChunk]``."""
        return self._get(Scope.MULTIFLOW, flt, stream, lock_per_chunk,
                         lock_silent, compress, raw_stream, stream_frame)

    def get_allflows(
        self,
        stream: Optional[Callable[[StateChunk], None]] = None,
        compress: bool = False,
        raw_stream: Optional[Callable[[StateChunk], None]] = None,
        stream_frame: Optional[Callable[[List[StateChunk]], None]] = None,
    ) -> Event:
        """``getAllflows()``; triggers with ``List[StateChunk]``."""
        return self._get(Scope.ALLFLOWS, Filter.wildcard(), stream, False,
                         False, compress, raw_stream, stream_frame)

    def list_flowids(self, scope: Scope, flt: Filter) -> Event:
        """Enumerate flowids of matching state without exporting it.

        Not part of the paper's API; a lightweight helper used by the
        reroute-only baseline (which needs to pin existing flows) and by
        diagnostics. Cost: one request/response of control-message size.
        """
        def at_nf(call: Call) -> None:
            keys = self.nf.state_keys(scope, flt)
            flowids = [key for key in keys if isinstance(key, FlowId)]
            call.reply(flowids, REQUEST_BYTES + 16 * len(flowids))

        return self._call(
            "list.%s" % scope.value, "list@%s" % self.nf.name, at_nf
        )

    # ------------------------------------------------------------------- put

    def _put(self, chunks: List[StateChunk], op: str) -> Event:
        """The request carries ``chunks`` as handed over (no copy): the
        NF applies them later, so the caller must not change the list."""
        count = len(chunks)

        def at_nf(call: Call) -> None:
            apply_span = NULL_SPAN
            if call.span is not NULL_SPAN:
                apply_span = self._nf_side_span(
                    "nf.apply", call.span, chunks=count
                )
            applied = self.nf.sb_put(chunks, call.trace_id).done
            if apply_span is not NULL_SPAN:
                applied.add_callback(partial(_finish_span, apply_span))
            applied.add_callback(call.respond)

        return self._call(
            op, self._put_name, at_nf, _put_request(count),
            chunks_wire_bytes(chunks), chunks=count,
        )

    def put_perflow(self, chunks: List[StateChunk]) -> Event:
        """``putPerflow(multimap<flowid,chunk>)``; triggers when merged."""
        return self._put(chunks, "put.perflow")

    def put_multiflow(self, chunks: List[StateChunk]) -> Event:
        """``putMultiflow(...)``; triggers when merged."""
        return self._put(chunks, "put.multiflow")

    def put_allflows(self, chunks: List[StateChunk]) -> Event:
        """``putAllflows(list<chunk>)``; triggers when merged."""
        return self._put(chunks, "put.allflows")

    # ----------------------------------------------------------------- delete

    def _delete(self, scope: Scope, flowids: Iterable[FlowId]) -> Event:
        ids = list(flowids)

        def at_nf(call: Call) -> None:
            self.nf.sb_delete(scope, ids).done.add_callback(call.respond)

        return self._call(
            "del.%s" % scope.value, "del@%s" % self.nf.name, at_nf,
            protocol.Request("del%s" % scope.value.capitalize(), flowids=ids),
            flowids=len(ids),
        )

    def del_perflow(self, flowids: Iterable[FlowId]) -> Event:
        """``delPerflow(list<flowid>)``."""
        return self._delete(Scope.PERFLOW, flowids)

    def del_multiflow(self, flowids: Iterable[FlowId]) -> Event:
        """``delMultiflow(list<flowid>)``."""
        return self._delete(Scope.MULTIFLOW, flowids)

    # --------------------------------------------------------------- by scope

    def get(self, scope: Scope, flt: Filter, **options: Any) -> Event:
        """The scope's ``get*`` (same keywords). All-flows state has no
        filter and no per-flow locks: both are ignored here, once."""
        if scope is Scope.ALLFLOWS:
            options.pop("lock_per_chunk", None)
            options.pop("lock_silent", None)
            return self.get_allflows(**options)
        return getattr(self, "get_" + scope.tag)(flt, **options)

    def put(self, scope: Scope, chunks: List[StateChunk]) -> Event:
        """The scope's ``put*``."""
        return getattr(self, "put_" + scope.tag)(chunks)

    def delete(self, scope: Scope, flowids: Iterable[FlowId]) -> Event:
        """The scope's ``del*`` (all-flows state has none)."""
        return getattr(self, "del_" + scope.tag)(flowids)

    # ----------------------------------------------------------------- events

    def enable_events(
        self, flt: Filter, action: EventAction, silent: bool = False
    ) -> Event:
        """``enableEvents(filter, action)``; triggers when the rule is live."""
        def at_nf(call: Call) -> None:
            self.nf.sb_enable_events(
                flt, action, silent=silent,
                trace_id=call.trace_id, cause_id=call.span.span_id,
            )
            call.reply()

        return self._call(
            "enableEvents", "enableEvents@%s" % self.nf.name, at_nf,
            protocol.Request("enableEvents", flt, action=action.value),
            action=action.value,
        )

    def drain_barrier(self) -> Event:
        """Fires once the NF's input queue has fully drained.

        The response is sent from the NF's idle notification, *after*
        any events queued packets raised — and it travels the same FIFO
        NF→controller channel, so when this fires every straggler event
        is already at the controller. The offloaded move issues this
        before releasing the switch-local rings, which is what keeps
        controller-buffered stragglers ahead of ring packets in the
        destination's processing order.
        """
        return self._call(
            "drainBarrier", "drainBarrier@%s" % self.nf.name,
            lambda call: self.nf.on_idle(call.reply),
        )

    def _disable(
        self,
        op: str,
        disable: Callable[[Filter], Any],
        flt: Filter,
        request: Optional[protocol.Request] = None,
    ) -> Event:
        def at_nf(call: Call) -> None:
            flush_span = self._nf_side_span("nf.flush", call.span)
            if flush_span.span_id is not None:
                before = self.nf.buffered_packet_count()
            disable(flt)
            if flush_span.span_id is not None:
                flush_span.set(
                    released=before - self.nf.buffered_packet_count()
                )
            flush_span.finish()
            call.reply()

        return self._call(op, "%s@%s" % (op, self.nf.name), at_nf, request)

    def disable_events(self, flt: Filter) -> Event:
        """``disableEvents(filter)``; triggers when the rule is removed."""
        return self._disable(
            "disableEvents", self.nf.sb_disable_events, flt,
            protocol.Request("disableEvents", flt),
        )

    def disable_events_covered(self, flt: Filter) -> Event:
        """Disable every rule whose filter falls under ``flt``.

        One control message that cleans up both a whole-filter rule and
        any per-flow rules late locking created (§5.1.3).
        """
        return self._disable(
            "disableEventsCovered", self.nf.sb_disable_events_covered, flt
        )
