"""The one trace judge: streaming guarantee auditors.

The paper's guarantees — loss-freedom, order preservation, state
conservation across move/copy, strong-share serialization — and the
no-phantom-state property of Patowary et al. are only as good as their
enforcement. :mod:`repro.harness.properties` is the ground-truth oracle
over the live objects' logs; what the *trace* can tell is told here,
*while the run executes*, from the same span/record stream the
exporters see, so a live deployment and a replayed ``.trace.jsonl``
surface a violated guarantee the same way. (Isolation, about pairs of
operation windows, is read post hoc off the same :class:`OpRegistry` by
:func:`repro.conformance.runner.check_isolation`.)

Design:

* Every auditor is an incremental state machine fed one span payload or
  point record at a time (plain dicts — the exact JSON
  :func:`write_trace` writes, so offline replay exercises the identical
  code path). It declares the entry names it reads (``ON_SPAN`` /
  ``ON_RECORD``), and :meth:`AuditPipeline.route` sends it those and
  no others.
* Memory is O(1) per in-flight packet/flow: a packet enters an
  auditor's pending table when it is captured (dropped-with-event,
  buffered NF-side, or buffered at the controller) and leaves it on its
  exactly-once processing; per-flow order state is one uid.
* A failed check emits a :class:`Violation` naming the operation
  (trace id), the flow, and the offending span ids — enough to pull the
  exact causal slice out of a trace or flight-recorder bundle.
* Auditors never touch the simulator: no scheduling, no clocks beyond
  the timestamps already in the stream. An audited run's timeline is
  bit-identical to an observed-only run.

Operations are discovered from the stream itself, once, by the
:class:`OpRegistry`: an ``op.start`` record opens an entry, the matching
``op.end`` closes it, and a packet- or chunk-level fact belongs to the
operation whose ``trace_id`` it was stamped with where it happened
(:meth:`OpRegistry.attribute`).
"""

from __future__ import annotations

import json
import warnings
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

#: Operation kinds whose window intercepts live packets (and must
#: therefore be loss-free, modulo the baseline's deliberate defect).
PACKET_OPS = ("move", "splitmerge-migrate", "share", "chain")
#: Operation kinds that transfer state chunks (a share by replication,
#: the others counted src -> dst).
CHUNK_OPS = ("move", "copy", "splitmerge-migrate", "share")


class Violation:
    """One failed guarantee check, with enough context to debug it."""

    __slots__ = (
        "check", "time_ms", "trace_id", "op_kind", "nf", "flow",
        "detail", "span_ids",
    )

    def __init__(
        self,
        check: str,
        time_ms: float,
        trace_id: Optional[int],
        op_kind: Optional[str],
        nf: Optional[str] = None,
        flow: Optional[str] = None,
        detail: str = "",
        span_ids: Optional[List[int]] = None,
    ) -> None:
        self.check = check
        self.time_ms = time_ms
        self.trace_id = trace_id
        self.op_kind = op_kind
        self.nf = nf
        self.flow = flow
        self.detail = detail
        self.span_ids = span_ids or []

    def to_dict(self) -> Dict[str, Any]:
        return {
            "check": self.check,
            "time_ms": self.time_ms,
            "trace_id": self.trace_id,
            "op_kind": self.op_kind,
            "nf": self.nf,
            "flow": self.flow,
            "detail": self.detail,
            "span_ids": list(self.span_ids),
        }

    def render(self) -> str:
        where = " @%s" % self.nf if self.nf else ""
        flow = " flow=%s" % self.flow if self.flow else ""
        spans = (
            " spans=%s" % ",".join(str(s) for s in self.span_ids)
            if self.span_ids else ""
        )
        return "[%8.3f ms] %s op=%s(#%s)%s%s: %s%s" % (
            self.time_ms, self.check.upper(), self.op_kind,
            self.trace_id, where, flow, self.detail, spans,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Violation %s>" % self.render()


class _Op:
    """Registry entry for one operation seen on the stream."""

    __slots__ = (
        "trace_id", "kind", "guarantee", "nfs", "src", "dst", "filter",
        "chain_id", "open", "aborted", "started_ms", "closed_ms",
    )

    def __init__(self, record: Dict[str, Any]) -> None:
        self.trace_id = record.get("trace_id")
        self.kind = record.get("kind", "?")
        self.guarantee = record.get("guarantee", "") or record.get(
            "consistency", ""
        )
        self.src = record.get("src")
        self.dst = record.get("dst")
        #: ``repr`` of the operation's filter, as the record carries it.
        self.filter = record.get("filter")
        #: Trace id (as a string) of the chain operation this hop runs under.
        chain_id = record.get("chain_id")
        self.chain_id = None if chain_id is None else str(chain_id)
        #: Every instance the operation involves.
        self.nfs: Set[str] = {n for n in (self.src, self.dst) if n}
        self.nfs.update(
            n for n in str(record.get("instances") or "").split(",") if n
        )
        self.open = True
        self.aborted: Optional[str] = None
        self.started_ms = record.get("time_ms", 0.0)
        self.closed_ms: Optional[float] = None

    @property
    def order_preserving(self) -> bool:
        return "order-preserving" in (self.guarantee or "")

    def involves(self, nf: Optional[str]) -> bool:
        """Whether ``nf`` is one of the operation's instances (permissive
        when either side is unknown)."""
        return nf is None or not self.nfs or nf in self.nfs


class OpRegistry:
    """The operations of a trace, rebuilt from its records — once.

    An ``op.start`` record opens an entry and the ``op.end`` record of
    the same ``trace_id`` closes it (firing the close hooks). Auditors
    look operations up by trace id, or ask :meth:`attribute` which one a
    packet- or chunk-level fact belongs to.
    """

    #: Record name -> handler: the registry's subscriptions (it reads no
    #: span).
    ON_RECORD = {"op.start": "open", "op.end": "close"}
    ON_SPAN: Dict[str, str] = {}

    def __init__(self) -> None:
        self.ops: Dict[int, _Op] = {}
        self._close_hooks: List[Callable[[_Op], None]] = []

    def on_close(self, hook: Callable[[_Op], None]) -> None:
        self._close_hooks.append(hook)

    def observe_record(self, record: Dict[str, Any]) -> None:
        """Feed one record of any name (the registry takes two)."""
        handler = self.ON_RECORD.get(record.get("name"))
        if handler is not None:
            getattr(self, handler)(record)

    def open(self, record: Dict[str, Any]) -> None:
        op = _Op(record)
        if op.trace_id is not None:
            self.ops[op.trace_id] = op

    def close(self, record: Dict[str, Any]) -> None:
        op = self.ops.get(record.get("trace_id"))
        if op is not None and op.open:
            op.open = False
            op.aborted = record.get("aborted")
            op.closed_ms = record.get("time_ms")
            for hook in self._close_hooks:
                hook(op)

    def attribute(
        self,
        fact: Dict[str, Any],
        kinds: Tuple[str, ...],
        end: Optional[str] = None,
    ) -> Optional[_Op]:
        """The operation of ``kinds`` that ``fact`` is part of.

        ``fact`` — a record, or a span's attributes — is stamped where
        it happens with the ``trace_id`` of the RPC that caused it, and
        that is the whole answer: concurrent operations out of (or into)
        one instance are told apart exactly. Only a trace persisted
        before the stamp existed has no such key, and only then is the
        operation guessed: the most recently started open one whose
        ``end`` (``"src"`` / ``"dst"``) is ``nf`` — or, lacking such an
        end, that involves it. Either way only an *open* operation is
        answered: a fact that trails its operation's ``op.end`` (a late
        duplicate put, a stale rule) is outside every window.
        """
        if "trace_id" in fact:
            op = self.ops.get(fact["trace_id"])
            if op is None or not op.open or op.kind not in kinds:
                return None
            return op
        nf = fact.get("nf")
        best: Optional[_Op] = None
        for op in self.ops.values():
            if not op.open or op.kind not in kinds:
                continue
            anchor = getattr(op, end) if end is not None else None
            if anchor is not None:
                if anchor != nf:
                    continue
            elif not op.involves(nf):
                continue
            best = op
        return best


class _Auditor:
    """Base class: an auditor declares the entry names it reads.

    ``ON_SPAN`` / ``ON_RECORD`` map a span / record name to the name of
    the method that takes it; the pipeline routes each entry to exactly
    those handlers, so no handler re-tests the name. They are class
    attributes, so no route is declared per deployment.
    """

    ON_SPAN: Dict[str, str] = {}
    ON_RECORD: Dict[str, str] = {}

    def finalize(self) -> None:
        pass


class LossFreeAuditor(_Auditor):
    """Every packet captured during an operation is processed exactly once.

    State machine per packet uid:

    * ``nf.drop`` span with ``silent=True`` → immediate violation (the
      Split/Merge defect: the packet is gone and nothing recorded it);
    * ``nf.drop`` span with ``silent=False``, ``nf.buffer`` record,
      ``ctrl.buffer`` record, or ``sw.buffer`` record (offloaded move:
      parked in a switch-local XFSM ring) → *pending* (the packet is
      parked somewhere and owed a processing);
    * ``sw.drop`` record (XFSM ring overflow) → immediate violation;
    * ``nf.process`` record for a pending uid → *done*;
    * ``nf.process`` for a done uid → duplicate violation;
    * still pending at :meth:`finalize` → loss violation.
    """

    ON_SPAN = {"nf.drop": "on_drop"}
    ON_RECORD = {
        "nf.buffer": "on_nf_buffer",
        "ctrl.buffer": "on_parked",
        "sw.buffer": "on_parked",
        "sw.drop": "on_switch_drop",
        "nf.process": "on_process",
    }

    def __init__(self, registry: OpRegistry, emit) -> None:
        self.registry = registry
        self.emit = emit
        #: uid -> (op, flow, span_ids) for packets owed a processing.
        self.pending: Dict[int, Tuple[Optional[_Op], Optional[str], List[int]]] = {}
        #: uid -> op for packets already processed once after capture.
        self.done: Dict[int, Optional[_Op]] = {}

    def _capture(self, uid, op, flow, span_id=None) -> None:
        entry = self.pending.get(uid)
        if entry is None:
            self.pending[uid] = (
                op, flow, [] if span_id is None else [span_id]
            )
        elif span_id is not None:
            entry[2].append(span_id)

    def on_drop(self, span: Dict[str, Any]) -> None:
        attrs = span.get("attrs") or {}
        nf = attrs.get("nf")
        op = self.registry.attribute(attrs, PACKET_OPS)
        if op is None:
            return  # a drop no operation's rule caused is not ours
        if attrs.get("silent"):
            self.emit(Violation(
                "loss-free",
                span.get("end_ms") or span.get("start_ms") or 0.0,
                op.trace_id,
                op.kind,
                nf=nf,
                flow=attrs.get("flow"),
                detail="packet uid=%s dropped with no record"
                       % attrs.get("uid"),
                span_ids=[span.get("span_id")],
            ))
        else:
            self._capture(attrs.get("uid"), op, attrs.get("flow"),
                          span.get("span_id"))

    def on_nf_buffer(self, record: Dict[str, Any]) -> None:
        op = self.registry.attribute(record, PACKET_OPS)
        if op is not None:
            self._capture(record.get("uid"), op, record.get("flow"))

    def on_parked(self, record: Dict[str, Any]) -> None:
        # Parked at the controller or (data-plane offload) in a
        # switch-local XFSM ring: either way it is owed exactly one
        # processing at the operation's destination.
        op = self.registry.ops.get(record.get("trace_id"))
        self._capture(record.get("uid"), op, record.get("flow"))

    def on_switch_drop(self, record: Dict[str, Any]) -> None:
        # An XFSM ring overflowed: the packet is gone and nothing
        # will ever repay it. Immediate loss violation.
        op = self.registry.ops.get(record.get("trace_id"))
        self.emit(Violation(
            "loss-free",
            record.get("time_ms", 0.0),
            record.get("trace_id"),
            op.kind if op else None,
            nf=record.get("sw"),
            flow=record.get("flow"),
            detail="packet uid=%s dropped by switch state machine "
                   "(ring overflow)" % record.get("uid"),
        ))

    def on_process(self, record: Dict[str, Any]) -> None:
        uid = record.get("uid")
        nf = record.get("nf")
        entry = self.pending.get(uid)
        if entry is not None:
            # Only the capturing operation's own instances can repay
            # the owed processing: on a multicast chain data path the
            # same uid is (by design) processed once per hop, and a
            # sibling hop's processing is neither the release nor a
            # duplicate.
            if entry[0] is not None and not entry[0].involves(nf):
                return
            self.pending.pop(uid, None)
            self.done[uid] = entry[0]
            return
        if uid in self.done:
            op = self.done.get(uid)
            if op is not None and not op.involves(nf):
                return
            self.emit(Violation(
                "loss-free",
                record.get("time_ms", 0.0),
                op.trace_id if op else None,
                op.kind if op else None,
                nf=nf,
                flow=record.get("flow"),
                detail="packet uid=%s processed more than once" % uid,
            ))

    def finalize(self) -> None:
        for uid, (op, flow, span_ids) in sorted(self.pending.items()):
            self.emit(Violation(
                "loss-free",
                op.closed_ms or op.started_ms if op else 0.0,
                op.trace_id if op else None,
                op.kind if op else None,
                flow=flow,
                detail="packet uid=%s captured but never processed" % uid,
                span_ids=span_ids,
            ))
        self.pending.clear()


class OrderAuditor(_Auditor):
    """Per-flow processing order at the destination respects uid order.

    Only operations that *promise* order preservation are held to it
    (loss-free moves may legally reorder across the flush; the baseline
    never promised anything about order). While such an operation is
    open, the destination NF's ``nf.process`` stream must be
    uid-monotonic within each flow — uids are minted in injection
    order, so per-flow uid order is arrival order.
    """

    ON_RECORD = {"op.start": "on_op_start", "nf.process": "on_process"}

    def __init__(self, registry: OpRegistry, emit) -> None:
        self.registry = registry
        self.emit = emit
        registry.on_close(self.on_op_close)
        #: (dst_nf) -> op for open order-preserving operations.
        self.watched: Dict[str, _Op] = {}
        #: (nf, flow) -> last processed uid.
        self.last_uid: Dict[Tuple[str, str], int] = {}

    def on_op_start(self, record: Dict[str, Any]) -> None:
        op = self.registry.ops.get(record.get("trace_id"))
        if op is not None and op.order_preserving and op.dst:
            self.watched[op.dst] = op

    def on_process(self, record: Dict[str, Any]) -> None:
        nf = record.get("nf")
        op = self.watched.get(nf)
        if op is None:
            return
        flow = record.get("flow")
        uid = record.get("uid")
        if flow is None or uid is None:
            return
        key = (nf, flow)
        last = self.last_uid.get(key)
        if last is not None and uid < last:
            self.emit(Violation(
                "order-preserving",
                record.get("time_ms", 0.0),
                op.trace_id,
                op.kind,
                nf=nf,
                flow=flow,
                detail="uid=%s processed after uid=%s" % (uid, last),
            ))
        self.last_uid[key] = uid

    def on_op_close(self, op: _Op) -> None:
        if op.dst and self.watched.get(op.dst) is op:
            del self.watched[op.dst]
            for key in [k for k in self.last_uid if k[0] == op.dst]:
                del self.last_uid[key]


class ChainAuditor(_Auditor):
    """End-to-end guarantees for chain-wide operations.

    A chain's data path multicasts every matching packet to each hop's
    active instance, so the per-NF auditors can only vouch for one hop
    at a time. This auditor reads the ``hops`` attribute off a chain
    operation's ``op.start`` record (``hop=inst1/inst2|...`` — every
    hop with its full instance set, migration targets included) and
    checks the *chain-level* properties across the whole window:

    * **chain-loss-free** — every packet first processed during the
      window is eventually processed by exactly one instance of *every*
      hop; a missing hop is cited by name, an extra processing at a hop
      fires immediately.
    * **chain-order** — for order-preserving chains, each hop's
      processing stream stays uid-monotonic per flow (uids are minted
      in injection order).

    Packets injected before the window are excluded: uids are minted in
    injection order, so any uid not greater than the largest uid already
    processed anywhere when the operation starts predates the window —
    its sibling-hop processings may have happened before the auditor
    was watching and would read as losses. (A time-based grace window is
    not enough: a backlogged hop can first process a pre-window packet
    tens of milliseconds into the window.) Packets still in flight when
    the operation closes keep accumulating until :meth:`finalize` — run
    the simulation to quiescence first.
    """

    ON_RECORD = {"op.start": "on_op_start", "nf.process": "on_process"}

    def __init__(self, registry: OpRegistry, emit) -> None:
        self.registry = registry
        self.emit = emit
        #: Chain contexts, open and closed (closed ones keep counting
        #: in-flight packets until finalize).
        self.chains: List[Dict[str, Any]] = []
        #: Largest uid seen in any ``nf.process`` record so far — the
        #: pre-window/in-window dividing line at chain-op start.
        self._max_uid_processed = -1

    def on_process(self, record: Dict[str, Any]) -> None:
        nf = record.get("nf")
        uid = record.get("uid")
        if nf is None or uid is None:
            return
        if uid > self._max_uid_processed:
            self._max_uid_processed = uid
        for ctx in self.chains:
            hop = ctx["nf_hop"].get(nf)
            if hop is None:
                continue
            self._observe_processing(ctx, record, hop, uid)

    def on_op_start(self, record: Dict[str, Any]) -> None:
        if record.get("kind") != "chain":
            return
        hops: List[Tuple[str, Set[str]]] = []
        for part in str(record.get("hops", "")).split("|"):
            if "=" not in part:
                continue
            hop_name, instances = part.split("=", 1)
            members = {i for i in instances.split("/") if i}
            if members:
                hops.append((hop_name, members))
        op = self.registry.ops.get(record.get("trace_id"))
        if not hops or op is None:
            return
        self.chains.append({
            #: The registry's entry: window, abort cause, guarantee.
            "op": op,
            "chain": record.get("chain"),
            "uid_floor": self._max_uid_processed,
            "hop_order": [hop for hop, _ in hops],
            "nf_hop": {
                inst: hop for hop, members in hops for inst in members
            },
            #: uid -> {hop: count} for packets first seen in the window.
            "seen": {},
            #: (hop, flow) -> last uid processed (order check).
            "last_uid": {},
        })

    def _observe_processing(
        self, ctx: Dict[str, Any], record: Dict[str, Any], hop: str, uid: int
    ) -> None:
        seen = ctx["seen"]
        time_ms = record.get("time_ms", 0.0)
        op = ctx["op"]
        if uid not in seen:
            if not op.open:
                return  # first appeared after the window: not ours
            if uid <= ctx["uid_floor"]:
                return  # injected before the window: not ours
            seen[uid] = {}
        counts = seen[uid]
        counts[hop] = counts.get(hop, 0) + 1
        if counts[hop] > 1:
            self.emit(Violation(
                "chain-loss-free",
                time_ms,
                op.trace_id,
                "chain",
                nf=record.get("nf"),
                flow=record.get("flow"),
                detail="packet uid=%s processed more than once at hop %r"
                       % (uid, hop),
            ))
        if op.order_preserving:
            flow = record.get("flow")
            if flow is not None:
                key = (hop, flow)
                last = ctx["last_uid"].get(key)
                if last is not None and uid < last:
                    self.emit(Violation(
                        "chain-order",
                        time_ms,
                        op.trace_id,
                        "chain",
                        nf=record.get("nf"),
                        flow=flow,
                        detail="hop %r processed uid=%s after uid=%s"
                               % (hop, uid, last),
                    ))
                ctx["last_uid"][key] = uid

    def finalize(self) -> None:
        for ctx in self.chains:
            op = ctx["op"]
            if op.aborted is not None:
                # An aborted chain's contract is restoration; the
                # rollback window legitimately re-captures packets.
                continue
            for uid, counts in sorted(ctx["seen"].items()):
                missing = [
                    hop for hop in ctx["hop_order"]
                    if counts.get(hop, 0) == 0
                ]
                for hop in missing:
                    self.emit(Violation(
                        "chain-loss-free",
                        op.closed_ms or op.started_ms,
                        op.trace_id,
                        "chain",
                        nf=hop,
                        detail="packet uid=%s never crossed hop %r of "
                               "chain %r" % (uid, hop, ctx["chain"]),
                    ))
        self.chains = []


class StateConservationAuditor(_Auditor):
    """What an operation exports is what lands — all of it, and nothing else.

    One ``(scope, key)`` ledger per operation, fed by the
    ``nf.chunk.export`` / ``nf.chunk.import`` records it caused, holding
    exports minus imports. Its two signs are two guarantees, settled
    when the operation closes, so each fact is cited once:

    * **state-conservation** (§5.1) — a chunk still positive was
      exported and never imported;
    * **no-phantom-state** (Patowary et al.) — a chunk that went
      negative was imported before, or more often than, it was exported:
      state out of thin air. A share is held to the set-membership form
      only (one origin export legitimately fans out to N replica
      imports, and an origin keeps what it exported).

    Aborted operations are exempt — their contract is restoration, not
    delivery, and the restore puts re-import at the *source*. One still
    open at :meth:`finalize` cannot be short of an import yet and is
    held to no-phantom-state alone.
    """

    ON_RECORD = {
        "nf.chunk.export": "on_export",
        "nf.chunk.import": "on_import",
    }

    def __init__(self, registry: OpRegistry, emit) -> None:
        self.registry = registry
        self.emit = emit
        registry.on_close(self._settle)
        #: trace_id -> {(scope, key): export_count - import_count}; a
        #: share's entry is 1 once exported, -1 while only imported.
        self.balance: Dict[int, Dict[Tuple[str, str], int]] = {}
        #: trace_id -> chunks whose import ran ahead of their export.
        self.ahead: Dict[int, Set[Tuple[str, str]]] = {}

    def on_export(self, record: Dict[str, Any]) -> None:
        self._count(record, True)

    def on_import(self, record: Dict[str, Any]) -> None:
        self._count(record, False)

    def _count(self, record: Dict[str, Any], exporting: bool) -> None:
        op = self.registry.attribute(
            record, CHUNK_OPS, "src" if exporting else "dst"
        )
        if op is None:
            return
        chunk_key = (record.get("scope"), record.get("key"))
        table = self.balance.setdefault(op.trace_id, {})
        if op.kind == "share":
            if exporting:
                table[chunk_key] = 1
            else:
                table.setdefault(chunk_key, -1)
            return
        count = table.get(chunk_key, 0)
        if not exporting and count <= 0:
            self.ahead.setdefault(op.trace_id, set()).add(chunk_key)
        count += 1 if exporting else -1
        if count:
            table[chunk_key] = count
        else:
            del table[chunk_key]

    def finalize(self) -> None:
        for trace_id in sorted(self.balance):  # (every ``ahead`` key is one)
            self._settle(self.registry.ops[trace_id])

    def _settle(self, op: _Op) -> None:
        table = self.balance.pop(op.trace_id, {})
        ahead = self.ahead.pop(op.trace_id, ())
        if op.aborted is not None:
            return
        share = op.kind == "share"
        for chunk_key in sorted(set(table) | set(ahead)):
            count = table.get(chunk_key, 0)
            if count > 0:
                if op.open or share:
                    continue
                check, what = "state-conservation", "exported but never imported"
            else:
                check = "no-phantom-state"
                what = ("import ran ahead of its export" if count == 0 else
                        "replicated, but no instance exported it" if share else
                        "imported %d more time(s) than exported" % -count)
            self.emit(Violation(
                check,
                op.closed_ms or op.started_ms,
                op.trace_id,
                op.kind,
                detail="chunk %s/%s %s" % (chunk_key + (what,)),
            ))


class ShareSerializationAuditor(_Auditor):
    """Strong-share updates within a group never overlap in time.

    ``share.update`` phase spans carry the group key; spans reach the
    exporter in finish order, so per group it suffices to check that
    each new span's start is not earlier than the previous span's end.
    """

    ON_SPAN = {"share.update": "on_update"}

    def __init__(self, registry: OpRegistry, emit) -> None:
        self.registry = registry
        self.emit = emit
        #: (trace_id, group) -> (last_end_ms, last_span_id)
        self.last: Dict[Tuple[Any, str], Tuple[float, Any]] = {}

    def on_update(self, span: Dict[str, Any]) -> None:
        attrs = span.get("attrs") or {}
        group = attrs.get("group")
        if group is None:
            return
        key = (attrs.get("trace_id"), group)
        start = span.get("start_ms", 0.0)
        end = span.get("end_ms", start)
        prev = self.last.get(key)
        if prev is not None and start < prev[0]:
            op = self.registry.ops.get(attrs.get("trace_id"))
            self.emit(Violation(
                "share-serialization",
                end,
                attrs.get("trace_id"),
                op.kind if op else "share",
                nf=attrs.get("nf"),
                flow=group,
                detail="update span overlaps the previous update "
                       "(start %.3f < previous end %.3f)" % (start, prev[0]),
                span_ids=[span.get("span_id"), prev[1]],
            ))
        if prev is None or end > prev[0]:
            self.last[key] = (end, span.get("span_id"))


#: The auditors, in routing order (after the :class:`OpRegistry`).
AUDITORS = (
    LossFreeAuditor,
    OrderAuditor,
    ChainAuditor,
    StateConservationAuditor,
    ShareSerializationAuditor,
)


def _subscriptions(table: str) -> Dict[str, Tuple[Tuple[int, str], ...]]:
    """Entry name -> ``(reader index, method)`` of every reader whose
    ``table`` (``ON_SPAN`` / ``ON_RECORD``) takes it, in routing order."""
    found: Dict[str, List[Tuple[int, str]]] = {}
    for index, reader in enumerate((OpRegistry,) + AUDITORS):
        for name, method in getattr(reader, table).items():
            found.setdefault(name, []).append((index, method))
    return {name: tuple(readers) for name, readers in found.items()}


#: kind -> entry name -> readers: every subscription, declared once.
SUBSCRIPTIONS = {
    "span": _subscriptions("ON_SPAN"),
    "record": _subscriptions("ON_RECORD"),
}


class AuditPipeline:
    """Routes the span/record stream to the auditors that read it.

    :meth:`route` answers, per entry kind and name, the bound handlers
    of :data:`SUBSCRIPTIONS` — the operation registry's first, then the
    auditors' in :data:`AUDITORS` order: a live run's tracer asks once
    per name, and :func:`audit_entries` replays a trace through the
    same answers. Violations accumulate in :attr:`violations`; an
    optional ``on_violation`` hook fires per violation (the flight
    recorder uses it to capture a post-mortem bundle).
    """

    def __init__(self) -> None:
        self.registry = OpRegistry()
        self.violations: List[Violation] = []
        self.on_violation: Optional[Callable[[Violation], None]] = None
        self._finalized = False
        emit = self._emit
        self.auditors: List[_Auditor] = [
            auditor(self.registry, emit) for auditor in AUDITORS
        ]
        self._readers = [self.registry] + self.auditors

    def _emit(self, violation: Violation) -> None:
        self.violations.append(violation)
        if self.on_violation is not None:
            self.on_violation(violation)

    # ------------------------------------------------------------- stream taps

    def route(self, kind: str, name: str) -> Tuple[Callable, ...]:
        """The handlers an entry of ``kind`` (``"span"`` / ``"record"``)
        named ``name`` goes to — empty for a name nobody reads."""
        subscribed = SUBSCRIPTIONS[kind].get(name)
        if subscribed is None:
            return ()
        readers = self._readers
        return tuple([
            getattr(readers[index], method) for index, method in subscribed
        ])

    def on_span(self, span: Dict[str, Any]) -> None:
        """Feed one span payload down its route."""
        for handler in self.route("span", span.get("name")):
            handler(span)

    def on_record(self, record: Dict[str, Any]) -> None:
        """Feed one record down its route."""
        for handler in self.route("record", record.get("name")):
            handler(record)

    def finalize(self) -> List[Violation]:
        """Flag packets still owed a processing; idempotent."""
        if not self._finalized:
            self._finalized = True
            for auditor in self.auditors:
                auditor.finalize()
        return self.violations


#: One trace entry: (delivery time, "span" | "record", payload).
Entry = Tuple[float, str, dict]


def entries_from_obs(obs) -> List[Entry]:
    """A live run's stored spans and records as a time-sorted entry stream.

    Identical payloads to what :func:`load_trace_entries` yields from a
    ``.trace.jsonl``, so nothing that reads entries can tell a live run
    from a replayed one. A span's payload is its :meth:`Span.read`: the
    dict an auditor or a bundle already built, when one did.
    """
    exporter = obs.exporter
    entries: List[Entry] = [
        (span.end or 0.0, "span", span.read()) for span in exporter.spans
    ]
    entries.extend(
        (record.get("time_ms") or 0.0, "record", record)
        for record in exporter.records
    )
    entries.sort(key=itemgetter(0))
    return entries


def write_trace(entries: List[Entry], path: str) -> int:
    """Write ``entries`` as a ``.trace.jsonl`` — the one writer of the format."""
    with open(path, "w") as handle:
        for _time, kind, payload in entries:
            handle.write(json.dumps(dict(payload, type=kind)) + "\n")
    return len(entries)


def parse_trace(lines, origin: str) -> Tuple[List[Entry], List[str]]:
    """Parse the lines of a ``.trace.jsonl`` into time-sorted entries.

    Robust against real-world trace files: a truncated/partial JSONL
    line (a run killed mid-write) or an entry of an unknown kind is
    *skipped with a warning*, never a crash — the remaining entries are
    still auditable. Returns ``(entries, skipped)`` where ``skipped``
    holds one human-readable message per unusable line, prefixed with
    ``origin``. No lines yield ``([], [])``.

    A live tracer delivers spans at finish time and records at emission
    time, so the merged stream is monotone in that timestamp; entries
    are stable-sorted by it (a no-op for what :func:`write_trace`
    wrote) so that any dump replays through the streaming code path.
    """
    entries: List[Entry] = []
    skipped: List[str] = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            skipped.append(
                "%s:%d: malformed JSONL line (truncated write?)"
                % (origin, lineno)
            )
            continue
        if not isinstance(entry, dict):
            skipped.append("%s:%d: entry is not an object" % (origin, lineno))
            continue
        kind = entry.pop("type", None)
        if kind == "span":
            entries.append((entry.get("end_ms") or 0.0, "span", entry))
        elif kind == "record":
            entries.append((entry.get("time_ms") or 0.0, "record", entry))
        else:
            skipped.append(
                "%s:%d: unknown entry kind %r (expected span/record)"
                % (origin, lineno, kind)
            )
    if skipped:
        warnings.warn(
            "trace %s: skipped %d unusable entr%s (first: %s)"
            % (origin, len(skipped), "y" if len(skipped) == 1 else "ies",
               skipped[0]),
            stacklevel=2,
        )
    entries.sort(key=itemgetter(0))
    return entries, skipped


def load_trace_entries(path: str) -> Tuple[List[Entry], List[str]]:
    """:func:`parse_trace` over the file at ``path``."""
    with open(path) as handle:
        return parse_trace(handle, path)


def audit_entries(entries: List[Entry]) -> AuditPipeline:
    """Run the auditors over an entry stream post hoc; returns them finalized.

    Each entry takes the route a live run's tracer would have sent it
    down (:meth:`AuditPipeline.route`).
    """
    pipeline = AuditPipeline()
    routes: Dict[Tuple[str, Any], Tuple[Callable, ...]] = {}
    for _time, kind, entry in entries:
        name = entry.get("name")
        handlers = routes.get((kind, name))
        if handlers is None:
            handlers = routes[kind, name] = pipeline.route(kind, name)
        for handler in handlers:
            handler(entry)
    pipeline.finalize()
    return pipeline
