"""Execute conformance schedules against a real deployment.

:func:`run_schedule` is the kit's single execution path: the
interleaving search (hypothesis strategies over ``ScheduleSpec``), the
NF × guarantee matrix, the corpus replayer, the counterexample hunt and
the ``repro conform`` CLI all funnel through it, so a shrunk
counterexample reproduces in every harness. It wires a
:class:`~repro.harness.Deployment` with auditing enabled, places the
schedule's traffic and operations on the timeline via the deployment's
``call_at``/``inject_at`` seams, runs to quiescence (a run that never
gets there is cut at its event budget and cited as ``liveness``), and
then asks two independent judges:

1. the trace — the streaming auditors of :mod:`repro.obs.audit` (the
   §5.1 guarantees, state conservation, no phantom state:
   ``obs.violations()``) plus isolation, the one property about pairs of
   operation windows, read post hoc off the auditors' own operation
   registry (:func:`check_trace_properties` does so for a bare trace);
2. the live objects — the ground-truth oracle
   :func:`~repro.harness.properties.check_loss_free` over the switch's
   and the NFs' own logs (a schedule that replays traffic must leave it
   some packet to judge), and a completeness probe of the NFs' residual
   state, which no trace can show.

Every failed check is one :class:`~repro.obs.audit.Violation`; a cell is
*clean* only when both judges come back empty-handed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

from repro.flowspace.filter import Filter
from repro.harness.deployment import Deployment
from repro.harness.properties import check_chain_loss_free, check_loss_free
from repro.net.packet import reset_uid_counter
from repro.nf.state import Scope
from repro.baselines.splitmerge import SplitMergeMigrate
from repro.traffic.generator import PacketBlueprint, tcp_flow
from repro.traffic.replay import TraceReplayer
from repro.traffic.traces import TraceConfig, build_university_cloud_trace
from repro.obs.audit import (
    OpRegistry,
    Violation,
    audit_entries,
    entries_from_obs,
)
from repro.conformance.schedule import (
    NF_FACTORIES,
    BurstSpec,
    ChainOpSpec,
    OpSpec,
    ScheduleSpec,
)

#: Matrix guarantee levels: three move guarantees plus strong share.
GUARANTEE_LEVELS = ("ng", "lf", "lf+op", "strong-share")

#: Fault-plan spec used by faulted matrix cells (drops + dup + delay).
MATRIX_FAULTS = "seed=3,drop=0.03,dup=0.02,delay=0.2,delay_ms=2.0"

#: Simulator events a run may take per injected packet and per operation
#: (the busiest matrix cell takes 27 per packet all told, a strong share
#: over 4 888 trace packets 42): a run still busy past its budget never
#: quiesces (a livelock), which is a ``liveness`` verdict, not a hang.
EVENTS_PER_PACKET, EVENTS_PER_OP = 200, 2000


@dataclass(frozen=True)
class Cell:
    """One NF × guarantee × faults × batching matrix coordinate."""

    nf: str
    guarantee: str
    faults: bool = False
    batching: bool = False

    def label(self) -> str:
        return "%s/%s%s%s" % (
            self.nf,
            self.guarantee,
            "/faults" if self.faults else "",
            "/batching" if self.batching else "",
        )


def matrix_cells() -> List[Cell]:
    """The full 7 NF × 4 guarantee × {faults} × {batching} product."""
    return [
        Cell(nf=nf, guarantee=level, faults=faults, batching=batching)
        for nf in NF_FACTORIES
        for level in GUARANTEE_LEVELS
        for faults in (False, True)
        for batching in (False, True)
    ]


def spec_for_cell(
    cell: Cell, shards: int = 1, offload: bool = False
) -> ScheduleSpec:
    """The canonical small schedule exercising one matrix cell.

    Sized so every flow has state before the operation fires and the
    whole cell runs in ~10 ms of simulated time: the operation starts
    mid-trace and a 3-packet burst races its get/put window 2 ms later.
    """
    if cell.guarantee == "strong-share":
        op = OpSpec(kind="share", at_ms=6.0, guarantee="strong",
                    scope="multi", stop_at_ms=30.0)
    else:
        op = OpSpec(kind="move", at_ms=6.0, guarantee=cell.guarantee,
                    scope="per")
    return ScheduleSpec(
        nf=cell.nf,
        seed=11,
        n_flows=6,
        data_packets=3,
        rate_pps=4000.0,
        faults=MATRIX_FAULTS if cell.faults else None,
        batching=cell.batching,
        shards=shards,
        offload=offload,
        ops=[op],
        bursts=[BurstSpec(at_ms=8.0, client="10.0.1.77", port=40000,
                          packets=3)],
    )


def spec_for_chain_cell(
    guarantee: str = "lf",
    shards: int = 1,
    faults: bool = False,
    batching: bool = False,
    hops: Tuple[str, ...] = ("ids", "nat", "proxy"),
    hop_guarantees: Optional[Dict[str, str]] = None,
) -> ScheduleSpec:
    """Canonical chain cell: a 3-hop IDS→NAT→proxy move_chain mid-trace.

    The chain's shared filter is the whole local net, so every trace
    flow crosses all three hops; the operation migrates each hop to its
    second instance tail-to-head while a burst races the windows.
    """
    return ScheduleSpec(
        nf=hops[0],
        seed=11,
        n_flows=6,
        data_packets=3,
        rate_pps=4000.0,
        faults=MATRIX_FAULTS if faults else None,
        batching=batching,
        shards=shards,
        ops=[],
        bursts=[BurstSpec(at_ms=8.0, client="10.0.1.77", port=40000,
                          packets=3)],
        chains=[ChainOpSpec(hops=list(hops), at_ms=6.0,
                            guarantee=guarantee,
                            hop_guarantees=dict(hop_guarantees or {}))],
    )


@dataclass
class ConformanceResult:
    """Everything one schedule run produced, plus the verdict."""

    spec: ScheduleSpec
    #: Every failed check of either judge but the oracle's (below).
    violations: List[Violation] = field(default_factory=list)
    loss_free: bool = True
    loss_free_detail: str = ""
    #: Packets the ground-truth oracle judged (per chain hop, the fewest).
    judged: int = 0
    reports: List[Any] = field(default_factory=list)
    deployment: Optional[Deployment] = None
    #: The run's observability bundle, which :attr:`entries` reads.
    _obs: Any = field(default=None, init=False, repr=False)
    _entries: Optional[List[Tuple[float, str, dict]]] = field(
        default=None, init=False, repr=False
    )

    @property
    def entries(self) -> List[Tuple[float, str, dict]]:
        """The run's trace as an entry stream, built on first access."""
        if self._entries is None:
            self._entries = entries_from_obs(self._obs)
        return self._entries

    @property
    def clean(self) -> bool:
        """Did both judges come back green?"""
        return not self.violations and self.loss_free

    @property
    def expected_dirty(self) -> bool:
        return self.spec.expected_dirty

    @property
    def ok(self) -> bool:
        """Conformant: clean, or dirty where dirt is the design."""
        return self.clean or self.expected_dirty

    def check_kinds(self) -> List[str]:
        """Sorted distinct failure kinds (for corpus citations)."""
        kinds = {v.check for v in self.violations}
        if not self.loss_free:
            kinds.add("loss-free")
        return sorted(kinds)

    def summary(self) -> str:
        verdict = "clean" if self.clean else (
            "dirty(expected)" if self.expected_dirty else "DIRTY"
        )
        parts = ["%s: %s" % (self.spec.label(), verdict)]
        if not self.clean:
            parts.append("checks=%s" % ",".join(self.check_kinds()))
        return " ".join(parts)


def _burst_packets(spec: BurstSpec):
    """Build the burst's packets lazily so uids mint at injection time."""
    from repro.flowspace.fivetuple import FiveTuple

    flow = tcp_flow(
        FiveTuple(spec.client, spec.port, spec.server, 80, 6),
        data_packets=max(0, spec.packets - 1),
        bidirectional=False,
        close=False,
    )
    blueprints = flow.packets[: max(1, spec.packets)]

    def build(now: float):
        return [bp.build(created_at=now) for bp in blueprints]

    return build


def stop_share_handle(handle) -> bool:
    """Tear down a share handle, live or still deferred.

    A share queued behind conflicting flow space is a
    ``DeferredOperation`` with no ``stop()``; once launched it proxies a
    live :class:`~repro.controller.share.ShareOperation`. Returns True
    if a teardown action was taken.
    """
    if handle.done is not None and handle.done.triggered:
        return False
    kind = getattr(handle, "kind", "")
    if kind == "share":
        handle.stop()
        return True
    if kind == "deferred" and getattr(handle, "deferred_kind", "") == "share":
        if handle.operation is not None:
            handle.operation.stop()
        else:
            handle.abort("share never launched before schedule end")
        return True
    return False


def _launch_chain_op(
    dep: Deployment,
    chain,
    chain_spec: ChainOpSpec,
    handles: List[dict],
) -> None:
    """Fire a chain-wide move: every hop migrates to its 2nd instance."""
    dst_map = {hop: "%s2" % hop for hop in chain_spec.hops}
    handle = dep.controller.move_chain(
        chain,
        Filter({"nw_src": chain_spec.prefix}, symmetric=True),
        dst_map,
        guarantee=chain_spec.guarantee,
        hop_guarantees=dict(chain_spec.hop_guarantees) or None,
    )
    handles.append({"spec": chain_spec, "handle": handle})
    if chain_spec.abort_at_ms is not None:
        dep.call_at(dep.sim.now + chain_spec.abort_at_ms, handle.abort,
                    "conformance schedule abort")


def _launch_op(dep: Deployment, op_spec: OpSpec, handles: List[dict]) -> None:
    flt = Filter({"nw_src": op_spec.prefix}, symmetric=True)
    ctrl = dep.controller
    if op_spec.kind == "move":
        handle = ctrl.move(op_spec.src, op_spec.dst, flt,
                           scope=op_spec.scope, guarantee=op_spec.guarantee)
    elif op_spec.kind == "copy":
        handle = ctrl.copy(op_spec.src, op_spec.dst, flt,
                           scope=op_spec.scope)
    elif op_spec.kind == "share":
        names = sorted(dep.nfs)
        handle = ctrl.share(names, flt, scope=op_spec.scope,
                            consistency=op_spec.guarantee)
    else:  # splitmerge — the §2.2 baseline, outside admission on purpose
        handle = SplitMergeMigrate(ctrl, op_spec.src, op_spec.dst, flt)
    handles.append({"spec": op_spec, "handle": handle})
    if op_spec.abort_at_ms is not None:
        dep.call_at(dep.sim.now + op_spec.abort_at_ms, handle.abort,
                    "conformance schedule abort")
    if op_spec.kind == "share" and op_spec.stop_at_ms is not None:
        dep.call_at(dep.sim.now + op_spec.stop_at_ms,
                    stop_share_handle, handle)


@lru_cache(maxsize=16)
def _trace_packets(
    seed: int, n_flows: int, data_packets: int
) -> Tuple[PacketBlueprint, ...]:
    """A schedule's trace, built once per config: every matrix cell
    replays the same one, and blueprints are immutable."""
    return tuple(build_university_cloud_trace(TraceConfig(
        seed=seed, n_flows=n_flows, data_packets=data_packets,
    )).packets)


def run_schedule(
    spec: ScheduleSpec,
    keep_deployment: bool = False,
) -> ConformanceResult:
    """Run one schedule end to end and evaluate every verdict source."""
    reset_uid_counter()
    dep = Deployment(
        audit=True,
        faults=spec.faults,
        batching=spec.batching,
        shards=spec.shards,
        offload=spec.offload,
    )
    instances = []
    chain_hops: List[Tuple[str, List[Any]]] = []
    chain = None
    if spec.chains:
        # Chain schedules swap the classic inst1..instN topology for two
        # instances per hop; the chain's multicast rule replaces the
        # default route (its filter covers the whole trace's local net).
        hop_kinds = list(spec.chains[0].hops)
        for other in spec.chains[1:]:
            if list(other.hops) != hop_kinds:
                raise ValueError(
                    "all chain ops in one schedule must share a topology"
                )
        hops_decl = []
        for kind in hop_kinds:
            members = []
            for copy_idx in (1, 2):
                nf = NF_FACTORIES[kind](dep.sim, "%s%d" % (kind, copy_idx))
                dep.add_nf(nf)
                members.append(nf)
            hops_decl.append((kind, tuple(m.name for m in members)))
            chain_hops.append((kind, members))
            instances.extend(members)
        chain = dep.chain(
            "chain", hops_decl,
            flt=Filter({"nw_src": spec.chains[0].prefix}, symmetric=True),
        )
    else:
        factory = NF_FACTORIES[spec.nf]
        for index in range(spec.n_instances):
            nf = factory(dep.sim, "inst%d" % (index + 1))
            dep.add_nf(nf)
            instances.append(nf)
        dep.set_default_route("inst1")

    duration_ms = 0.0
    replayer = None
    budget = EVENTS_PER_OP * (1 + len(spec.ops) + len(spec.chains))
    budget += EVENTS_PER_PACKET * sum(b.packets for b in spec.bursts)
    if spec.n_flows > 0:
        packets = _trace_packets(spec.seed, spec.n_flows, spec.data_packets)
        replayer = TraceReplayer(dep.sim, dep.inject, packets,
                                 rate_pps=spec.rate_pps)
        replayer.start()
        duration_ms = replayer.duration_ms
        budget += EVENTS_PER_PACKET * len(packets)

    for burst in spec.bursts:
        builder = _burst_packets(burst)
        dep.inject_at(burst.at_ms, lambda b=builder: b(dep.sim.now))

    handles: List[dict] = []
    for op_spec in spec.ops:
        at_ms = op_spec.at_ms
        if at_ms is None:
            at_ms = duration_ms / 2.0
        dep.call_at(at_ms, _launch_op, dep, op_spec, handles)
    for chain_spec in spec.chains:
        at_ms = chain_spec.at_ms
        if at_ms is None:
            at_ms = duration_ms / 2.0
        dep.call_at(at_ms, _launch_chain_op, dep, chain, chain_spec, handles)

    dep.sim.run(max_events=budget)
    # Shares without a scheduled stop idle forever; a deferred operation
    # queued behind one only launches after the stop — so stop, re-run,
    # and repeat until every handle has completed.
    for _ in range(len(spec.ops) + len(spec.chains) + 1):
        if dep.sim.pending:
            break
        stopped = [stop_share_handle(entry["handle"]) for entry in handles]
        dep.sim.run(max_events=budget)
        if not any(stopped) and all(
            entry["handle"].done is not None and entry["handle"].done.triggered
            for entry in handles
        ):
            break

    result = ConformanceResult(spec=spec)
    result.reports = [
        entry["handle"].report for entry in handles
        if entry["handle"].report is not None
    ]
    streamed = dep.obs.violations()
    result._obs = dep.obs
    result.violations = (
        streamed
        + check_isolation(dep.obs.audit.registry)
        + _check_completeness(dep, handles)
    )
    if dep.sim.pending:
        result.violations.append(Violation(
            "liveness", dep.sim.now, None, None,
            detail="the schedule never quiesced: still busy after %d "
                   "simulator events" % budget,
        ))
    if spec.chains:
        # Per-hop ground truth: the chain's multicast rule delivers each
        # packet to every hop, which the whole-instance check would
        # misread as N-fold duplication.
        verdict = check_chain_loss_free(dep.switch, chain_hops)
    else:
        verdict = check_loss_free(dep.switch, instances)
    result.loss_free, result.loss_free_detail = verdict
    result.judged = verdict.judged
    if result.loss_free and not result.judged and (
            spec.n_flows or spec.bursts):
        # Traffic went in and the oracle judged none of it: a pass
        # would be vacuous, whatever became of the packets.
        result.loss_free = False
        result.loss_free_detail = (
            "judged no packet: the schedule replayed traffic and none "
            "of it was forwarded to an instance")
    if keep_deployment:
        result.deployment = dep
    return result


def _check_completeness(
    dep: Deployment, handles: List[dict]
) -> List[Violation]:
    """Ground truth: a completed move leaves no matching state behind.

    Patowary et al.'s *completeness* — every state chunk in the move's
    flow space reached the destination — checked against the live source
    instance, which a trace alone cannot prove. Skipped when another
    operation's filter intersects (state may legitimately have come
    back), and for aborted moves (their contract is restoration).
    """
    failures: List[Violation] = []
    for entry in handles:
        op_spec, handle = entry["spec"], entry["handle"]
        if op_spec.kind != "move":
            continue
        report = handle.report
        if report is None or getattr(report, "aborted", None):
            continue
        flt = handle.filter
        if flt is None:
            continue
        others = [
            other["handle"].filter for other in handles
            if other is not entry and other["handle"].filter is not None
        ]
        if any(flt.intersects(other) for other in others):
            continue
        src = dep.nfs.get(op_spec.src)
        if src is None:
            continue
        leftover = src.state_keys(Scope.PERFLOW, flt)
        if leftover:
            failures.append(Violation(
                "completeness",
                report.finished_at,
                getattr(report, "trace_id", None),
                "move",
                nf=op_spec.src,
                detail=(
                    "%d per-flow key(s) still at %s after a completed "
                    "move of %r: %s"
                    % (len(leftover), op_spec.src, flt,
                       sorted(map(str, leftover))[:5])
                ),
            ))
    return failures


# ---------------------------------------------------------------- isolation

_FILTER_RE = re.compile(r"^Filter(~?)\{(.*)\}$")


def parse_filter_repr(text: Optional[str]) -> Optional[Filter]:
    """Reconstruct a :class:`Filter` from its ``repr`` in an op.start.

    Returns ``None`` for anything unparsable — the isolation check can
    then only skip the pairwise comparison, never crash on a foreign
    trace.
    """
    match = _FILTER_RE.match(text or "")
    if match is None:
        return None
    symmetric = match.group(1) == "~"
    body = match.group(2)
    if body == "*":
        return Filter({}, symmetric=symmetric)
    fields: Dict[str, Any] = {}
    for part in body.split(", "):
        if "=" not in part:
            return None
        key, value = part.split("=", 1)
        fields[key] = int(value) if value.isdigit() else value
    return Filter(fields, symmetric=symmetric)


def _same_chain(first, second) -> bool:
    """Is one op the other's chain parent, or both hops of one chain?

    A chain operation holds a single admission reservation that its
    constituent per-hop moves run under, so the parent's window
    legitimately spans its children's — isolation applies only across
    distinct reservations.
    """
    if first.chain_id is not None and first.chain_id == second.chain_id:
        return True
    return any(
        parent.kind == "chain" and child.chain_id == str(parent.trace_id)
        for parent, child in ((first, second), (second, first))
    )


def check_isolation(registry: OpRegistry) -> List[Violation]:
    """Isolation, post hoc: the one trace property the auditors leave.

    Two operations over intersecting flow space are never both in
    flight: their [``op.start``, ``op.end``] windows must not overlap
    (the admission table's contract, checked from the trace rather than
    trusted; an operation that never ended stays in flight for ever).
    It is about *pairs of windows*, not a packet or a chunk, and needs
    :class:`Filter` — so it reads the operations off the auditors'
    :class:`~repro.obs.audit.OpRegistry` here instead of streaming in
    ``obs/``. It inherits :meth:`Filter.intersects`, blind spots
    included.
    """
    windows = [
        (op, parse_filter_repr(op.filter))
        for op in sorted(registry.ops.values(), key=lambda op: op.started_ms)
    ]
    # (An operation whose filter does not parse is compared with nothing.)
    windows = [(op, flt) for op, flt in windows if flt is not None]
    violations: List[Violation] = []
    for index, (first, first_filter) in enumerate(windows):
        first_end = float("inf") if first.open else first.closed_ms
        for second, second_filter in windows[index + 1:]:
            if (
                second.started_ms >= first_end
                or not (second.open or first.started_ms < second.closed_ms)
                or _same_chain(first, second)
                or not first_filter.intersects(second_filter)
            ):
                continue
            violations.append(Violation(
                "isolation",
                second.started_ms,
                second.trace_id,
                second.kind,
                detail="%s(#%s) [%.3f, %s] overlaps %s(#%s) [%.3f, %s] on "
                       "intersecting flow space %r ∩ %r" % (
                           second.kind, second.trace_id, second.started_ms,
                           second.closed_ms, first.kind, first.trace_id,
                           first.started_ms, first.closed_ms,
                           second_filter, first_filter,
                       ),
            ))
    return violations


def check_trace_properties(entries) -> List[Violation]:
    """Isolation alone, from a trace's entries (no auditor runs)."""
    registry = OpRegistry()
    for _time, kind, entry in entries:
        if kind == "record":
            registry.observe_record(entry)
    return check_isolation(registry)


def judge_trace(entries) -> List[Violation]:
    """All a trace alone supports: the auditors replayed over it, and
    isolation off the registry they built."""
    pipeline = audit_entries(entries)
    return pipeline.violations + check_isolation(pipeline.registry)


def run_cell(cell: Cell, keep_deployment: bool = False,
             shards: int = 1, offload: bool = False) -> ConformanceResult:
    """Run one matrix cell's canonical schedule."""
    return run_schedule(spec_for_cell(cell, shards=shards, offload=offload),
                        keep_deployment=keep_deployment)
