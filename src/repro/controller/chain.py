"""Chain-wide operations: ``move_chain`` / ``scale_chain``.

Real deployments run NF *chains* (IDS -> NAT -> proxy) over a shared
flow space. Reconfiguring such a chain one ``move()`` at a time breaks
chain-output equivalence: each per-instance move installs a forwarding
rule that knows only about its own destination, so for the duration of
the reconfiguration the other hops are starved of traffic, and a packet
admitted mid-sequence crosses a half-migrated chain (old state at some
hops, new state at others).

This module makes the chain the unit of control:

* :class:`ChainSpec` / :class:`Chain` — a declarative, ordered list of
  hops over one flow-space filter, each hop owning a set of candidate
  instances with exactly one *active* at a time. The data path is a
  single multicast rule (one action per hop), built by
  ``Deployment.chain(...)``.
* :class:`ChainOperation` — a composite northbound operation (the
  standard :class:`~repro.controller.operation.Operation` handle:
  ``done`` / ``report`` / ``abort`` / ``filter``) that migrates the
  requested hops **tail-to-head**. Because the tail moves first, at
  every instant the chain is an old-prefix + new-suffix: a packet that
  entered through old hops exits through hops that either still hold
  the old state or already hold *all* of it — no packet ever observes a
  half-migrated middle.
* Each hop migration is an ordinary :class:`MoveOperation` carrying a
  chain-aware ``route_actions`` hook, so every forwarding rule a hop
  move installs lists *all* hops' ports with only the migrating slot
  substituted — the chain's other hops keep receiving traffic
  throughout.
* ``abort()`` rolls completed hops back (reverse loss-free moves,
  head-most first, restoring the old-prefix/new-suffix invariant at
  every step) — except a hop whose release barrier already drained in
  the same timestamp as the abort, which completed cleanly and is
  rolled back exactly once by the chain rather than cancelled twice.
* Hops whose state is *linked* (declared via ``ChainSpec.links``) get a
  short-lived strong share across their new active instances once all
  hops have landed, re-synchronizing cross-hop state.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.flowspace.filter import Filter
from repro.net.flowtable import HIGH_PRIORITY, MID_PRIORITY
from repro.nf.base import NFCrash
from repro.nf.southbound import SouthboundError
from repro.controller.move import Guarantee
from repro.controller.operation import Operation
from repro.controller.reports import OperationReport


class ChainSpec:
    """Declarative description of an NF chain.

    ``hops`` is an ordered sequence of ``(hop_name, instances)`` pairs:
    the hop name labels the logical function ("ids", "nat", ...), and
    ``instances`` lists the NF instance names that may serve that hop
    (the first is the initially active one). ``links`` names hop pairs
    whose state is cross-referenced and must be re-synchronized after a
    chain-wide move.
    """

    def __init__(
        self,
        name: str,
        hops: Sequence[Tuple[str, Any]],
        flt: Filter,
        links: Sequence[Tuple[str, str]] = (),
    ) -> None:
        if not hops:
            raise ValueError("a chain needs at least one hop")
        normalized: List[Tuple[str, Tuple[str, ...]]] = []
        for hop_name, instances in hops:
            if isinstance(instances, str):
                instances = (instances,)
            instances = tuple(instances)
            if not instances:
                raise ValueError(
                    "chain hop %r needs at least one instance" % hop_name
                )
            normalized.append((hop_name, instances))
        names = [hop for hop, _ in normalized]
        if len(set(names)) != len(names):
            raise ValueError("chain hop names must be unique: %r" % names)
        all_instances = [i for _, insts in normalized for i in insts]
        if len(set(all_instances)) != len(all_instances):
            raise ValueError(
                "an instance may serve only one chain hop: %r" % all_instances
            )
        for a, b in links:
            if a not in names or b not in names:
                raise ValueError("link (%r, %r) names an unknown hop" % (a, b))
        self.name = name
        self.hops: Tuple[Tuple[str, Tuple[str, ...]], ...] = tuple(normalized)
        self.flt = flt
        self.links: Tuple[Tuple[str, str], ...] = tuple(
            (a, b) for a, b in links
        )


class ChainHop:
    """One position in a bound chain: candidate instances + the active one."""

    def __init__(self, name: str, instances: Sequence[str]) -> None:
        self.name = name
        self.instances: List[str] = list(instances)
        self.active: str = self.instances[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ChainHop(%s, active=%s, instances=%s)" % (
            self.name, self.active, self.instances,
        )


class Chain:
    """A :class:`ChainSpec` bound to a controller.

    Holds the live per-hop active-instance map the data path reflects.
    Construct through ``Deployment.chain(...)`` — that builder also
    installs the chain's multicast forwarding rule.
    """

    def __init__(self, controller, spec: ChainSpec) -> None:
        self.controller = controller
        self.spec = spec
        self.name = spec.name
        self.flt = spec.flt
        self.hops: List[ChainHop] = [
            ChainHop(hop_name, instances) for hop_name, instances in spec.hops
        ]
        #: Sub-filter routing overrides recorded by ``scale_chain``:
        #: (hop index, sub-filter, instance) triples, newest last.
        self.overrides: List[Tuple[int, Filter, str]] = []

    def hop_index(self, name: str) -> int:
        for index, hop in enumerate(self.hops):
            if hop.name == name:
                return index
        raise KeyError("chain %r has no hop %r" % (self.name, name))

    def hop(self, name: str) -> ChainHop:
        return self.hops[self.hop_index(name)]

    def active_ports(self) -> List[str]:
        """Switch action list reaching every hop's active instance."""
        return [self.controller.port_of(h.active) for h in self.hops]

    def route_for(self, index: int, port: str) -> List[str]:
        """The chain's full action list with hop ``index`` sent to ``port``.

        This is the ``route_actions`` hook a chain-scoped hop move
        threads into the move machinery: rerouting one hop (to its
        destination, to the controller for sequencing, ...) substitutes
        that hop's slot while every other hop keeps its active port.
        """
        actions = self.active_ports()
        actions[index] = port
        return actions

    def set_active(self, index: int, name: str) -> None:
        hop = self.hops[index]
        if name not in hop.instances:
            hop.instances.append(name)
        hop.active = name

    def add_instance(self, index: int, name: str) -> None:
        hop = self.hops[index]
        if name not in hop.instances:
            hop.instances.append(name)

    def describe_hops(self) -> str:
        """``hop=i1/i2|hop=i3`` — the trace attribute the auditor parses."""
        return "|".join(
            "%s=%s" % (hop.name, "/".join(hop.instances)) for hop in self.hops
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Chain(%s: %s)" % (
            self.name, " -> ".join(h.name for h in self.hops),
        )


class _HopPlan:
    """One hop's migration step inside a chain operation."""

    def __init__(self, index: int, hop_name: str, src: str, dst: str,
                 guarantee: Guarantee) -> None:
        self.index = index
        self.hop_name = hop_name
        self.src = src
        self.dst = dst
        self.guarantee = guarantee


class ChainOperation(Operation):
    """A composite chain-wide operation (move or scale).

    Hops migrate tail-to-head; each hop is an ordinary move carrying the
    chain's ``route_actions`` hook and chain-scoped trace attributes
    (``chain_id`` / ``hop``), so the chain auditor can stitch the
    per-hop causal slices back into one end-to-end story. The hop moves
    bypass the admission table — this operation's own admission
    reservation already covers the filter, and re-admitting each hop
    against it would self-deadlock.
    """

    kind = "chain"

    def __init__(
        self,
        controller,
        shard,
        chain: Chain,
        flt: Filter,
        dst_map: Dict[str, str],
        guarantee: Guarantee,
        hop_guarantees: Optional[Dict[str, Any]] = None,
        mode: str = "move",
    ) -> None:
        if mode not in ("move", "scale"):
            raise ValueError("unknown chain operation mode %r" % mode)
        self.controller = controller
        #: Home shard: every hop move of the chain runs on it.
        self.shard = shard
        self.sim = controller.sim
        self.chain = chain
        self.flt = flt
        self.guarantee = guarantee
        self.mode = mode
        self.obs = controller.obs

        hop_overrides = {
            name: Guarantee.parse(g)
            for name, g in (hop_guarantees or {}).items()
        }
        for name in hop_overrides:
            chain.hop_index(name)  # KeyError for unknown hops
        known = {hop.name for hop in chain.hops}
        unknown = set(dst_map) - known
        if unknown:
            raise ValueError(
                "dst_map names unknown hops %r of chain %r"
                % (sorted(unknown), chain.name)
            )
        self.plan: List[_HopPlan] = []
        for index, hop in enumerate(chain.hops):
            if hop.name not in dst_map:
                continue
            dst = dst_map[hop.name]
            src = hop.active
            if dst == src:
                raise ValueError(
                    "hop %r is already served by %r" % (hop.name, dst)
                )
            if mode == "move" and dst not in hop.instances:
                raise ValueError(
                    "destination %r is not a declared instance of hop %r"
                    % (dst, hop.name)
                )
            self.plan.append(_HopPlan(
                index, hop.name, src, dst,
                hop_overrides.get(hop.name, guarantee),
            ))
        if not self.plan:
            raise ValueError("dst_map selects no hop of chain %r" % chain.name)

        self.report = OperationReport(
            kind="chain",
            guarantee=guarantee,
            filter_repr=repr(flt),
            src="+".join(p.src for p in self.plan),
            dst="+".join(p.dst for p in self.plan),
        )
        self.done = self.sim.event("chain-done")
        self._abort_requested = None
        #: The hop move currently in flight (abort forwards into it).
        self._current: Optional[Operation] = None
        #: Hop plans whose move completed (commit ran) — rollback set.
        self._completed: List[_HopPlan] = []
        self._rolled_back: set = set()
        #: Per-hop OperationReports, in execution (tail-to-head) order.
        self.hop_reports: List[OperationReport] = []

        involved = sorted(
            {p.src for p in self.plan} | {p.dst for p in self.plan}
        )
        self.trace = self.obs.operation(
            self.sim,
            self.report,
            "chain",
            guarantee=guarantee.value,
            filter=repr(flt),
            chain=chain.name,
            mode=mode,
            hops=self._hops_attr(),
            instances=",".join(involved),
            **shard.trace_attrs,
        )
        if self.trace.root.span_id is not None:
            self.trace.root.set(op_id=self.trace.root.span_id)
        self.switch = self.trace.bind(controller.switch_client)

        self.process = self.sim.spawn(self._run(), name="chain-op")

    # ------------------------------------------------------------------ attrs

    def _hops_attr(self) -> str:
        """Every hop with its full instance set, migration targets included.

        The chain auditor uses this to learn, per hop, which instances'
        ``nf.process`` records count as "the packet crossed this hop".
        """
        extra: Dict[int, List[str]] = {}
        for p in self.plan:
            extra.setdefault(p.index, []).append(p.dst)
        parts = []
        for index, hop in enumerate(self.chain.hops):
            instances = list(hop.instances)
            for dst in extra.get(index, []):
                if dst not in instances:
                    instances.append(dst)
            parts.append("%s=%s" % (hop.name, "/".join(instances)))
        return "|".join(parts)

    def _chain_trace_attrs(self, plan: _HopPlan) -> Dict[str, str]:
        attrs = {
            "chain": self.chain.name,
            "hop": plan.hop_name,
            "hop_index": str(plan.index),
        }
        if self.trace.trace_id is not None:
            attrs["chain_id"] = str(self.trace.trace_id)
        return attrs

    def _abort_target(self) -> str:
        return self.plan[0].dst

    # ----------------------------------------------------------------- driver

    def _start_hop(self, plan: _HopPlan) -> Operation:
        chain = self.chain
        return self.controller._move_start(
            self.shard, plan.src, plan.dst, self.flt,
            guarantee=plan.guarantee,
            route_actions=lambda port, index=plan.index: chain.route_for(
                index, port
            ),
            trace_attrs=self._chain_trace_attrs(plan),
        )

    def _normalize(self, index: int, port: str):
        """Collapse a hop's post-move rules back to one MID multicast rule.

        An order-preserving hop move leaves a HIGH-priority rule behind;
        letting it linger would shadow the *next* hop's two-phase
        machinery. Install the full-chain action list at MID (replacing
        any same-priority leftover), then drop the HIGH overlay.
        """
        yield self.switch.install(
            self.flt, self.chain.route_for(index, port), MID_PRIORITY
        )
        yield self.switch.remove(self.flt, HIGH_PRIORITY)

    def _commit(self, plan: _HopPlan) -> None:
        if self.mode == "scale":
            self.chain.add_instance(plan.index, plan.dst)
            self.chain.overrides.append((plan.index, self.flt, plan.dst))
        else:
            self.chain.set_active(plan.index, plan.dst)

    def _run(self):
        self.report.started_at = self.sim.now
        try:
            self._checkpoint()
            # Tail-to-head: the suffix of the chain migrates first, so a
            # packet admitted at any instant crosses an old prefix and a
            # fully-migrated suffix — never a half-migrated middle.
            for plan in reversed(self.plan):
                self._checkpoint()
                with self.trace.phase(
                    "hop-%s" % plan.hop_name, mark="hop-%s" % plan.hop_name
                ):
                    operation = self._start_hop(plan)
                    self._current = operation
                    yield operation.done
                    self._current = None
                    self.hop_reports.append(operation.report)
                    if operation.report.aborted:
                        # The hop move already self-restored its state to
                        # the source; it is NOT in the rollback set.
                        raise SouthboundError(
                            "chain hop %r aborted: %s"
                            % (plan.hop_name, operation.report.aborted),
                            plan.dst,
                        )
                    self._completed.append(plan)
                    self._commit(plan)
                    port = self.controller.port_of(plan.dst)
                    yield from self._normalize(plan.index, port)
                self._merge_hop_accounting(operation.report)
                # An abort that raced this hop's completion lands here:
                # the hop committed (its release barrier drained), so it
                # is rolled back exactly once by the except path below.
                self._checkpoint()
            yield from self._sync_links()
            self.report.finished_at = self.sim.now
        except (NFCrash, SouthboundError) as crash:
            self.report.aborted = str(crash)
            if self._current is not None and not self._current.done.triggered:
                self._current.abort(str(crash))
                yield self._current.done
                self._current = None
            yield from self._rollback()
            self.report.finished_at = self.sim.now
        except Exception as exc:  # pragma: no cover - defensive
            self.trace.finish(aborted=str(exc))
            self.done.fail(exc)
            raise
        self.trace.finish(aborted=self.report.aborted)
        self.done.trigger(self.report)

    def _merge_hop_accounting(self, hop_report: OperationReport) -> None:
        agg = self.report
        for scope, count in hop_report.chunks_moved.items():
            agg.chunks_moved[scope] = agg.chunks_moved.get(scope, 0) + count
        for scope, count in hop_report.bytes_moved.items():
            agg.bytes_moved[scope] = agg.bytes_moved.get(scope, 0) + count
        for scope, count in hop_report.wire_bytes_moved.items():
            agg.wire_bytes_moved[scope] = (
                agg.wire_bytes_moved.get(scope, 0) + count
            )
        agg.packets_dropped += hop_report.packets_dropped
        agg.packets_in_events += hop_report.packets_in_events
        agg.packets_buffered_at_dst += hop_report.packets_buffered_at_dst
        agg.affected_uids |= hop_report.affected_uids
        agg.retries += hop_report.retries
        agg.timeouts += hop_report.timeouts

    # --------------------------------------------------------------- rollback

    def _rollback(self):
        """Reverse-move completed hops, head-most first.

        ``_completed`` is in migration order (tail first); reversing it
        un-migrates head-most first, so every intermediate state is
        again an old-prefix + new-suffix. Each hop is rolled back at
        most once (``_rolled_back``), loss-free, chain-aware.
        """
        for plan in reversed(self._completed):
            if plan.index in self._rolled_back:
                continue
            self._rolled_back.add(plan.index)
            chain = self.chain
            reverse = self.controller._move_start(
                self.shard, plan.dst, plan.src, self.flt,
                guarantee=Guarantee.LOSS_FREE,
                route_actions=lambda port, index=plan.index: chain.route_for(
                    index, port
                ),
                trace_attrs=dict(
                    self._chain_trace_attrs(plan), rollback="1"
                ),
            )
            yield reverse.done
            if reverse.report.aborted:
                self.report.notes.append(
                    "rollback of hop %r failed: %s"
                    % (plan.hop_name, reverse.report.aborted)
                )
                continue
            if self.mode == "scale":
                # The scale sub-filter rule is the only routing artifact;
                # dropping it re-merges the sub-space into the hop's
                # active instance via the chain's base multicast rule.
                self.chain.overrides = [
                    (i, f, inst) for (i, f, inst) in self.chain.overrides
                    if not (i == plan.index and inst == plan.dst)
                ]
                yield self.switch.remove(self.flt, MID_PRIORITY)
                yield self.switch.remove(self.flt, HIGH_PRIORITY)
            else:
                self.chain.set_active(plan.index, plan.src)
                port = self.controller.port_of(plan.src)
                yield from self._normalize(plan.index, port)
            self.report.notes.append("rolled back hop %r" % plan.hop_name)

    # ------------------------------------------------------------ linked state

    def _sync_links(self):
        """Re-synchronize cross-hop linked state after a chain move.

        For every declared hop link whose members include a migrated
        hop, run a short-lived strong share across the two hops' (new)
        active instances: the share's setup performs a pull-everything /
        push-union sync, after which it is torn down again.
        """
        if self.mode != "move" or not self.chain.spec.links:
            return
        moved = {p.hop_name for p in self._completed}
        for a, b in self.chain.spec.links:
            if a not in moved and b not in moved:
                continue
            inst_a = self.chain.hop(a).active
            inst_b = self.chain.hop(b).active
            share = self.controller._share_start(
                self.shard, [inst_a, inst_b], self.flt,
                scope="multi", consistency="strong",
            )
            yield share.started
            yield share.stop()
            self.report.notes.append(
                "re-synced linked state %s<->%s via %s/%s"
                % (a, b, inst_a, inst_b)
            )

    # ------------------------------------------------------------------ abort

    def abort(self, reason: str = "aborted by caller"):
        """Cancel the chain; completed hops roll back, the rest never run.

        The in-flight hop move is aborted too — but only while its
        ``done`` has not yet triggered. Without that guard, an abort
        racing the hop's completion in the same timestamp would hand the
        hop a stale cancellation: the hop's release barrier has already
        drained, its buffered packets are released and its state is
        live at the destination, so the chain must treat it as completed
        (one reverse move in the rollback path) rather than also asking
        the hop to unwind itself. Same shape as the done-callback guard
        on :meth:`DeferredOperation._launch`.
        """
        if self.done is not None and not self.done.triggered:
            if self._abort_requested is None:
                self._abort_requested = reason
            current = self._current
            if current is not None and not current.done.triggered:
                current.abort(reason)
        return self.done
