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
from repro.nf.southbound import SouthboundError
from repro.controller.move import Guarantee
from repro.controller.operation import Operation, _plan
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
        self.add_instance(index, name)
        self.hops[index].active = name

    def add_instance(self, index: int, name: str) -> None:
        hop = self.hops[index]
        if name not in hop.instances:
            hop.instances.append(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Chain(%s: %s)" % (
            self.name, " -> ".join(h.name for h in self.hops),
        )


class _Hop:
    """One hop's migration inside a chain operation: ``src`` → ``dst``."""

    def __init__(self, index: int, name: str, src: str, dst: str,
                 guarantee: Guarantee, rollback: bool = False) -> None:
        self.index = index
        self.name = name
        self.src = src
        self.dst = dst
        self.guarantee = guarantee
        self.rollback = rollback

    def inverse(self) -> "_Hop":
        """The rollback of this hop: the same migration backwards,
        loss-free whatever the forward guarantee was."""
        return _Hop(self.index, self.name, self.dst, self.src,
                    Guarantee.LOSS_FREE, rollback=True)


#: mode → row. Hops migrate tail-to-head; a move then re-synchronizes
#: linked state, a scale (one hop, a sub-filter) has none to re-sync.
CHAIN_PLANS = {
    "move": _plan("migrate-hops", "sync-links"),
    "scale": _plan("migrate-hops"),
}


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
        if mode not in CHAIN_PLANS:
            raise ValueError("unknown chain operation mode %r" % mode)
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
        #: The hops to migrate, in chain (head-to-tail) order.
        self.hops: List[_Hop] = []
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
            self.hops.append(_Hop(
                index, hop.name, src, dst,
                hop_overrides.get(hop.name, guarantee),
            ))
        if not self.hops:
            raise ValueError("dst_map selects no hop of chain %r" % chain.name)
        self.chain = chain
        self.mode = mode
        #: The hop move currently in flight (abort forwards into it).
        self._current: Optional[Operation] = None
        #: Hops whose move completed (commit ran) — the rollback set.
        self._completed: List[_Hop] = []
        #: Per-hop OperationReports, in execution (tail-to-head) order.
        self.hop_reports: List[OperationReport] = []
        sources = [hop.src for hop in self.hops]
        destinations = [hop.dst for hop in self.hops]
        super().__init__(
            controller, shard, flt, CHAIN_PLANS[mode],
            dict(guarantee=guarantee.value, chain=chain.name, mode=mode,
                 hops=self._hops_attr(),
                 instances=",".join(sorted(set(sources + destinations)))),
            guarantee=guarantee,
            ends=("+".join(sources), "+".join(destinations)),
        )

    # ------------------------------------------------------------------ attrs

    def _hops_attr(self) -> str:
        """Every hop with its full instance set, migration targets included.

        The chain auditor uses this to learn, per hop, which instances'
        ``nf.process`` records count as "the packet crossed this hop".
        """
        extra = {hop.index: hop.dst for hop in self.hops}
        parts = []
        for index, hop in enumerate(self.chain.hops):
            instances = list(hop.instances)
            if index in extra and extra[index] not in instances:
                instances.append(extra[index])
            parts.append("%s=%s" % (hop.name, "/".join(instances)))
        return "|".join(parts)

    def _chain_trace_attrs(self, hop: _Hop) -> Dict[str, str]:
        attrs = {
            "chain": self.chain.name,
            "hop": hop.name,
            "hop_index": str(hop.index),
        }
        if self.trace.trace_id is not None:
            attrs["chain_id"] = str(self.trace.trace_id)
        if hop.rollback:
            attrs["rollback"] = "1"
        return attrs

    # ----------------------------------------------------------------- driver

    def _move_hop(self, hop: _Hop):
        """Run one hop's move (past admission); returns its report."""
        chain = self.chain
        move = self.controller._move_start(
            self.shard, hop.src, hop.dst, self.flt,
            guarantee=hop.guarantee,
            route_actions=lambda port: chain.route_for(hop.index, port),
            trace_attrs=self._chain_trace_attrs(hop),
        )
        if not hop.rollback:
            self._current = move
        yield move.done
        self._current = None
        return move.report

    def _commit(self, hop: _Hop):
        """Point the chain at ``hop.dst`` and collapse the hop's rules.

        An order-preserving hop move leaves a HIGH-priority rule behind;
        letting it linger would shadow the *next* hop's two-phase
        machinery. Install the full-chain action list at MID (replacing
        any same-priority leftover), then drop the HIGH overlay. Undoing
        a scale instead drops its sub-filter rules: that re-merges the
        sub-space into the hop's active instance via the chain's base
        multicast rule.
        """
        chain = self.chain
        if self.mode == "move":
            chain.set_active(hop.index, hop.dst)
        elif not hop.rollback:
            chain.add_instance(hop.index, hop.dst)
            chain.overrides.append((hop.index, self.flt, hop.dst))
        else:
            chain.overrides = [
                (i, f, inst) for (i, f, inst) in chain.overrides
                if not (i == hop.index and inst == hop.src)
            ]
            yield self.switch.remove(self.flt, MID_PRIORITY)
            yield self.switch.remove(self.flt, HIGH_PRIORITY)
            return
        yield self.switch.install(
            self.flt,
            chain.route_for(hop.index, self.controller.port_of(hop.dst)),
            MID_PRIORITY,
        )
        yield self.switch.remove(self.flt, HIGH_PRIORITY)

    def _step_migrate_hops(self, parent):
        # Tail-to-head: the suffix of the chain migrates first, so a
        # packet admitted at any instant crosses an old prefix and a
        # fully-migrated suffix — never a half-migrated middle.
        for hop in reversed(self.hops):
            self._checkpoint()
            with self._phase(
                "hop-%s" % hop.name, "hop-%s" % hop.name, parent
            ):
                report = yield from self._move_hop(hop)
                self.hop_reports.append(report)
                if report.aborted:
                    # The hop move already self-restored its state to
                    # the source; it is NOT in the rollback set.
                    raise SouthboundError(
                        "chain hop %r aborted: %s"
                        % (hop.name, report.aborted),
                        hop.dst,
                    )
                self._completed.append(hop)
                yield from self._commit(hop)
            self._merge_hop_accounting(report)
            # An abort that raced this hop's completion lands here: the
            # hop committed (its release barrier drained), so it is
            # rolled back exactly once by the recovery below.
            self._checkpoint()

    def _merge_hop_accounting(self, hop_report: OperationReport) -> None:
        agg = self.report
        for counter in ("chunks_moved", "bytes_moved", "wire_bytes_moved"):
            totals = getattr(agg, counter)
            for scope, count in getattr(hop_report, counter).items():
                totals[scope] = totals.get(scope, 0) + count
        agg.packets_dropped += hop_report.packets_dropped
        agg.packets_in_events += hop_report.packets_in_events
        agg.packets_buffered_at_dst += hop_report.packets_buffered_at_dst
        agg.affected_uids |= hop_report.affected_uids
        agg.retries += hop_report.retries
        agg.timeouts += hop_report.timeouts

    # --------------------------------------------------------------- rollback

    def _recover(self, crash):
        if self._current is not None and not self._current.done.triggered:
            self._current.abort(str(crash))
            yield self._current.done
            self._current = None
        # ``_completed`` is in migration order (tail first); undoing it
        # head-most first keeps every intermediate state an old-prefix +
        # new-suffix. Each undo is the hop's own migration, inverted.
        for hop in reversed(self._completed):
            undo = hop.inverse()
            report = yield from self._move_hop(undo)
            if report.aborted:
                self.report.notes.append(
                    "rollback of hop %r failed: %s"
                    % (hop.name, report.aborted)
                )
                continue
            yield from self._commit(undo)
            self.report.notes.append("rolled back hop %r" % hop.name)
        self.report.finished_at = self.sim.now

    # ------------------------------------------------------------ linked state

    def _step_sync_links(self, parent):
        """Re-synchronize cross-hop linked state after a chain move.

        For every declared hop link whose members include a migrated
        hop, run a short-lived strong share across the two hops' (new)
        active instances: the share's setup performs a pull-everything /
        push-union sync, after which it is torn down again.
        """
        moved = {hop.name for hop in self._completed}
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
        current = self._current
        if current is not None and not current.done.triggered:
            current.abort(reason)
        return super().abort(reason)
