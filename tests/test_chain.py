"""Chain-wide operations: move_chain / scale_chain.

The chain is the unit of control: one declarative spec, one multicast
data-path rule, one composite operation migrating hops tail-to-head so
no packet ever crosses a half-migrated middle. These tests pin the
spec-model validation, the sequencing invariant, the chain-level
auditor's verdicts (clean loss-free chains, exact hop citations for
deliberately-dirty ones), rollback on abort, scale-out, the sharded
facade, and the conformance-kit chain cells at shards 1 and 2.
"""

import pytest

from repro.conformance import (
    ScheduleSpec,
    run_schedule,
    spec_for_chain_cell,
)
from repro.conformance.runner import NF_FACTORIES
from repro.controller.chain import ChainSpec
from repro.flowspace import Filter
from repro.harness import (
    Deployment,
    LOCAL_NET_FILTER,
    check_chain_loss_free,
    run_move_experiment,
)
from repro.controller.move import Guarantee
from repro.traffic.replay import TraceReplayer
from repro.traffic.traces import TraceConfig, build_university_cloud_trace

HOPS = [("ids", ("i1", "i2")), ("nat", ("n1", "n2")), ("proxy", ("p1", "p2"))]
DST_MAP = {"ids": "i2", "nat": "n2", "proxy": "p2"}
MATRIX_FAULTS = "seed=3,drop=0.03,dup=0.02,delay=0.2,delay_ms=2.0"


def build_chain_deployment(shards=1, faults=None, batching=None):
    """Six NFs in three hops behind one multicast chain rule."""
    dep = Deployment(audit=True, shards=shards, faults=faults,
                     batching=batching)
    nfs = {}
    for kind, names in HOPS:
        for name in names:
            nf = NF_FACTORIES[kind](dep.sim, name)
            dep.add_nf(nf)
            nfs[name] = nf
    chain = dep.chain("edge", HOPS, flt=LOCAL_NET_FILTER)
    return dep, chain, nfs


def replay_trace(dep, n_flows=40, data_packets=10, rate_pps=2500.0):
    trace = build_university_cloud_trace(TraceConfig(
        seed=5, n_flows=n_flows, data_packets=data_packets,
    ))
    replayer = TraceReplayer(dep.sim, dep.inject, trace.packets,
                             rate_pps=rate_pps)
    replayer.start()
    return replayer


def run_chain_move(dep, chain, guarantee="lf", hop_guarantees=None,
                   abort_after_ms=None):
    replayer = replay_trace(dep)
    holder = {}

    def kickoff():
        holder["op"] = dep.controller.move_chain(
            chain, LOCAL_NET_FILTER, DST_MAP,
            guarantee=guarantee, hop_guarantees=hop_guarantees,
        )
        if abort_after_ms is not None:
            dep.sim.schedule(abort_after_ms,
                             lambda: holder["op"].abort("test abort"))

    dep.sim.schedule(replayer.duration_ms / 2.0, kickoff)
    dep.sim.run()
    return holder["op"]


def hop_instance_pairs(nfs):
    return [(hop, [nfs[n] for n in names]) for hop, names in HOPS]


class TestChainSpec:
    def test_rejects_empty_hop_list(self):
        with pytest.raises(ValueError, match="at least one hop"):
            ChainSpec("c", [], LOCAL_NET_FILTER)

    def test_rejects_duplicate_hop_names(self):
        with pytest.raises(ValueError, match="unique"):
            ChainSpec("c", [("ids", "i1"), ("ids", "i2")], LOCAL_NET_FILTER)

    def test_rejects_instance_serving_two_hops(self):
        with pytest.raises(ValueError, match="only one chain hop"):
            ChainSpec("c", [("ids", "i1"), ("nat", ("i1", "n2"))],
                      LOCAL_NET_FILTER)

    def test_rejects_link_to_unknown_hop(self):
        with pytest.raises(ValueError, match="unknown hop"):
            ChainSpec("c", [("ids", "i1")], LOCAL_NET_FILTER,
                      links=[("ids", "nat")])

    def test_normalizes_bare_string_instances(self):
        spec = ChainSpec("c", [("ids", "i1"), ("nat", ("n1", "n2"))],
                         LOCAL_NET_FILTER)
        assert spec.hops[0] == ("ids", ("i1",))
        assert spec.hops[1] == ("nat", ("n1", "n2"))


class TestChainDataPath:
    def test_multicast_rule_reaches_every_active_hop(self):
        dep, chain, nfs = build_chain_deployment()
        replay_trace(dep, n_flows=10, data_packets=4)
        dep.sim.run()
        # One injection, every hop's active instance processes it; the
        # standby instances see nothing.
        for active in ("i1", "n1", "p1"):
            assert nfs[active].processing_log
        for standby in ("i2", "n2", "p2"):
            assert not nfs[standby].processing_log

    def test_chain_builder_rejects_unknown_instance(self):
        dep = Deployment()
        dep.add_nf(NF_FACTORIES["ids"](dep.sim, "i1"))
        with pytest.raises(ValueError, match="ghost"):
            dep.chain("c", [("ids", ("i1", "ghost"))], flt=LOCAL_NET_FILTER)


class TestMoveChain:
    def test_hops_migrate_tail_to_head(self):
        dep, chain, nfs = build_chain_deployment()
        op = run_chain_move(dep, chain, guarantee="lf")
        report = op.done.value
        assert report.aborted is None
        # Execution order is the reverse of chain order: proxy first,
        # ids last — the old-prefix/new-suffix invariant.
        assert [r.src for r in op.hop_reports] == ["p1", "n1", "i1"]
        finishes = [r.finished_at for r in op.hop_reports]
        assert finishes == sorted(finishes)
        assert [hop.active for hop in chain.hops] == ["i2", "n2", "p2"]

    def test_loss_free_chain_is_clean(self):
        dep, chain, nfs = build_chain_deployment()
        run_chain_move(dep, chain, guarantee="lf")
        ok, detail = check_chain_loss_free(dep.switch,
                                           hop_instance_pairs(nfs))
        assert ok, detail
        assert dep.obs.violations() == []

    def test_loss_free_chain_under_faults_batching_and_sharding(self):
        """The acceptance cell: 3-hop LF chain, faults + batching, 2 shards."""
        dep, chain, nfs = build_chain_deployment(
            shards=2, faults=MATRIX_FAULTS, batching=True,
        )
        op = run_chain_move(dep, chain, guarantee="lf")
        assert op.done.value.aborted is None
        ok, detail = check_chain_loss_free(dep.switch,
                                           hop_instance_pairs(nfs))
        assert ok, detail
        assert dep.obs.violations() == []
        assert [hop.active for hop in chain.hops] == ["i2", "n2", "p2"]

    def test_ng_middle_hop_cited_by_chain_auditor(self):
        dep, chain, nfs = build_chain_deployment()
        run_chain_move(dep, chain, guarantee="lf",
                       hop_guarantees={"nat": "ng"})
        chain_violations = [
            v for v in dep.obs.violations() if v.check == "chain-loss-free"
        ]
        assert chain_violations
        # The citation is exact: only the deliberately-dirty hop.
        assert {v.nf for v in chain_violations} == {"nat"}

    def test_abort_rolls_back_completed_hops(self):
        dep, chain, nfs = build_chain_deployment()
        op = run_chain_move(dep, chain, guarantee="lf", abort_after_ms=150.0)
        report = op.done.value
        assert report.aborted
        assert [hop.active for hop in chain.hops] == ["i1", "n1", "p1"]
        rollbacks = [n for n in report.notes if n.startswith("rolled back")]
        assert rollbacks and len(rollbacks) == len(set(rollbacks))
        assert dep.controller.replicas[0]._admission == {}

    def test_rejects_destination_outside_hop(self):
        dep, chain, _ = build_chain_deployment()
        with pytest.raises(ValueError, match="not a declared instance"):
            dep.controller.move_chain(chain, LOCAL_NET_FILTER,
                                      {"ids": "n2"}, guarantee="lf")

    def test_rejects_unknown_hop_in_dst_map(self):
        dep, chain, _ = build_chain_deployment()
        with pytest.raises(ValueError, match="unknown hops"):
            dep.controller.move_chain(chain, LOCAL_NET_FILTER,
                                      {"firewall": "i2"}, guarantee="lf")


class TestScaleChain:
    def test_scale_out_splits_subspace_to_new_instance(self):
        dep, chain, nfs = build_chain_deployment()
        replayer = replay_trace(dep)
        holder = {}

        def kickoff():
            holder["op"] = dep.controller.scale_chain(
                chain, "nat", "n2", flt=LOCAL_NET_FILTER, guarantee="lf",
            )

        dep.sim.schedule(replayer.duration_ms / 2.0, kickoff)
        dep.sim.run()
        report = holder["op"].done.value
        assert report.aborted is None
        assert "n2" in chain.hop("nat").instances
        assert len(chain.overrides) == 1
        assert nfs["n2"].processing_log
        ok, detail = check_chain_loss_free(dep.switch,
                                           hop_instance_pairs(nfs))
        assert ok, detail


class TestChainConformanceCells:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_lf_chain_cell_is_clean(self, shards):
        spec = spec_for_chain_cell(shards=shards, faults=True, batching=True)
        # Chain cells replay bit-for-bit through the JSON round-trip,
        # like every other corpus schedule.
        spec = ScheduleSpec.from_json(spec.to_json())
        result = run_schedule(spec)
        assert result.clean, result.summary()

    def test_ng_hop_cell_is_expected_dirty(self):
        spec = spec_for_chain_cell(hop_guarantees={"nat": "ng"})
        assert spec.expected_dirty
        assert run_schedule(spec).ok

    def test_label_names_the_chain(self):
        spec = spec_for_chain_cell(shards=2)
        assert "chain[ids-nat-proxy]:lf" in spec.label()
        assert "shards2" in spec.label()


class TestBlessedApi:
    def test_top_level_surface_exposes_chain_types(self):
        import repro

        for name in ("Chain", "ChainOperation", "ChainSpec", "Deployment",
                     "Guarantee", "Operation", "Filter", "FaultPlan"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_experiment_harness_takes_any_guarantee_spelling(self):
        # The harness hands the value to controller.move, which parses.
        for guarantee in ("loss-free", Guarantee.LOSS_FREE):
            result = run_move_experiment(guarantee=guarantee, n_flows=4,
                                         data_packets=2)
            assert result.report.guarantee is Guarantee.LOSS_FREE
            assert result.loss_free, result.loss_free_detail


class TestShardedFacade:
    def test_move_chain_lands_on_home_replica(self):
        dep, chain, nfs = build_chain_deployment(shards=2)
        op = run_chain_move(dep, chain, guarantee="lf+op")
        assert op.done.value.aborted is None
        assert [hop.active for hop in chain.hops] == ["i2", "n2", "p2"]
        ok, detail = check_chain_loss_free(dep.switch,
                                           hop_instance_pairs(nfs))
        assert ok, detail
