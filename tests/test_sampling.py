"""Deterministic head+tail trace sampling.

Heads are a pure function of (seed, key) — replayable across runs and
processes; tails always keep the complete causal trace of aborted,
slow, or auditor-flagged operations, including late resurrection from
the discarded ring when a violation only surfaces at finalize.
"""

import pytest

from repro.flowspace.filter import Filter
from repro.harness.deployment import Deployment
from repro.harness.scenarios import run_move_experiment
from repro.net.packet import Packet, reset_uid_counter
from repro.nfs.monitor import AssetMonitor
from repro.obs.sampling import SamplingPolicy, TraceSampler, stable_fraction
from repro.traffic.replay import TraceReplayer
from repro.traffic.traces import TraceConfig, build_university_cloud_trace


pytestmark = pytest.mark.obs


class FakeSpan:
    def __init__(self, span_id, trace_id=None, duration_ms=0.0):
        self.span_id = span_id
        self.duration_ms = duration_ms
        self.attrs = {} if trace_id is None else {"trace_id": trace_id}


class FakeExporter:
    def __init__(self):
        self.spans = []
        self.records = []

    def export_span(self, span):
        self.spans.append(span)

    def export_record(self, record):
        self.records.append(record)


def run_op(sampler, trace_id, aborted=None, duration_ms=1.0, extra=0):
    """Feed one operation (root span + records + op.end) through."""
    sampler.export_span(FakeSpan(trace_id, trace_id, duration_ms))
    for index in range(extra):
        sampler.export_record(
            {"name": "nf.process", "trace_id": trace_id, "uid": index}
        )
    end = {"name": "op.end", "trace_id": trace_id}
    if aborted is not None:
        end["aborted"] = aborted
    sampler.export_record(end)


class TestStableFraction:
    def test_deterministic_and_uniform_range(self):
        draws = [stable_fraction(("op", index), seed=3) for index in range(64)]
        assert draws == [stable_fraction(("op", index), seed=3)
                        for index in range(64)]
        assert all(0.0 <= draw < 1.0 for draw in draws)

    def test_seed_changes_the_draw(self):
        keys = [("op", index) for index in range(64)]
        assert [stable_fraction(key, 0) for key in keys] != \
            [stable_fraction(key, 1) for key in keys]


class TestSamplingPolicy:
    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError):
            SamplingPolicy(head_rate=1.5)
        with pytest.raises(ValueError):
            SamplingPolicy(flow_rate=-0.1)

    def test_flow_rate_defaults_to_head_rate(self):
        assert SamplingPolicy(head_rate=0.25).flow_rate == 0.25
        assert SamplingPolicy(head_rate=0.25, flow_rate=0.5).flow_rate == 0.5


class TestTraceSampler:
    def test_head_rate_zero_discards_clean_ops(self):
        base = FakeExporter()
        sampler = TraceSampler(base, SamplingPolicy(head_rate=0.0))
        run_op(sampler, trace_id=1, extra=3)
        assert base.spans == [] and base.records == []
        stats = sampler.stats()
        assert stats["ops_seen"] == 1 and stats["ops_discarded"] == 1

    def test_head_rate_one_keeps_everything_in_order(self):
        base = FakeExporter()
        sampler = TraceSampler(base, SamplingPolicy(head_rate=1.0))
        run_op(sampler, trace_id=1, extra=2)
        assert [span.span_id for span in base.spans] == [1]
        assert [record["name"] for record in base.records] == \
            ["nf.process", "nf.process", "op.end"]

    def test_head_decisions_are_seed_deterministic(self):
        decisions = [
            TraceSampler(FakeExporter(),
                         SamplingPolicy(head_rate=0.3, seed=9)
                         ).keep_op_head(tid)
            for tid in range(100)
        ]
        again = [
            TraceSampler(FakeExporter(),
                         SamplingPolicy(head_rate=0.3, seed=9)
                         ).keep_op_head(tid)
            for tid in range(100)
        ]
        assert decisions == again
        assert any(decisions) and not all(decisions)

    def test_aborted_op_always_kept(self):
        base = FakeExporter()
        sampler = TraceSampler(base, SamplingPolicy(head_rate=0.0))
        run_op(sampler, trace_id=1, aborted="boom", extra=2)
        assert len(base.records) == 3
        assert sampler.stats()["ops_kept_tail"] == 1

    def test_slow_op_kept_by_duration_rule(self):
        base = FakeExporter()
        sampler = TraceSampler(
            base, SamplingPolicy(head_rate=0.0, slow_ms=50.0)
        )
        run_op(sampler, trace_id=1, duration_ms=49.9)
        run_op(sampler, trace_id=2, duration_ms=50.0)
        kept = {span.span_id for span in base.spans}
        assert kept == {2}
        assert sampler.stats()["ops_kept_tail"] == 1

    def test_flag_before_decision_wins(self):
        base = FakeExporter()
        sampler = TraceSampler(base, SamplingPolicy(head_rate=0.0))
        sampler.export_span(FakeSpan(1, 1))
        sampler.flag(1)
        sampler.export_record({"name": "op.end", "trace_id": 1})
        assert [span.span_id for span in base.spans] == [1]

    def test_late_flag_resurrects_from_discarded_ring(self):
        base = FakeExporter()
        sampler = TraceSampler(base, SamplingPolicy(head_rate=0.0))
        run_op(sampler, trace_id=1, extra=2)
        assert base.records == []
        sampler.flag(1)  # e.g. a violation surfacing at auditor finalize
        assert [record["name"] for record in base.records] == \
            ["nf.process", "nf.process", "op.end"]
        stats = sampler.stats()
        assert stats["ops_resurrected"] == 1
        assert stats["ops_discarded"] == 0
        # Late entries for a kept op now pass straight through.
        sampler.export_record({"name": "late", "trace_id": 1})
        assert base.records[-1]["name"] == "late"

    def test_discarded_ring_is_bounded(self):
        sampler = TraceSampler(
            FakeExporter(), SamplingPolicy(head_rate=0.0, keep_discarded=2)
        )
        for tid in (1, 2, 3):
            run_op(sampler, trace_id=tid)
        assert list(sampler._discarded) == [2, 3]
        # The evicted op can no longer be resurrected (no entries kept)
        # but flagging it is still harmless.
        sampler.flag(1)
        assert sampler.stats()["ops_resurrected"] == 0

    def test_flow_records_head_sampled_without_trace_id(self):
        base = FakeExporter()
        sampler = TraceSampler(base, SamplingPolicy(flow_rate=0.0))
        sampler.export_record({"name": "nf.process", "flow": "a"})
        assert base.records == []
        assert sampler.records_sampled_out == 1
        keep_all = TraceSampler(FakeExporter(), SamplingPolicy(flow_rate=1.0))
        assert keep_all.keep_flow("a") and keep_all.keep_flow("b")
        # Records with neither trace id nor flow pass straight through.
        sampler.export_record({"name": "loose"})
        assert base.records == [{"name": "loose"}]

    def test_flow_memo_is_bounded_and_recomputable(self):
        sampler = TraceSampler(
            FakeExporter(), SamplingPolicy(flow_rate=0.5, max_flow_memo=4)
        )
        verdicts = {key: sampler.keep_flow(key) for key in "abcdefgh"}
        assert len(sampler._flow_memo) == 4
        # Decisions past the memo cap are identical when recomputed —
        # the memo is an optimization, never a behavior change.
        assert all(sampler.keep_flow(key) == verdict
                   for key, verdict in verdicts.items())

    def test_finalize_keeps_open_ops_and_reports_stats(self):
        base = FakeExporter()
        sampler = TraceSampler(base, SamplingPolicy(head_rate=0.0))
        sampler.export_span(FakeSpan(1, 1))
        sampler.export_record({"name": "nf.process", "trace_id": 1})
        stats = sampler.finalize()
        assert sampler.finalized
        assert stats["ops_kept_open"] == 1 and stats["ops_kept"] == 1
        assert len(base.spans) == 1 and len(base.records) == 1

    def test_spans_without_trace_id_bypass_sampling(self):
        base = FakeExporter()
        sampler = TraceSampler(base, SamplingPolicy(head_rate=0.0))
        sampler.export_span(FakeSpan(7))
        assert [span.span_id for span in base.spans] == [7]


class TestObservabilityIntegration:
    def _move(self, **deployment):
        reset_uid_counter()
        return run_move_experiment("lf", n_flows=20, seed=5, **deployment)

    def test_packet_gate_only_without_taps(self):
        gated = self._move(sampling=SamplingPolicy(head_rate=0.1, seed=1))
        obs = gated.deployment.obs
        assert obs.packet_gate == obs.sampling.keep_flow
        # Auditors need the full stream: the gate must stay off and the
        # sampler filters at the storage layer instead.
        audited = self._move(
            audit=True, sampling=SamplingPolicy(head_rate=0.1, seed=1)
        )
        assert audited.deployment.obs.packet_gate is None

    def test_gate_drops_unsampled_flows_at_source(self):
        result = self._move(sampling=SamplingPolicy(flow_rate=0.2, seed=1))
        obs = result.deployment.obs
        sampler = obs.sampling
        flows = {
            record["flow"] for record in obs.exporter.records
            if record.get("name") == "nf.process"
        }
        assert flows  # some flows were sampled in
        assert all(sampler.keep_flow(flow) for flow in flows)
        # Gated at the source: unsampled records were never built, so
        # the storage-layer counter stays untouched.
        assert sampler.records_sampled_out == 0

    def test_gate_verdict_memoized_per_gate_on_the_tuple(self):
        dep = Deployment(sampling=SamplingPolicy(flow_rate=0.2, seed=1))
        dep.add_nf(AssetMonitor(dep.sim, "inst1"))
        dep.set_default_route("inst1")
        trace = build_university_cloud_trace(
            TraceConfig(seed=5, n_flows=10, data_packets=4)
        )
        TraceReplayer(dep.sim, dep.inject, trace.packets,
                      rate_pps=5000.0).start()
        dep.sim.run()
        gate = dep.obs.packet_gate
        # Blueprints share their FiveTuple objects with the packets they
        # built, so the gate's per-flow verdicts are visible here.
        tuples = list({
            id(bp.five_tuple): bp.five_tuple for bp in trace.packets
        }.values())
        cached = [t for t in tuples if t._gate_keep is not None]
        assert cached
        # Every cached verdict is tagged with *this* deployment's gate
        # (a stale gate from another run must never be trusted) and
        # agrees with a fresh, memo-free recomputation.
        for five_tuple in cached:
            gate_tag, flow = five_tuple._gate_keep
            assert gate_tag is gate
            assert (flow is not None) == gate(Packet(five_tuple).flow_key())

    def test_audit_tap_sees_full_stream_while_store_is_sampled(self):
        result = self._move(
            audit=True,
            sampling=SamplingPolicy(head_rate=0.0, flow_rate=0.0, seed=1),
        )
        obs = result.deployment.obs
        assert obs.violations() == []
        stored_packet_records = [
            record for record in obs.exporter.records
            if record.get("name") == "nf.process"
        ]
        assert stored_packet_records == []
        assert obs.sampling.records_sampled_out > 0
        # The flight recorder taps *above* the sampler: it retained the
        # per-packet records the stored exporter sampled out.
        recorded = sum(len(ring) for ring in obs.recorder._records.values())
        assert recorded > 0

    def test_stamped_packet_and_chunk_facts_share_their_operations_fate(self):
        """``nf.drop`` / ``nf.buffer`` / ``nf.chunk.*`` carry the causing
        operation's ``trace_id``, so the store keeps or discards them
        with it — the taps above the sampler still see every one."""
        stamped = ("nf.drop", "nf.buffer", "nf.chunk.export",
                   "nf.chunk.import")

        def stored(obs):
            names = [span.name for span in obs.exporter.spans]
            names += [record["name"] for record in obs.exporter.records]
            return [name for name in names if name in stamped]

        policy = SamplingPolicy(head_rate=0.0, seed=1)
        clean = self._move(audit=True, sampling=policy).deployment.obs
        assert clean.violations() == []
        assert clean.audit.registry.ops  # the auditors saw the move
        assert stored(clean) == []  # unsampled and clean: gone with it

        reset_uid_counter()
        dirty = run_move_experiment(
            "ng", n_flows=20, seed=5,
            audit=True, sampling=policy,
        ).deployment.obs
        assert dirty.violations()
        # Flagged by the auditors: the whole operation is retained, the
        # dropped packets' spans and its chunk records included.
        kept = stored(dirty)
        assert "nf.drop" in kept and "nf.chunk.export" in kept

    def test_clean_move_trace_respects_head_rate(self):
        result = self._move(sampling=SamplingPolicy(head_rate=0.0, seed=1))
        obs = result.deployment.obs
        stats = obs.flush_sampling()
        assert stats["ops_seen"] >= 1
        assert stats["ops_kept_head"] == 0
        op_ends = [record for record in obs.exporter.records
                   if record.get("name") == "op.end"]
        assert op_ends == []

    def test_aborted_move_survives_sampling(self):
        def operation(dep):
            op = dep.controller.move(
                "inst1", "inst2",
                Filter({"nw_src": "10.0.0.0/8"}, symmetric=True),
            )
            dep.sim.schedule(0.05, lambda: op.abort("test abort"))
            return op

        reset_uid_counter()
        result = run_move_experiment(
            "lf", n_flows=20, seed=5, operation=operation,
            sampling=SamplingPolicy(head_rate=0.0, seed=1),
        )
        obs = result.deployment.obs
        obs.flush_sampling()
        op_ends = [record for record in obs.exporter.records
                   if record.get("name") == "op.end"]
        assert any(record.get("aborted") for record in op_ends)
        assert obs.sampling.ops_kept_tail >= 1
