"""Online guarantee auditors, flight recorder, and ``repro audit``.

The auditors watch the span/record stream and verify the §5.1
guarantees *while the run happens*: every OpenNF loss-free move —
including under injected control-plane faults and with batching — must
audit clean, while the Split/Merge baseline (which genuinely drops
in-flight packets, §2.2) must produce loss violations naming the exact
flow and dropped-packet spans. A forced mid-move abort must freeze a
post-mortem flight-recorder bundle containing the operation's causal
slice. Auditing is read-only: the simulated timeline is identical with
it on or off.
"""

import json

import pytest

from repro.baselines import SplitMergeMigrate
from repro.cli import main as cli_main
from repro.flowspace import Filter
from repro.harness import (
    LOCAL_NET_FILTER,
    Deployment,
    check_loss_free,
    run_move_experiment,
)
from repro.net.packet import reset_uid_counter
from repro.nfs.monitor import AssetMonitor
from repro.obs import (
    AuditPipeline,
    InMemoryExporter,
    audit_entries,
    entries_from_obs,
    load_trace_entries,
    render_bundle,
    write_trace,
)
from repro.traffic.replay import TraceReplayer
from repro.traffic.traces import TraceConfig, build_university_cloud_trace

pytestmark = pytest.mark.obs


def splitmerge_operation(dep):
    return SplitMergeMigrate(
        dep.controller, "inst1", "inst2", LOCAL_NET_FILTER
    )


def normalized_timeline(result):
    """Timeline fingerprint with run-relative packet uids.

    Packet uids come from a process-global counter, so absolute uids
    differ between two runs in one test process; rebasing on the first
    injected uid makes runs with identical behaviour compare equal.
    """
    base = result.replayer.injected[0].uid
    return (
        [(p.uid - base, p.flow_key()) for p in result.replayer.injected],
        sorted(
            (uid - base, count)
            for uid, count in
            result.deployment.processed_uid_counts().items()
        ),
        result.report.duration_ms,
        result.report.retries,
        result.latency.average_added_ms,
        result.latency.max_added_ms,
    )


class TestLossFreeMovesAuditClean:
    @pytest.mark.parametrize("guarantee", ["lf", "op", "op-strong"])
    def test_opennf_moves_have_zero_violations(self, guarantee):
        result = run_move_experiment(
            guarantee=guarantee, n_flows=40, seed=5, audit=True
        )
        assert result.report.aborted is None
        assert result.deployment.obs.violations() == []

    def test_clean_under_faults_with_retries(self):
        result = run_move_experiment(
            guarantee="op", n_flows=40, seed=5, audit=True,
            faults="seed=3,drop=0.05",
        )
        assert result.report.aborted is None
        assert result.report.retries > 0
        assert result.deployment.obs.violations() == []

    def test_clean_with_batched_transport(self):
        result = run_move_experiment(
            guarantee="lf", n_flows=40, seed=5, audit=True, batching=True
        )
        assert result.report.aborted is None
        assert result.deployment.obs.violations() == []

    @pytest.mark.parametrize("drop", [0.0, 0.03, 0.08])
    def test_loss_sweep_zero_violations_and_identical_timeline(self, drop):
        plan = "seed=11,drop=%s" % drop if drop else None
        plain = run_move_experiment(
            guarantee="op", n_flows=30, seed=9, faults=plan
        )
        audited = run_move_experiment(
            guarantee="op", n_flows=30, seed=9, faults=plan, audit=True
        )
        assert audited.deployment.obs.violations() == []
        assert normalized_timeline(plain) == normalized_timeline(audited)


class TestConcurrentMovesAreToldApart:
    """The paper's scale-out / scale-in shapes: two correct, concurrent
    loss-free moves with disjoint filters that share an instance. Every
    packet and chunk belongs to the operation whose RPC caused it, not
    to "the last open operation at this NF"."""

    LOW = Filter({"nw_src": "10.0.1.0/28"}, symmetric=True)
    HIGH = Filter({"nw_src": "10.0.1.16/28"}, symmetric=True)

    def _run(self, moves, route_high_to=None):
        reset_uid_counter()
        dep = Deployment(audit=True)
        nfs = [AssetMonitor(dep.sim, "inst%d" % i) for i in (1, 2, 3)]
        for nf in nfs:
            dep.add_nf(nf)
        dep.set_default_route("inst1")
        if route_high_to is not None:
            dep.switch.table.install(self.HIGH, 11, [route_high_to], 0.0)
        trace = build_university_cloud_trace(TraceConfig(seed=3, n_flows=40))
        replayer = TraceReplayer(dep.sim, dep.inject, trace.packets,
                                 rate_pps=2500.0)
        replayer.start()
        handles = []

        def start_both():
            for src, dst, flt in moves:
                handles.append(dep.controller.move(
                    src, dst, flt, scope="per", guarantee="lf"
                ))

        dep.call_at(replayer.duration_ms / 2.0, start_both)
        dep.run()
        assert [h.report.aborted for h in handles] == [None, None]
        assert check_loss_free(dep.switch, nfs) == (True, "")
        return dep, handles

    def _assert_chunks_follow_their_move(self, dep, handles):
        ids = {(h.report.src, h.report.dst): h.trace.trace_id
               for h in handles}
        chunks = [r for r in dep.obs.exporter.records
                  if r["name"].startswith("nf.chunk.")]
        assert chunks
        by_move = {}
        for record in chunks:
            by_move.setdefault(record["trace_id"], []).append(record)
        assert set(by_move) == set(ids.values())
        for (src, dst), trace_id in ids.items():
            ends = {"nf.chunk.export": src, "nf.chunk.import": dst}
            assert all(r["nf"] == ends[r["name"]] for r in by_move[trace_id])
            exported = sorted(r["key"] for r in by_move[trace_id]
                              if r["name"] == "nf.chunk.export")
            imported = sorted(r["key"] for r in by_move[trace_id]
                              if r["name"] == "nf.chunk.import")
            assert exported == imported and exported

    def test_scale_out_two_moves_from_one_source(self):
        dep, handles = self._run([("inst1", "inst2", self.LOW),
                                  ("inst1", "inst3", self.HIGH)])
        assert dep.obs.violations() == []
        self._assert_chunks_follow_their_move(dep, handles)

    def test_scale_in_two_moves_into_one_destination(self):
        dep, handles = self._run([("inst1", "inst3", self.LOW),
                                  ("inst2", "inst3", self.HIGH)],
                                 route_high_to="inst2")
        assert dep.obs.violations() == []
        self._assert_chunks_follow_their_move(dep, handles)

    def test_captured_packets_name_the_rule_that_caught_them(self):
        dep, handles = self._run([("inst1", "inst2", self.LOW),
                                  ("inst1", "inst3", self.HIGH)])
        by_dst = {h.report.dst: h.trace.trace_id for h in handles}
        captured = dep.obs.exporter.find("nf.drop") + [
            r for r in dep.obs.exporter.records if r["name"] == "nf.buffer"
        ]
        assert captured
        for fact in captured:
            attrs = getattr(fact, "attrs", fact)
            dst = "inst2" if _client_in_low_block(attrs["flow"]) else "inst3"
            assert attrs["trace_id"] == by_dst[dst]


def _client_in_low_block(flow_key):
    """Is either end of a ``Packet.flow_key()`` inside ``10.0.1.0/28``?"""
    hosts = [end.rsplit(":", 1)[0]
             for end in flow_key.split("/")[0].split("-")]
    return any(host.startswith("10.0.1.") and int(host.split(".")[3]) < 16
               for host in hosts)


class TestBaselinesViolate:
    def test_splitmerge_reports_loss_with_flow_and_spans(self):
        result = run_move_experiment(
            operation=splitmerge_operation, n_flows=60, rate_pps=6000.0,
            audit=True,
        )
        assert result.report.packets_dropped > 0
        violations = result.deployment.obs.violations()
        loss = [v for v in violations if v.check == "loss-free"]
        assert len(loss) == result.report.packets_dropped
        # Each violation names the dropped packet's flow and cites its
        # nf.drop span; cross-check against the exported spans.
        drops = {
            s.span_id: s
            for s in result.deployment.obs.exporter.find("nf.drop")
        }
        for violation in loss:
            assert violation.op_kind == "splitmerge-migrate"
            (span_id,) = violation.span_ids
            span = drops[span_id]
            assert span.attrs["flow"] == violation.flow
            assert "uid=%s" % span.attrs["uid"] in violation.detail

    def test_ng_move_loss_matches_report(self):
        result = run_move_experiment(
            guarantee="ng", n_flows=40, seed=3, audit=True
        )
        violations = result.deployment.obs.violations()
        assert len(violations) == result.report.packets_dropped > 0
        assert all(v.check == "loss-free" for v in violations)

    def test_violation_matches_ground_truth_uids(self):
        result = run_move_experiment(
            guarantee="ng", n_flows=30, seed=7, audit=True
        )
        counts = result.deployment.processed_uid_counts()
        missing = {
            p.uid for p in result.replayer.injected if p.uid not in counts
        }
        cited = {
            int(v.detail.split("uid=")[1].split(" ")[0])
            for v in result.deployment.obs.violations()
        }
        assert cited == missing


class TestSyntheticStreams:
    """Unit-level checks of the auditor state machines."""

    @staticmethod
    def _start(pipeline, trace_id=1, kind="move", guarantee="loss-free",
               src="inst1", dst="inst2", t=0.0):
        pipeline.on_record({
            "name": "op.start", "time_ms": t, "trace_id": trace_id,
            "kind": kind, "guarantee": guarantee, "src": src, "dst": dst,
        })

    @staticmethod
    def _close(pipeline, trace_id=1, t=100.0, aborted=None):
        pipeline.on_record({
            "name": "op.end", "time_ms": t, "trace_id": trace_id,
            "kind": "move", "aborted": aborted,
        })

    def test_evented_drop_resolved_by_processing(self):
        pipeline = AuditPipeline()
        self._start(pipeline)
        pipeline.on_span({
            "name": "nf.drop", "span_id": 7, "start_ms": 5.0, "end_ms": 5.0,
            "attrs": {"nf": "inst1", "uid": 42, "flow": "f", "silent": False},
        })
        pipeline.on_record({
            "name": "nf.process", "time_ms": 9.0, "nf": "inst2",
            "uid": 42, "flow": "f",
        })
        self._close(pipeline)
        assert pipeline.finalize() == []

    def test_unresolved_capture_is_loss(self):
        pipeline = AuditPipeline()
        self._start(pipeline)
        pipeline.on_record({
            "name": "ctrl.buffer", "time_ms": 5.0, "trace_id": 1,
            "uid": 42, "flow": "f", "where": "redirect",
        })
        self._close(pipeline)
        (violation,) = pipeline.finalize()
        assert violation.check == "loss-free"
        assert "never processed" in violation.detail

    def test_double_processing_is_duplicate(self):
        pipeline = AuditPipeline()
        self._start(pipeline)
        pipeline.on_record({"name": "nf.buffer", "time_ms": 4.0,
                            "nf": "inst2", "uid": 42, "flow": "f"})
        for t in (6.0, 8.0):
            pipeline.on_record({"name": "nf.process", "time_ms": t,
                                "nf": "inst2", "uid": 42, "flow": "f"})
        self._close(pipeline)
        (violation,) = pipeline.finalize()
        assert "more than once" in violation.detail

    def test_order_regression_detected(self):
        pipeline = AuditPipeline()
        self._start(pipeline, guarantee="loss-free order-preserving")
        for t, uid in ((5.0, 10), (6.0, 12), (7.0, 11)):
            pipeline.on_record({"name": "nf.process", "time_ms": t,
                                "nf": "inst2", "uid": uid, "flow": "f"})
        self._close(pipeline)
        violations = pipeline.finalize()
        assert any(v.check == "order-preserving" for v in violations)

    def test_state_imbalance_detected(self):
        pipeline = AuditPipeline()
        self._start(pipeline)
        pipeline.on_record({"name": "nf.chunk.export", "time_ms": 5.0,
                            "nf": "inst1", "scope": "perflow",
                            "key": "k1", "bytes": 100, "trace_id": 1})
        self._close(pipeline)
        (violation,) = pipeline.finalize()
        assert violation.check == "state-conservation"

    def test_op_end_not_the_root_span_closes_an_operation(self):
        """One close signal, the trace sampler's too: ``op.end``."""
        pipeline = AuditPipeline()
        self._start(pipeline)
        pipeline.on_span({
            "name": "move", "span_id": 1, "parent_id": None,
            "start_ms": 0.0, "end_ms": 100.0, "status": "ok",
            "attrs": {"trace_id": 1},
        })
        assert pipeline.registry.ops[1].open
        self._close(pipeline, t=100.0)
        op = pipeline.registry.ops[1]
        assert not op.open and op.closed_ms == 100.0

    def test_unstamped_trace_audits_through_the_fallback(self):
        """A trace persisted before ``nf.chunk.*`` / ``nf.buffer`` /
        ``nf.drop`` carried a ``trace_id`` has no such key; the operation
        is then guessed from the NF, as every trace used to be."""
        pipeline = AuditPipeline()
        self._start(pipeline)
        pipeline.on_record({"name": "nf.chunk.export", "time_ms": 5.0,
                            "nf": "inst1", "scope": "perflow", "key": "k1"})
        pipeline.on_record({"name": "nf.chunk.export", "time_ms": 5.5,
                            "nf": "inst1", "scope": "perflow", "key": "k2"})
        pipeline.on_record({"name": "nf.chunk.import", "time_ms": 6.0,
                            "nf": "inst2", "scope": "perflow", "key": "k1"})
        pipeline.on_record({"name": "nf.buffer", "time_ms": 7.0,
                            "nf": "inst2", "uid": 42, "flow": "f"})
        # At an NF no open operation involves: nobody's.
        pipeline.on_record({"name": "nf.buffer", "time_ms": 7.0,
                            "nf": "inst9", "uid": 43, "flow": "g"})
        self._close(pipeline)
        violations = pipeline.finalize()
        assert sorted((v.check, v.trace_id) for v in violations) == [
            ("loss-free", 1), ("state-conservation", 1),
        ]
        assert "k2" in violations[0].detail

    def test_stamped_facts_ignore_which_nf_they_happened_at(self):
        """Two open moves out of inst1: the stamp, not the NF, decides."""
        pipeline = AuditPipeline()
        self._start(pipeline, trace_id=1, dst="inst2")
        self._start(pipeline, trace_id=2, dst="inst3")
        for trace_id, dst in ((1, "inst2"), (2, "inst3")):
            pipeline.on_record({"name": "nf.chunk.export", "time_ms": 5.0,
                                "nf": "inst1", "scope": "perflow",
                                "key": "k%d" % trace_id,
                                "trace_id": trace_id})
            pipeline.on_record({"name": "nf.chunk.import", "time_ms": 6.0,
                                "nf": dst, "scope": "perflow",
                                "key": "k%d" % trace_id,
                                "trace_id": trace_id})
        pipeline.on_span({
            "name": "nf.drop", "span_id": 7, "start_ms": 6.5, "end_ms": 6.5,
            "attrs": {"nf": "inst1", "uid": 42, "flow": "f",
                      "silent": False, "trace_id": 1},
        })
        self._close(pipeline, trace_id=1)
        self._close(pipeline, trace_id=2)
        (violation,) = pipeline.finalize()
        assert (violation.check, violation.trace_id) == ("loss-free", 1)

    def test_stamped_fact_after_op_end_is_outside_every_window(self):
        """A late duplicate put or a stale rule's drop trails its
        operation's ``op.end``: nobody's, stamped or not (as before the
        stamp), never a finalize-time phantom or loss."""
        pipeline = AuditPipeline()
        self._start(pipeline)
        pipeline.on_record({"name": "nf.chunk.export", "time_ms": 5.0,
                            "nf": "inst1", "scope": "perflow",
                            "key": "k1", "trace_id": 1})
        late = {"name": "nf.chunk.import", "time_ms": 6.0, "nf": "inst2",
                "scope": "perflow", "key": "k1", "trace_id": 1}
        pipeline.on_record(late)
        self._close(pipeline)
        pipeline.on_record(dict(late, time_ms=101.0))
        pipeline.on_span({
            "name": "nf.drop", "span_id": 9, "start_ms": 102.0,
            "end_ms": 102.0,
            "attrs": {"nf": "inst1", "uid": 77, "flow": "f",
                      "silent": False, "trace_id": 1},
        })
        pipeline.on_record({"name": "nf.buffer", "time_ms": 103.0,
                            "nf": "inst2", "uid": 78, "flow": "f",
                            "trace_id": 1})
        assert pipeline.finalize() == []

    def test_share_overlap_detected(self):
        pipeline = AuditPipeline()
        self._start(pipeline, kind="share", guarantee="strong")
        for span_id, (start, end) in ((5, (10.0, 14.0)), (6, (12.0, 16.0))):
            pipeline.on_span({
                "name": "share.update", "span_id": span_id,
                "start_ms": start, "end_ms": end,
                "attrs": {"trace_id": 1, "group": "h", "nf": "inst1"},
            })
        violations = pipeline.finalize()
        assert any(v.check == "share-serialization" for v in violations)


class TestFlightRecorder:
    def _aborted_run(self, **kwargs):
        def operation(dep):
            op = dep.controller.move(
                "inst1", "inst2", LOCAL_NET_FILTER, guarantee="lf"
            )
            dep.sim.schedule(6.0, op.abort, "operator cancelled")
            return op

        return run_move_experiment(
            n_flows=80, rate_pps=5000.0, seed=3, operation=operation,
            audit=True, **kwargs
        )

    def test_abort_freezes_bundle_with_causal_slice(self):
        result = self._aborted_run()
        assert "operator cancelled" in result.report.aborted
        recorder = result.deployment.obs.recorder
        bundles = [b for b in recorder.bundles if b["reason"] == "abort"]
        assert len(bundles) == 1
        bundle = bundles[0]
        spans = bundle["causal_slice"]["spans"]
        records = bundle["causal_slice"]["records"]
        # The operation's root span is in the slice...
        assert any(
            s["name"] == "move"
            and s["attrs"].get("trace_id") == s["span_id"]
            for s in spans
        )
        # ...alongside southbound RPC spans and buffered-packet records.
        assert any(s["name"].startswith("sb.") for s in spans)
        assert any(r["name"] == "ctrl.buffer" for r in records)
        assert bundle["metrics"]  # a full metrics snapshot rides along

    def test_aborted_move_keeps_its_whole_trace(self):
        """The abort bundle's slice is the operation's whole stored
        trace: every span carrying its trace_id, and the op.end record
        naming the abort."""
        result = self._aborted_run()
        recorder = result.deployment.obs.recorder
        [bundle] = [b for b in recorder.bundles if b["reason"] == "abort"]
        spans = bundle["causal_slice"]["spans"]
        records = bundle["causal_slice"]["records"]
        trace_id = bundle["trace_id"]
        exporter = result.deployment.obs.exporter
        assert sorted(s["span_id"] for s in spans) == sorted(
            s.span_id for s in exporter.spans
            if s.attrs.get("trace_id") == trace_id
        )
        assert [r["aborted"] for r in records if r["name"] == "op.end"] \
            == [result.report.aborted]
        # No other operation of the run froze a bundle.
        assert {b["trace_id"] for b in recorder.bundles} == {trace_id}

    def test_violation_bundle_cites_drop_span(self):
        result = run_move_experiment(
            operation=splitmerge_operation, n_flows=40, rate_pps=6000.0,
            audit=True,
        )
        recorder = result.deployment.obs.recorder
        # One bundle per (check, operation), not one per dropped packet.
        assert len(recorder.bundles) == 1
        bundle = recorder.bundles[0]
        assert bundle["reason"] == "violation"
        cited = bundle["violation"]["span_ids"]
        slice_ids = [
            s["span_id"] for s in bundle["causal_slice"]["spans"]
        ]
        assert set(cited) <= set(slice_ids)

    def test_violation_bundle_holds_the_whole_operation(self):
        """The drops and chunk records an operation stamps with its
        ``trace_id`` land in its violation bundle, also those emitted
        after the violation froze it."""
        reset_uid_counter()
        result = run_move_experiment("ng", n_flows=20, seed=5, audit=True)
        obs = result.deployment.obs
        assert obs.violations()
        [bundle] = obs.recorder.bundles
        assert bundle["reason"] == "violation"
        causal = bundle["causal_slice"]
        trace_id = bundle["trace_id"]
        drops = [s for s in causal["spans"] if s["name"] == "nf.drop"]
        exports = [r for r in causal["records"]
                   if r["name"] == "nf.chunk.export"]
        assert drops and exports
        assert all(s["attrs"]["trace_id"] == trace_id for s in drops)
        assert exports == [r for r in obs.exporter.records
                           if r["name"] == "nf.chunk.export"
                           and r.get("trace_id") == trace_id]
        # The exports came after the first drop froze the bundle.
        assert exports[0]["time_ms"] > bundle["time_ms"]

    def test_render_and_cli(self, tmp_path, capsys):
        result = self._aborted_run()
        bundle = result.deployment.obs.recorder.bundles[0]
        text = render_bundle(bundle)
        assert "reason=abort" in text
        assert "causal slice" in text
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle, sort_keys=True))
        assert cli_main(["audit", str(path)]) == 0
        out = capsys.readouterr().out
        assert "flight-recorder bundle" in out
        assert "operator cancelled" in out


class TestReplay:
    def test_replay_agrees_with_live(self, tmp_path):
        path = str(tmp_path / "run.trace.jsonl")
        result = run_move_experiment(
            guarantee="ng", n_flows=30, seed=7, audit=True, observe=True,
        )
        obs = result.deployment.obs
        live = obs.violations()
        assert live
        write_trace(entries_from_obs(obs), path)
        entries, _skipped = load_trace_entries(path)
        replayed = audit_entries(entries)
        assert ([v.to_dict() for v in replayed.violations]
                == [v.to_dict() for v in live])

    @pytest.mark.parametrize(
        "guarantee", ["ng", "lf", "lf+op", "strong-share"]
    )
    def test_entries_reuse_the_payload_the_tee_built(self, guarantee,
                                                    monkeypatch):
        """At most one ``to_dict`` per span of an audited run, and the
        entries reuse the payload whoever read the span first built (an
        auditor during the run, else ``entries`` itself)."""
        from repro.conformance import Cell, run_schedule, spec_for_cell
        from repro.obs.span import Span

        built = []
        to_dict = Span.to_dict
        monkeypatch.setattr(
            Span, "to_dict", lambda span: built.append(span) or to_dict(span)
        )
        cell = Cell(nf="monitor", guarantee=guarantee, faults=True,
                    batching=True)
        result = run_schedule(spec_for_cell(cell), keep_deployment=True)
        spans = result.deployment.obs.exporter.spans
        during_run = len(built)
        entries = [p for _t, kind, p in result.entries if kind == "span"]
        assert spans and during_run < len(spans)
        assert sorted(map(id, built)) == sorted(map(id, spans))
        for span in spans:
            assert span.payload == to_dict(span)
        assert [id(p) for p in entries] \
            == [id(s.payload) for s in sorted(spans, key=lambda s: s.end)]

    def test_unaudited_spans_are_serialised_on_demand(self):
        result = run_move_experiment(guarantee="lf", n_flows=5, seed=3,
                                     observe=True)
        obs = result.deployment.obs
        assert all(span.payload is None for span in obs.exporter.spans)
        assert [p for _t, kind, p in entries_from_obs(obs) if kind == "span"] \
            == [s.to_dict() for s in
                sorted(obs.exporter.spans, key=lambda s: s.end)]

    def test_cli_replay_flags_violations(self, tmp_path, capsys):
        path = str(tmp_path / "run.trace.jsonl")
        result = run_move_experiment(guarantee="ng", n_flows=20, seed=3,
                                     audit=True)
        obs = result.deployment.obs
        write_trace(entries_from_obs(obs), path)
        assert cli_main(["audit", path]) == 1
        assert "LOSS-FREE" in capsys.readouterr().out


    def test_cli_replay_prints_isolation_too(self, tmp_path, capsys):
        path = str(tmp_path / "overlap.trace.jsonl")
        entries = []
        for trace_id, at in ((1, 1.0), (2, 2.0)):
            entries.append((at, "record", {
                "name": "op.start", "time_ms": at, "trace_id": trace_id,
                "kind": "move", "src": "inst1", "dst": "inst2",
                "filter": "Filter~{nw_src=10.0.0.0/8}",
            }))
            entries.append((at + 5.0, "record", {
                "name": "op.end", "time_ms": at + 5.0,
                "trace_id": trace_id, "kind": "move", "aborted": None,
            }))
        write_trace(entries, path)
        assert cli_main(["audit", path]) == 1
        out = capsys.readouterr().out
        assert "violations: 1" in out and "ISOLATION" in out

    def test_cli_reads_its_argument_once_and_closes_it(self, tmp_path,
                                                       monkeypatch, capsys):
        import builtins
        import warnings

        path = str(tmp_path / "run.trace.jsonl")
        result = run_move_experiment(guarantee="lf", n_flows=10, seed=3,
                                     audit=True)
        write_trace(entries_from_obs(result.deployment.obs), path)
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if file == path:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            assert cli_main(["audit", path]) == 0
        assert len(opened) == 1
        assert "violations: none" in capsys.readouterr().out


class TestReplayEdgeCases:
    """Trace replay must degrade gracefully on damaged inputs."""

    def _dirty_trace_lines(self):
        result = run_move_experiment(guarantee="ng", n_flows=20, seed=3,
                                     audit=True)
        obs = result.deployment.obs
        assert obs.violations()
        lines = [json.dumps(dict(span.to_dict(), type="span"))
                 for span in obs.exporter.spans]
        lines.extend(json.dumps(dict(record, type="record"))
                     for record in obs.exporter.records)
        return lines

    def test_empty_trace_file(self, tmp_path, capsys):
        path = str(tmp_path / "empty.trace.jsonl")
        open(path, "w").close()
        entries, skipped = load_trace_entries(path)
        assert audit_entries(entries).violations == []
        assert skipped == []
        # The CLI refuses an empty file loudly rather than reporting a
        # (vacuously) clean audit.
        assert cli_main(["audit", path]) == 2
        assert "empty" in capsys.readouterr().err

    def test_truncated_line_skipped_with_warning(self, tmp_path):
        lines = self._dirty_trace_lines()
        # Simulate a torn write: chop the middle line in half.
        middle = len(lines) // 2
        lines[middle] = lines[middle][: len(lines[middle]) // 2]
        path = str(tmp_path / "torn.trace.jsonl")
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="skipped 1"):
            entries, skipped = load_trace_entries(path)
        assert len(skipped) == 1
        assert "truncated" in skipped[0]
        # The surviving lines still audit: the NG move's losses show.
        assert audit_entries(entries).violations

    def test_unknown_entry_kinds_skipped_not_crashed(self, tmp_path):
        lines = self._dirty_trace_lines()
        extra = [
            json.dumps({"type": "metric", "name": "future-format"}),
            json.dumps({"type": "annotation", "note": "hi"}),
            json.dumps(["not", "a", "dict"]),
        ]
        path = str(tmp_path / "newer.trace.jsonl")
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:3] + extra + lines[3:]) + "\n")
        with pytest.warns(UserWarning, match="skipped 3"):
            entries, skipped = load_trace_entries(path)
        assert len(skipped) == 3
        assert any("unknown entry kind" in s for s in skipped)
        # Valid entries were still audited.
        assert audit_entries(entries).violations


class TestExporterRing:
    def test_unbounded_by_default(self):
        exporter = InMemoryExporter()
        assert isinstance(exporter.spans, list)

