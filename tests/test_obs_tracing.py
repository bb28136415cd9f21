"""Span-assertion tests for the observability subsystem (tracing half).

The tracer's promise is structural: an observed LF+OP move must produce
exactly one ``move`` root span whose children reproduce Figure 6's phase
order, stamped with the *simulation* clock — and an unobserved run must
allocate no Span objects at all.
"""

import pytest

from repro.harness import run_move_experiment
from repro.nfs.ids import IntrusionDetector
from repro.obs import (
    InMemoryExporter,
    NULL_SPAN,
    Observability,
    Span,
    Tracer,
    render_timeline,
)
from repro.sim import Simulator
from tests.conftest import children_of, root_spans, spans_named

pytestmark = pytest.mark.obs


def observed_ids_move(guarantee="op", **kwargs):
    kwargs.setdefault("n_flows", 30)
    kwargs.setdefault("nf_factory", IntrusionDetector)
    return run_move_experiment(guarantee=guarantee, observe=True, **kwargs)


class TestTracerBasics:
    def test_span_tree_parenting_and_export(self, sim):
        exporter = InMemoryExporter()
        tracer = Tracer(sim=sim, exporter=exporter)
        with tracer.span("root", op="x") as root:
            with root.child("leaf-a"):
                pass
            with root.child("leaf-b"):
                pass
        assert [s.name for s in root_spans(exporter)] == ["root"]
        kids = children_of(exporter, spans_named(exporter, "root")[0])
        assert [s.name for s in kids] == ["leaf-a", "leaf-b"]
        assert all(k.parent_id == root.span_id for k in kids)

    def test_span_times_use_sim_clock(self, sim):
        exporter = InMemoryExporter()
        tracer = Tracer(sim=sim, exporter=exporter)
        span = tracer.span("timed")
        sim.schedule(12.5, span.finish)
        sim.run()
        assert span.start == 0.0
        assert span.end == 12.5
        assert span.duration_ms == 12.5

    def test_error_status_on_exception(self, sim):
        exporter = InMemoryExporter()
        tracer = Tracer(sim=sim, exporter=exporter)
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert spans_named(exporter, "doomed")[0].status == "error"

    def test_disabled_tracer_returns_null_span(self, sim):
        tracer = Tracer(sim=sim, enabled=False)
        span = tracer.span("nope")
        assert span is NULL_SPAN
        assert span.child("kid") is NULL_SPAN

    def test_late_abort_leaves_a_finished_root_alone(self, sim):
        """An exported span is frozen (its payload is built lazily, on
        the first read): a second ``finish`` tags nothing after the fact."""
        from repro.controller.reports import OperationReport

        obs = Observability(sim=sim, enabled=True)
        trace = obs.operation(sim, OperationReport(kind="move"), "move")
        trace.finish()
        frozen = trace.root.to_dict()
        trace.finish(aborted="too late")
        assert trace.root.to_dict() == frozen
        assert [r["name"] for r in obs.exporter.records] \
            == ["op.start", "op.end"]

    def test_a_tracer_without_a_clock_stamps_zero(self):
        exporter = InMemoryExporter()
        tracer = Tracer(exporter=exporter)
        tracer.span("unclocked").finish()
        tracer.record("point", x=1)
        assert (exporter.spans[0].start, exporter.spans[0].end) == (0.0, 0.0)
        assert exporter.records == [{"time_ms": 0.0, "name": "point", "x": 1}]


class TestMoveSpanTree:
    """LF+OP move over the IDS scenario: the acceptance span tree."""

    @pytest.fixture(scope="class")
    def observed(self):
        return observed_ids_move("op")

    def test_exactly_one_move_root(self, observed):
        exporter = observed.deployment.obs.exporter
        moves = spans_named(exporter, "move")
        assert len(moves) == 1
        assert moves[0].parent_id is None

    def test_root_attributes(self, observed):
        root = spans_named(observed.deployment.obs.exporter, "move")[0]
        assert root.attrs["guarantee"] == "loss-free order-preserving"
        assert root.attrs["src"] == "inst1"
        assert root.attrs["dst"] == "inst2"
        assert "10.0.0.0/8" in root.attrs["filter"]
        assert root.attrs["op_id"] == root.span_id

    def test_children_in_figure6_order(self, observed):
        exporter = observed.deployment.obs.exporter
        root = spans_named(exporter, "move")[0]
        children = children_of(exporter, root)
        names = [c.name for c in children]
        assert names == [
            "move.events-enabled",
            "move.state-transfer",
            "move.event-flush",
            "move.dst-buffering",
            "move.forwarding-update",
            "move.dst-release",
            "move.cleanup",
        ]
        assert all(c.parent_id == root.span_id for c in children)
        starts = [c.start for c in children]
        assert starts == sorted(starts)
        # Phases do not overlap: each starts when its predecessor ends.
        for earlier, later in zip(children, children[1:]):
            assert later.start >= earlier.end

    def test_two_phase_update_nested_and_ordered(self, observed):
        exporter = observed.deployment.obs.exporter
        fwd = spans_named(exporter, "move.forwarding-update")[0]
        steps = children_of(exporter, fwd)
        assert [s.name for s in steps] == [
            "move.phase1-install",
            "move.await-first-packet",
            "move.phase2-install",
            "move.await-last-packet",
        ]
        phase1 = spans_named(exporter, "move.phase1-install")[0]
        phase2 = spans_named(exporter, "move.phase2-install")[0]
        assert phase1.end <= phase2.start

    def test_transfer_nested_under_state_transfer(self, observed):
        exporter = observed.deployment.obs.exporter
        transfer = spans_named(exporter, "move.state-transfer")[0]
        scopes = children_of(exporter, transfer)
        assert [s.name for s in scopes] == ["move.transfer.perflow"]
        assert scopes[0].attrs["chunks"] > 0

    def test_sim_clock_timestamps(self, observed):
        exporter = observed.deployment.obs.exporter
        root = spans_named(exporter, "move")[0]
        report = observed.report
        assert root.start == report.started_at
        # Simulated milliseconds, not a wall-clock epoch.
        assert 0.0 < root.start < 10_000.0
        assert root.end > root.start
        for span in exporter.spans:
            assert span.end >= span.start

    def test_phases_derived_from_spans(self, observed):
        """Every report phase equals its phase-span's close time."""
        exporter = observed.deployment.obs.exporter
        report = observed.report
        span_for_mark = {
            "events-enabled": "move.events-enabled",
            "state-transferred": "move.state-transfer",
            "dst-buffering": "move.dst-buffering",
            "phase1-installed": "move.phase1-install",
            "phase2-installed": "move.phase2-install",
            "dst-released": "move.dst-release",
        }
        for mark, span_name in span_for_mark.items():
            span = spans_named(exporter, span_name)[0]
            assert report.phases[mark] == pytest.approx(
                span.end - report.started_at
            )

    def test_timeline_renders_move_tree(self, observed):
        text = render_timeline(observed.deployment.obs.exporter.spans)
        assert "move" in text
        assert "move.state-transfer" in text
        assert "ms" in text


class TestOtherGuaranteeTrees:
    def test_lf_tree_has_reroute_no_forwarding_update(self):
        result = observed_ids_move("lf")
        exporter = result.deployment.obs.exporter
        root = spans_named(exporter, "move")[0]
        names = [c.name for c in children_of(exporter, root)]
        assert "move.reroute" in names
        assert "move.forwarding-update" not in names
        flush = spans_named(exporter, "move.event-flush")[0]
        transfer = spans_named(exporter, "move.state-transfer")[0]
        assert transfer.end <= flush.start

    def test_ng_tree(self):
        result = observed_ids_move("ng")
        exporter = result.deployment.obs.exporter
        root = spans_named(exporter, "move")[0]
        names = [c.name for c in children_of(exporter, root)]
        assert names[:3] == ["move.lock", "move.state-transfer", "move.reroute"]

    def test_strong_tree_redirects_first(self):
        result = observed_ids_move("op-strong")
        exporter = result.deployment.obs.exporter
        root = spans_named(exporter, "move")[0]
        names = [c.name for c in children_of(exporter, root)]
        assert names[0] == "move.redirect"
        assert "move.await-last-packet" in names


class TestZeroOverheadWhenDisabled:
    def test_unobserved_run_allocates_no_spans(self):
        baseline = Span.allocated
        result = run_move_experiment(
            guarantee="op", n_flows=20, nf_factory=IntrusionDetector,
            observe=False,
        )
        assert Span.allocated == baseline
        assert result.deployment.obs.enabled is False
        assert result.deployment.obs.exporter is None

    def test_disabled_metrics_stay_empty(self):
        result = run_move_experiment(guarantee="op", n_flows=20)
        assert result.deployment.obs.metrics.snapshot() == {}

    def test_observation_does_not_change_timing(self):
        plain = run_move_experiment(guarantee="op", n_flows=20, seed=3)
        seen = run_move_experiment(
            guarantee="op", n_flows=20, seed=3, observe=True
        )
        assert plain.report.phases == seen.report.phases
        assert plain.duration_ms == seen.duration_ms


class TestSbSpans:
    def test_rpc_spans_present_and_clocked(self):
        result = observed_ids_move("op")
        exporter = result.deployment.obs.exporter
        gets = spans_named(exporter, "sb.get.perflow")
        assert gets and gets[0].attrs["nf"] == "inst1"
        puts = spans_named(exporter, "sb.put.perflow")
        assert puts and all(p.attrs["nf"] == "inst2" for p in puts)
        assert all(p.duration_ms > 0 for p in puts)
        installs = spans_named(exporter, "sw.install")
        assert len(installs) >= 2
