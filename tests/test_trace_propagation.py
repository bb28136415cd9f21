"""Causal trace propagation across the control plane.

Every span an operation causes — the northbound phases, the southbound
RPCs (batched or not), and the NF-side apply/flush work triggered by
those RPCs — carries the operation's ``trace_id`` and a ``cause_id``
pointing at the span that caused it. Together they form a connected
causal tree rooted at the operation span, even when messages ride in
batched frames or are retried and deduplicated by the reliable
transport: a retry stays *inside* its RPC span as an event rather than
minting a second span.
"""

import pytest

from repro.harness import run_move_experiment

pytestmark = pytest.mark.obs


def spans_of(result):
    return list(result.deployment.obs.exporter.spans)


def causal_tree(spans, trace_id):
    """(members, orphans): spans in the trace, and cause-less ones."""
    members = [
        s for s in spans if s.attrs.get("trace_id") == trace_id
    ]
    ids = {s.span_id for s in members}
    orphans = [
        s for s in members
        if s.span_id != trace_id            # not the root itself
        and s.attrs.get("cause_id") not in ids
        and s.parent_id not in ids          # nor nested under a member
    ]
    return members, orphans


def run(**kwargs):
    result = run_move_experiment(
        guarantee="op", n_flows=30, seed=5, observe=True, **kwargs
    )
    assert result.report.aborted is None
    return result


class TestCausalTree:
    def _assert_connected(self, result):
        spans = spans_of(result)
        roots = [s for s in spans
                 if s.attrs.get("trace_id") == s.span_id]
        assert len(roots) == 1
        (root,) = roots
        assert root.name == "move"
        members, orphans = causal_tree(spans, root.span_id)
        assert orphans == []
        names = {s.name for s in members}
        # The tree spans all three layers: northbound phases,
        # southbound RPCs, and NF-side work.
        assert any(n.startswith("move.") for n in names)
        assert any(n.startswith("sb.") for n in names)
        assert "nf.apply" in names and "nf.flush" in names
        return members

    def test_plain_move_tree_is_connected(self):
        self._assert_connected(run())

    def test_batched_frames_preserve_causality(self):
        members = self._assert_connected(run(batching=True))
        # Batching must not strip attribution from the put stream.
        assert any(s.name == "sb.put.perflow" for s in members)

    def test_retried_rpcs_stay_in_the_tree(self):
        result = run(faults="seed=3,drop=0.08")
        assert result.report.retries > 0
        members = self._assert_connected(result)
        retry_events = [
            (span, event)
            for span in members
            for event in span.events
            if event[1] == "retry"
        ]
        # Retries are events inside the original RPC span — the span
        # count does not grow with the retry count.
        assert len(retry_events) == result.report.retries
        assert all(span.name.startswith("sb.")
                   for span, _event in retry_events)

    def test_nf_side_spans_point_at_their_rpc(self):
        spans = spans_of(run())
        by_id = {s.span_id: s for s in spans}
        applies = [s for s in spans if s.name == "nf.apply"]
        flushes = [s for s in spans if s.name == "nf.flush"]
        assert applies and flushes
        for span in applies:
            cause = by_id[span.attrs["cause_id"]]
            assert cause.name == "sb.put.perflow"
            assert cause.attrs["trace_id"] == span.attrs["trace_id"]
        for span in flushes:
            cause = by_id[span.attrs["cause_id"]]
            assert cause.name.startswith("sb.")

    def test_unrelated_spans_stay_outside_the_tree(self):
        spans = spans_of(run())
        root_id = next(s.span_id for s in spans
                       if s.attrs.get("trace_id") == s.span_id)
        outside = [s for s in spans
                   if s.attrs.get("trace_id") not in (root_id,)]
        # Drop spans from pre/post-move traffic (none here) and any
        # un-caused infrastructure spans carry no trace id at all.
        assert all("trace_id" not in s.attrs for s in outside)


class TestRecordPropagation:
    def test_buffer_and_release_records_carry_trace_id(self):
        result = run()
        obs = result.deployment.obs
        root_id = next(s.span_id for s in obs.exporter.spans
                       if s.attrs.get("trace_id") == s.span_id)
        tagged = [r for r in obs.exporter.records
                  if r.get("name", "").startswith("ctrl.")]
        assert tagged
        assert all(r["trace_id"] == root_id for r in tagged)

    def test_op_lifecycle_records(self):
        result = run()
        records = result.deployment.obs.exporter.records
        starts = [r for r in records if r.get("name") == "op.start"]
        ends = [r for r in records if r.get("name") == "op.end"]
        assert len(starts) == len(ends) == 1
        assert starts[0]["trace_id"] == ends[0]["trace_id"]
        assert starts[0]["kind"] == "move"
        assert "order-preserving" in starts[0]["guarantee"]
