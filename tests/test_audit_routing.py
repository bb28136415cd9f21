"""Audited telemetry routes each entry once, and builds only what is read.

The tracer sends a finished span or a record down its name's route —
the exporter, the flight recorder's ring, then only the auditors that
declare the name — instead of offering every entry to every tap. Two
things are pinned here:

* the routing is a refactor: over the whole conformance matrix the
  routed pipeline finds exactly the violations of the old fan-out
  (:func:`tests.oracles.broadcast_audit`), live and replayed alike;
* what an entry costs, counted rather than timed, in the style of
  ``tests/test_southbound.py::TestChunkPathCounts``: the handlers it is
  routed to, a payload only for the spans somebody reads, and metric
  label sets resolved once per series rather than once per write.
"""

from __future__ import annotations

import collections
import dataclasses
import os
import re

import pytest

from repro.conformance import Cell, matrix_cells, run_schedule, spec_for_cell
from repro.obs import audit_entries
from repro.obs import metrics as obs_metrics
from repro.obs.audit import AUDITORS, SUBSCRIPTIONS, OpRegistry
from repro.obs.span import Span, Tracer
from tests.conftest import counter_total
from tests.oracles import broadcast_audit

#: Cell ``i`` of the matrix runs in mode ``i % 3``, as the ledger's
#: ``conform_matrix`` workload runs it.
MODES = ({"shards": 1}, {"shards": 2}, {"offload": True})


def _judged(pipeline):
    """A finalized pipeline's verdicts plus what its auditors remember:
    a fact routed to the wrong handlers shows here even when no verdict
    turns on it."""
    loss_free, order, chain, _state, share = pipeline.auditors
    return {
        "violations": [v.to_dict() for v in pipeline.violations],
        "ops": sorted(
            (trace_id, op.kind, op.open, op.aborted, op.closed_ms)
            for trace_id, op in pipeline.registry.ops.items()
        ),
        "repaid": sorted(
            (uid, op and op.trace_id) for uid, op in loss_free.done.items()
        ),
        "last_uid": sorted(order.last_uid.items()),
        "uid_floor": chain._max_uid_processed,
        "share_updates": sorted(share.last.items()),
    }


def _log_handlers(monkeypatch):
    """Every registry / auditor handler call, as (reader, method, entry)."""
    calls = []

    def logged(reader, method):
        real = getattr(reader, method)

        def handler(self, entry):
            calls.append((reader.__name__, method, id(entry)))
            return real(self, entry)

        return handler

    for reader in (OpRegistry,) + AUDITORS:
        for table in (reader.ON_SPAN, reader.ON_RECORD):
            for method in set(table.values()):
                monkeypatch.setattr(reader, method, logged(reader, method))
    return calls


def test_routed_audit_matches_the_fan_out_over_the_matrix(monkeypatch):
    calls = _log_handlers(monkeypatch)
    for index, cell in enumerate(matrix_cells()):
        result = run_schedule(
            spec_for_cell(cell, **MODES[index % 3]), keep_deployment=True
        )
        live = _judged(result.deployment.obs.audit)
        label = "%s mode %d" % (cell.label(), index % 3)
        del calls[:]
        routed = _judged(audit_entries(result.entries))
        routed_calls = calls[:]
        del calls[:]
        assert _judged(broadcast_audit(result.entries)) == live == routed, \
            label
        # The same handlers, on the same entries, in the same order.
        assert calls == routed_calls, label


def test_every_subscribed_name_routes_like_the_fan_out(monkeypatch):
    """Names the matrix never emits (``sw.buffer``, ``sw.drop``, a chain
    window) take the old fan-out's handlers too."""
    calls = _log_handlers(monkeypatch)

    def record(time_ms, name, **attrs):
        return (time_ms, "record", dict(attrs, name=name, time_ms=time_ms))

    def span(end_ms, name, span_id, **attrs):
        return (end_ms, "span", {
            "name": name, "span_id": span_id, "start_ms": end_ms - 1.0,
            "end_ms": end_ms, "attrs": attrs, "events": [],
        })

    entries = [
        record(1.0, "op.start", trace_id=1, kind="move", src="inst1",
               dst="inst2", guarantee="loss-free,order-preserving"),
        record(1.5, "op.start", trace_id=2, kind="chain", chain="c",
               hops="ids=inst1/inst2|nat=inst3", guarantee="loss-free"),
        span(2.0, "nf.drop", 7, nf="inst1", uid=4, flow="f", silent=False,
             trace_id=1),
        record(2.5, "nf.buffer", nf="inst2", uid=5, flow="f", trace_id=1),
        record(3.0, "ctrl.buffer", uid=6, flow="f", trace_id=1),
        record(3.5, "sw.buffer", uid=8, flow="g", trace_id=1),
        record(4.0, "sw.drop", uid=9, flow="g", sw="s1", trace_id=1),
        record(4.5, "ctrl.release", uid=6, flow="f", trace_id=1),
        record(5.0, "nf.chunk.export", nf="inst1", scope="perflow", key="k",
               trace_id=1),
        record(5.5, "nf.chunk.import", nf="inst2", scope="perflow", key="k",
               trace_id=1),
        span(6.0, "share.update", 11, group="h", nf="inst1", trace_id=3),
    ] + [
        record(6.0 + uid, "nf.process", nf=nf, uid=uid, flow="f")
        for uid in (4, 6, 5, 8, 5) for nf in ("inst2", "inst3")
    ] + [
        record(20.0, "op.end", trace_id=1, kind="move", aborted=None),
        record(21.0, "op.end", trace_id=2, kind="chain", aborted=None),
    ]
    routed = _judged(audit_entries(entries))
    routed_calls = calls[:]
    del calls[:]
    assert _judged(broadcast_audit(entries)) == routed
    assert calls == routed_calls
    assert {name for name, _method, _entry in calls} == {
        reader.__name__ for reader in (OpRegistry,) + AUDITORS
    }


def test_the_subscription_table_in_the_docs_is_the_declared_one():
    path = os.path.join(
        os.path.dirname(__file__), "..", "docs", "observability.md"
    )
    with open(path) as handle:
        rows = {
            cells[0].strip("`"): [
                set(re.findall(r"`([^`]+)`", cell)) for cell in cells[1:]
            ]
            for cells in (
                [cell.strip() for cell in line.strip().strip("|").split("|")]
                for line in handle if line.startswith("| `")
            )
        }
    for reader in (OpRegistry,) + AUDITORS:
        assert rows[reader.__name__] == [
            set(reader.ON_SPAN), set(reader.ON_RECORD)
        ], reader.__name__


# ------------------------------------------------ one audited entry, counted


@pytest.fixture
def entry_counts(monkeypatch):
    """What the audited per-entry path runs, by name, plus every span's
    payload as it stood when the span finished."""
    counts = collections.Counter()
    at_finish = {}
    to_dict = Span.to_dict
    finish = Span.finish

    def counting_to_dict(span):
        counts["to_dict"] += 1
        counts["to_dict:%d" % id(span)] += 1
        return to_dict(span)

    def recording_finish(span):
        first = span.end is None
        finish(span)
        if first:
            at_finish[id(span)] = to_dict(span)
        return span

    def wrap(cls, name, key):
        real = getattr(cls, name)

        def counting(self, *args, **kwargs):
            counts[key] += 1
            return real(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counting)

    monkeypatch.setattr(Span, "to_dict", counting_to_dict)
    monkeypatch.setattr(Span, "finish", recording_finish)
    label_key = obs_metrics._label_key
    monkeypatch.setattr(
        obs_metrics, "_label_key",
        lambda labels: counts.update(["label_key"]) or label_key(labels),
    )
    record = Tracer.record
    monkeypatch.setattr(
        Tracer, "record",
        lambda tracer, name, **attrs: counts.update(["record:" + name])
        or record(tracer, name, **attrs),
    )
    for reader in (OpRegistry,) + AUDITORS:
        for table in (reader.ON_SPAN, reader.ON_RECORD):
            for method in set(table.values()):
                wrap(reader, method, "%s.%s" % (reader.__name__, method))
    return counts, at_finish


class TestAuditedEntryCounts:
    """One audited monitor LF+OP move cell at two traffic sizes."""

    def _run(self, counts, n_flows):
        spec = dataclasses.replace(
            spec_for_cell(Cell(nf="monitor", guarantee="lf+op")),
            n_flows=n_flows,
        )
        counts.clear()
        result = run_schedule(spec, keep_deployment=True)
        assert result.clean
        seen = collections.Counter(counts)
        dep = result.deployment
        return seen, dep

    def test_one_entry_costs_its_routed_handlers(self, entry_counts):
        counts, _at_finish = entry_counts
        runs = [self._run(counts, n_flows) for n_flows in (6, 12)]
        processed = [seen["record:nf.process"] for seen, _dep in runs]
        assert processed[1] > processed[0]
        for seen, dep in runs:
            emitted = collections.Counter(
                "span:" + span.name for span in dep.obs.exporter.spans
            )
            emitted.update({
                key: n for key, n in seen.items() if key.startswith("record:")
            })
            expected = collections.Counter()
            for kind, table in SUBSCRIPTIONS.items():
                for name, readers in table.items():
                    for index, method in readers:
                        reader = ((OpRegistry,) + AUDITORS)[index]
                        expected["%s.%s" % (reader.__name__, method)] += \
                            emitted["%s:%s" % (kind, name)]
            handled = {key: seen[key] for key in expected}
            assert handled == dict(expected)
            # An nf.process record: stored, held in the NF ring, and read
            # by the three auditors that declare it — nothing else.
            obs = dep.obs
            pipeline = obs.audit
            route = obs.tracer._record_routes["nf.process"]
            assert route == (
                obs.exporter.export_record,
                obs.recorder._records["nf"].append,
                pipeline.auditors[0].on_process,
                pipeline.auditors[1].on_process,
                pipeline.auditors[2].on_process,
            )

    def test_payloads_only_for_readers(self, entry_counts):
        counts, _at_finish = entry_counts
        for n_flows in (6, 12):
            seen, dep = self._run(counts, n_flows)
            read = {
                id(span) for span in dep.obs.exporter.spans
                if span.name in SUBSCRIPTIONS["span"]
            }
            bundled = {
                payload["span_id"]
                for bundle in dep.obs.recorder.bundles
                for payload in bundle["causal_slice"]["spans"]
            }
            read |= {
                id(span) for span in dep.obs.exporter.spans
                if span.span_id in bundled
            }
            assert read
            assert seen["to_dict"] == len(read)
            assert all(seen["to_dict:%d" % key] == 1 for key in read)

    def test_label_sets_resolve_once_per_series(self, entry_counts):
        counts, _at_finish = entry_counts
        runs = [self._run(counts, n_flows) for n_flows in (6, 12)]
        rpcs = [
            counter_total(dep.obs.metrics, "sb.rpcs") for _seen, dep in runs
        ]
        assert rpcs[1] > rpcs[0]
        assert runs[0][0]["label_key"] == runs[1][0]["label_key"]

    def test_exported_spans_are_frozen_at_finish(self, entry_counts):
        counts, at_finish = entry_counts
        _seen, dep = self._run(counts, 12)
        spans = dep.obs.exporter.spans
        assert spans
        for span in spans:
            assert Span.to_dict(span) == at_finish[id(span)], span.name
