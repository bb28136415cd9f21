"""Tests for the public Operation handle protocol.

Every northbound call — ``move``, ``copy``, ``share`` — now returns an
:class:`~repro.controller.operation.Operation`: a uniform handle with
``kind``, ``done``, ``report``, ``guarantee``, ``filter``, and
``abort()``. Conflicting operations of any kind are admitted through
the same flow-space conflict check and come back as a
:class:`DeferredOperation` proxy.
"""

import pytest

from repro.cli import _guarantee
from repro.controller import (
    CopyOperation,
    DeferredOperation,
    Guarantee,
    MoveOperation,
    Operation,
    ShareOperation,
)
from repro.flowspace import Filter, FiveTuple
from repro.harness import build_multi_instance_deployment, run_move_experiment
from tests.conftest import make_packet

BROAD = Filter({"nw_src": "10.0.0.0/8"}, symmetric=True)


def feed(dep, nf, count=10, net="10.0.1"):
    for index in range(count):
        flow = FiveTuple("%s.%d" % (net, index + 1), 30000 + index,
                         "203.0.113.5", 80)
        nf.receive(make_packet(flow, flags=("SYN",)))
    dep.sim.run()


class TestOperationProtocol:
    def test_move_is_an_operation(self):
        dep, (a, b) = build_multi_instance_deployment(2)
        feed(dep, a, 6)
        op = dep.controller.move("inst1", "inst2", BROAD, guarantee="lf")
        assert isinstance(op, Operation)
        assert isinstance(op, MoveOperation)
        assert op.kind == "move"
        assert op.filter is BROAD
        assert op.guarantee is Guarantee.LOSS_FREE
        dep.sim.run()
        assert op.done.triggered
        assert op.done.value is op.report

    def test_copy_is_an_operation(self):
        dep, (a, b) = build_multi_instance_deployment(2)
        feed(dep, a, 6)
        op = dep.controller.copy("inst1", "inst2", BROAD)
        assert isinstance(op, Operation)
        assert isinstance(op, CopyOperation)
        assert op.kind == "copy"
        assert op.filter is BROAD
        dep.sim.run()
        assert op.done.triggered
        assert op.report.kind == "copy"

    def test_share_is_an_operation(self):
        dep, (a, b) = build_multi_instance_deployment(2)
        feed(dep, a, 6)
        op = dep.controller.share(["inst1", "inst2"], BROAD)
        assert isinstance(op, Operation)
        assert isinstance(op, ShareOperation)
        assert op.kind == "share"
        assert op.guarantee == "strong"
        # done is the teardown event; stop() completes the operation.
        assert op.done is op.stopped
        dep.sim.run()
        op.stop()
        dep.sim.run()
        assert op.done.triggered

    def test_share_abort_is_stop(self):
        dep, (a, b) = build_multi_instance_deployment(2)
        feed(dep, a, 4)
        op = dep.controller.share(["inst1", "inst2"], BROAD,
                                  consistency="strict")
        dep.sim.run()
        done = op.abort("maintenance window")
        dep.sim.run()
        assert done.triggered
        assert "maintenance window" in op.report.aborted


class TestAbort:
    def test_abort_before_any_work_yields_aborted_report(self):
        dep, (a, b) = build_multi_instance_deployment(2)
        feed(dep, a, 6)
        op = dep.controller.move("inst1", "inst2", BROAD, guarantee="lf")
        op.abort("changed my mind")
        dep.sim.run()
        assert op.done.triggered
        assert "changed my mind" in op.report.aborted
        # Nothing moved: the source still owns every flow.
        assert a.conn_count() == 6
        assert b.conn_count() == 0

    def test_abort_mid_transfer_restores_source(self):
        result_holder = {}

        def operation(dep):
            op = dep.controller.move("inst1", "inst2", BROAD, guarantee="lf")
            # Abort while the per-chunk transfer is in flight.
            dep.sim.schedule(6.0, op.abort, "operator cancelled")
            result_holder["op"] = op
            return op

        result = run_move_experiment(n_flows=80, rate_pps=5000.0, seed=3,
                                     operation=operation)
        op = result_holder["op"]
        assert op.done.triggered
        assert "operator cancelled" in result.report.aborted
        # The abort unwound like a destination failure: exported chunks
        # were restored to the source.
        assert any("restored" in note for note in result.report.notes)

    def test_abort_disables_the_source_events_exactly_once(self):
        """The unwind used to send ``disable_events_covered`` twice; the
        duplicate's round trip was also, by accident, what kept the
        move's interest alive for events still queued in the inbox —
        now an explicit inbox barrier, so nothing captured is lost."""
        def operation(dep):
            op = dep.controller.move("inst1", "inst2", BROAD, guarantee="lf")
            dep.sim.schedule(6.0, op.abort, "operator cancelled")
            return op

        result = run_move_experiment(n_flows=80, rate_pps=5000.0, seed=3,
                                     operation=operation, audit=True)
        dep = result.deployment
        assert "operator cancelled" in result.report.aborted
        disables = [span for span in dep.obs.exporter.spans
                    if span.name == "sb.disableEventsCovered"]
        assert len(disables) == 1
        assert dep.nfs["inst1"].event_rule_count == 0
        assert result.loss_free, result.loss_free_detail
        assert dep.obs.violations() == []

    def test_abort_after_completion_is_a_noop(self):
        dep, (a, b) = build_multi_instance_deployment(2)
        feed(dep, a, 4)
        op = dep.controller.move("inst1", "inst2", BROAD, guarantee="lf")
        dep.sim.run()
        assert op.done.triggered
        assert op.report.aborted is None
        done = op.abort("too late")
        assert done is op.done
        dep.sim.run()
        assert op.report.aborted is None
        assert b.conn_count() == 4


class TestUnifiedAdmission:
    def test_copy_defers_behind_conflicting_move(self):
        dep, (a, b, c) = build_multi_instance_deployment(3)
        feed(dep, a, 8)
        move = dep.controller.move("inst1", "inst2", BROAD, guarantee="lf")
        copy = dep.controller.copy("inst2", "inst3", BROAD, scope="per")
        assert isinstance(copy, DeferredOperation)
        assert copy.kind == "deferred"
        assert copy.deferred_kind == "copy"
        assert copy.report is None  # not started yet
        dep.sim.run()
        assert dep.controller.operations_queued_for_conflict == 1
        # The deferral is tallied under the copy, not as a move.
        assert [kind for _home, kind, _crossed
                in dep.controller.deferrals] == ["copy"]
        assert move.done.triggered and copy.done.triggered
        assert copy.report.kind == "copy"
        assert copy.report.started_at >= move.done.value.finished_at
        # The deferred copy found the state where the move left it.
        assert c.conn_count() == 8

    def test_share_defers_behind_conflicting_move(self):
        dep, (a, b, c) = build_multi_instance_deployment(3)
        feed(dep, a, 6)
        move = dep.controller.move("inst1", "inst2", BROAD, guarantee="lf")
        share = dep.controller.share(["inst2", "inst3"], BROAD)
        assert isinstance(share, DeferredOperation)
        assert share.guarantee == "strong"
        dep.sim.run()
        assert move.done.triggered
        # The share session launched after the move and is running.
        assert share.operation is not None
        assert isinstance(share.operation, ShareOperation)
        share.operation.stop()
        dep.sim.run()
        assert share.done.triggered

    def test_move_behind_share_waits_for_stop(self):
        dep, (a, b, c) = build_multi_instance_deployment(3)
        feed(dep, a, 6)
        share = dep.controller.share(["inst1", "inst2"], BROAD)
        dep.sim.run()
        move = dep.controller.move("inst1", "inst3", BROAD, guarantee="lf")
        assert isinstance(move, DeferredOperation)
        dep.sim.run()
        assert not move.done.triggered  # share still holds the flowspace
        share.stop()
        dep.sim.run()
        assert move.done.triggered
        assert c.conn_count() == 6

    def test_disjoint_operations_not_deferred(self):
        dep, (a, b, c) = build_multi_instance_deployment(3)
        feed(dep, a, 5, net="10.0.1")
        feed(dep, a, 5, net="10.0.2")
        left = Filter({"nw_src": "10.0.1.0/24"}, symmetric=True)
        right = Filter({"nw_src": "10.0.2.0/24"}, symmetric=True)
        move = dep.controller.move("inst1", "inst2", left, guarantee="lf")
        copy = dep.controller.copy("inst1", "inst3", right, scope="per")
        assert isinstance(move, MoveOperation)
        assert isinstance(copy, CopyOperation)
        dep.sim.run()
        assert dep.controller.operations_queued_for_conflict == 0

    def test_abort_while_deferred_never_starts(self):
        dep, (a, b, c) = build_multi_instance_deployment(3)
        feed(dep, a, 6)
        move = dep.controller.move("inst1", "inst2", BROAD, guarantee="lf")
        deferred = dep.controller.copy("inst2", "inst3", BROAD, scope="per")
        deferred.abort("no longer needed")
        dep.sim.run()
        assert move.done.triggered
        assert deferred.done.triggered
        assert deferred.operation is None  # never launched
        assert "no longer needed" in deferred.report.aborted
        assert c.conn_count() == 0


class TestGuaranteeInterchange:
    @pytest.mark.parametrize("alias,expected", [
        ("ng", Guarantee.NONE),
        ("none", Guarantee.NONE),
        ("lf", Guarantee.LOSS_FREE),
        ("loss-free", Guarantee.LOSS_FREE),
        ("op", Guarantee.ORDER_PRESERVING),
        ("lf+op", Guarantee.ORDER_PRESERVING),
        ("op-strong", Guarantee.ORDER_PRESERVING_STRONG),
        (Guarantee.LOSS_FREE, Guarantee.LOSS_FREE),
    ])
    def test_parse_aliases(self, alias, expected):
        assert Guarantee.parse(alias) is expected

    def test_move_accepts_enum(self):
        dep, (a, b) = build_multi_instance_deployment(2)
        feed(dep, a, 4)
        op = dep.controller.move("inst1", "inst2", BROAD,
                                 guarantee=Guarantee.LOSS_FREE)
        dep.sim.run()
        assert op.done.triggered
        assert op.report.guarantee is Guarantee.LOSS_FREE

    def test_report_carries_enum_and_serializes_label(self):
        dep, (a, b) = build_multi_instance_deployment(2)
        feed(dep, a, 4)
        op = dep.controller.move("inst1", "inst2", BROAD, guarantee="op")
        dep.sim.run()
        assert op.report.guarantee is Guarantee.ORDER_PRESERVING
        assert op.report.guarantee_label == "loss-free order-preserving"
        assert op.report.to_dict()["guarantee"] == (
            "loss-free order-preserving"
        )
        assert "loss-free order-preserving" in op.report.summary()

    def test_unknown_guarantee_rejected_before_any_work(self):
        dep, (a, b) = build_multi_instance_deployment(2)
        feed(dep, a, 2)
        with pytest.raises(ValueError):
            dep.controller.move("inst1", "inst2", BROAD,
                                guarantee="best-effort")

    def test_cli_accepts_any_alias(self):
        assert _guarantee("lf+op") is Guarantee.ORDER_PRESERVING
        assert _guarantee("none") is Guarantee.NONE
        with pytest.raises(Exception):
            _guarantee("bogus")
