"""Tests for conflicting-move detection and deferral."""

import pytest

from repro.flowspace import Filter, FiveTuple
from repro.harness import (
    build_multi_instance_deployment,
    check_loss_free,
    check_order_preserving,
)
from repro.traffic import (
    TraceConfig,
    TraceReplayer,
    build_university_cloud_trace,
)
from tests.conftest import make_packet


def feed(dep, nf, count=10, net="10.0.1"):
    """``count`` SYNs through the switch to ``nf``, the default route, so
    the loss-free judge has forwarded packets to judge."""
    before = nf.packets_processed
    for index in range(count):
        flow = FiveTuple("%s.%d" % (net, index + 1), 30000 + index,
                         "203.0.113.5", 80)
        dep.inject(make_packet(flow, flags=("SYN",)))
    dep.sim.run()
    assert nf.packets_processed == before + count


class TestMoveConflicts:
    def test_overlapping_moves_serialize(self):
        dep, (a, b, c) = build_multi_instance_deployment(3)
        feed(dep, a, 10)
        broad = Filter({"nw_src": "10.0.0.0/8"}, symmetric=True)
        narrow = Filter({"nw_src": "10.0.1.0/24"}, symmetric=True)
        first = dep.controller.move("inst1", "inst2", broad, guarantee="lf")
        second = dep.controller.move("inst2", "inst3", narrow, guarantee="lf")
        dep.sim.run()
        assert dep.controller.moves_queued_for_conflict == 1
        assert first.done.triggered
        assert second.done.triggered
        # The deferred move ran after the first completed and found the
        # state at inst2.
        assert second.report.started_at >= first.done.value.finished_at
        assert c.conn_count() == 10
        assert a.conn_count() == b.conn_count() == 0

    def test_disjoint_moves_run_concurrently(self):
        dep, (a, b, c) = build_multi_instance_deployment(3)
        feed(dep, a, 5, net="10.0.1")
        feed(dep, a, 5, net="10.0.2")
        left = Filter({"nw_src": "10.0.1.0/24"}, symmetric=True)
        right = Filter({"nw_src": "10.0.2.0/24"}, symmetric=True)
        first = dep.controller.move("inst1", "inst2", left, guarantee="lf")
        second = dep.controller.move("inst1", "inst3", right, guarantee="lf")
        dep.sim.run()
        assert dep.controller.moves_queued_for_conflict == 0
        # Ran overlapped in time.
        assert (second.report.started_at
                < first.done.value.finished_at)
        assert b.conn_count() == 5 and c.conn_count() == 5

    def test_deferred_move_report_available_after_completion(self):
        dep, (a, b, c) = build_multi_instance_deployment(3)
        feed(dep, a, 4)
        flt = Filter({"nw_src": "10.0.0.0/8"}, symmetric=True)
        first = dep.controller.move("inst1", "inst2", flt, guarantee="lf")
        deferred = dep.controller.move("inst2", "inst3", flt, guarantee="lf")
        assert deferred.report is None  # not started yet
        dep.sim.run()
        assert deferred.report is not None
        assert deferred.done.value.aborted is None

    def test_chain_of_conflicts(self):
        dep, (a, b, c) = build_multi_instance_deployment(3)
        feed(dep, a, 6)
        flt = Filter({"nw_src": "10.0.0.0/8"}, symmetric=True)
        ops = [
            dep.controller.move("inst1", "inst2", flt, guarantee="lf"),
            dep.controller.move("inst2", "inst3", flt, guarantee="lf"),
            dep.controller.move("inst3", "inst1", flt, guarantee="lf"),
        ]
        dep.sim.run()
        assert all(op.done.triggered for op in ops)
        # Round trip: everything is back at inst1, nothing lost.
        assert a.conn_count() == 6
        ok, detail = check_loss_free(dep.switch, [a, b, c])
        assert ok, detail


class TestSymmetricConflicts:
    """Two symmetric single-prefix filters share every flow that runs
    between their prefixes (one reaches it through each orientation)."""

    def _two_moves(self, server_side, max_events=50_000):
        dep, nfs = build_multi_instance_deployment(3)
        trace = build_university_cloud_trace(
            TraceConfig(seed=7, n_flows=200, data_packets=6))
        replayer = TraceReplayer(
            dep.sim, dep.inject, trace.packets, rate_pps=5000.0).start()
        ops = []

        def issue():
            for dst, fields in (("inst2", {"nw_src": "10.0.1.0/28"}),
                                ("inst3", server_side)):
                ops.append(dep.controller.move(
                    "inst1", dst, Filter(fields, symmetric=True),
                    guarantee="lf+op"))

        dep.sim.schedule(replayer.duration_ms * 0.3, issue)
        # Bounded: the conflicting pair, admitted together, never ends.
        dep.sim.run(max_events=max_events)
        assert dep.controller.moves_queued_for_conflict == 1
        assert all(op.done.triggered for op in ops)
        assert all(op.done.value.aborted is None for op in ops)
        ok, detail = check_loss_free(dep.switch, nfs)
        assert ok, detail
        ok, detail = check_order_preserving(
            dep.switch, nfs, replayer.injected)
        assert ok, detail

    def test_client_and_server_prefix_moves_serialize(self):
        self._two_moves({"nw_dst": "203.0.113.0/24"})

    @pytest.mark.xfail(strict=True, reason=(
        "Filter.intersects ignores `symmetric`: the same server prefix "
        "spelled nw_src is not seen to conflict, both moves are admitted "
        "and neither `done` ever fires (ROADMAP, failure-model item)"))
    def test_conflict_is_seen_through_the_swapped_orientation(self):
        self._two_moves({"nw_src": "203.0.113.0/24"})
