"""Tests for automatic failover (FastFailureRecovery.watch)."""

from repro.apps import FastFailureRecovery
from repro.flowspace import FiveTuple
from repro.harness import build_multi_instance_deployment
from repro.nfs.ids import IntrusionDetector
from tests.conftest import make_packet


def feed(dep, count=5):
    for index in range(count):
        flow = FiveTuple("10.0.1.%d" % (index + 1), 30000 + index,
                         "203.0.113.5", 80)
        dep.inject(make_packet(flow, flags=("SYN",)))
    dep.sim.run()


class TestAutoFailover:
    def test_watch_detects_failure_and_redirects(self):
        dep, (norm, stby) = build_multi_instance_deployment(
            2, nf_factory=lambda s, n: IntrusionDetector(s, n)
        )
        app = FastFailureRecovery(dep.controller, health_poll_ms=20.0)
        app.init_standby("inst1", "inst2")
        dep.sim.run()
        feed(dep, 3)
        app.watch()  # the health loop keeps the queue alive: use run(until=...)
        # The primary dies; nobody calls recover() manually.
        def kill():
            norm.failed = True
            norm.failure_reason = "injected"
        dep.sim.schedule(50.0, kill)
        dep.sim.run(until=200.0)
        assert app.recoveries == 1
        # New traffic lands at the standby.
        flow = FiveTuple("10.0.1.9", 40000, "203.0.113.5", 80)
        dep.inject(make_packet(flow, flags=("SYN",)))
        dep.sim.run(until=300.0)
        assert stby.packets_processed >= 1
        app.stop()
        dep.sim.run(until=400.0)

    def test_recovery_fires_once(self):
        dep, (norm, stby) = build_multi_instance_deployment(
            2, nf_factory=lambda s, n: IntrusionDetector(s, n)
        )
        app = FastFailureRecovery(dep.controller, health_poll_ms=10.0)
        app.init_standby("inst1", "inst2")
        dep.sim.run()
        app.watch()
        norm.failed = True
        dep.sim.run(until=200.0)
        assert app.recoveries == 1
        app.stop()
        dep.sim.run(until=300.0)
