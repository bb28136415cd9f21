"""Tests for the §6 control applications."""

import pytest

from repro.apps import (
    FastFailureRecovery,
    LoadBalancedMonitoring,
    RollingUpgrade,
    SelectiveRemoteProcessing,
)
from repro.flowspace import Filter, FiveTuple
from repro.harness import build_multi_instance_deployment
from repro.nfs.ids import IntrusionDetector, SignatureDB
from repro.nfs.monitor import AssetMonitor
from repro.traffic import (
    MALWARE_BODY,
    OUTDATED_AGENT,
    TraceConfig,
    TraceReplayer,
    build_university_cloud_trace,
    http_exchange,
    malware_signatures,
)
from tests.conftest import make_packet


def ids_factory(sim, name):
    return IntrusionDetector(sim, name, SignatureDB(malware_signatures()),
                             scan_threshold=8)


class TestLoadBalancedMonitoring:
    def test_assign_installs_rule(self):
        dep, (a, b) = build_multi_instance_deployment(2, nf_factory=ids_factory)
        app = LoadBalancedMonitoring(dep.controller)
        app.assign("10.0.1.0/24", "inst1")
        dep.sim.run()
        flow = FiveTuple("10.0.1.5", 1000, "203.0.113.9", 80)
        dep.inject(make_packet(flow, flags=("SYN",)))
        dep.sim.run()
        assert a.packets_processed == 1

    def test_move_prefix_transfers_per_flow_state(self):
        dep, (a, b) = build_multi_instance_deployment(2, nf_factory=ids_factory)
        app = LoadBalancedMonitoring(dep.controller, recopy_interval_ms=100.0)
        app.assign("10.0.0.0/8", "inst1")
        trace = build_university_cloud_trace(TraceConfig(seed=4, n_flows=20))
        replayer = TraceReplayer(dep.sim, dep.inject, trace.packets, 2500.0)
        replayer.start()
        holder = {}
        dep.sim.schedule(
            replayer.duration_ms / 2,
            lambda: holder.update(
                done=app.move_prefix("10.0.0.0/8", "inst1", "inst2")
            ),
        )
        dep.sim.run(until=replayer.duration_ms + 500.0)
        assert holder["done"].triggered
        assert b.conn_count() > 0 or b.packets_processed > 0
        assert app.moves_performed == 1
        app.stop()

    def test_scan_detection_survives_prefix_move(self):
        """An in-progress scan by a local host is still detected after its
        prefix moves: multi-flow counters were copied."""
        dep, (a, b) = build_multi_instance_deployment(2, nf_factory=ids_factory)
        app = LoadBalancedMonitoring(dep.controller, recopy_interval_ms=50.0)
        app.assign("10.0.0.0/8", "inst1")
        dep.sim.run()
        scanner = "10.0.1.9"
        # 5 probes at inst1 (below the threshold of 8)...
        for i in range(5):
            flow = FiveTuple(scanner, 40000 + i, "203.0.113.%d" % (i + 1), 22)
            dep.inject(make_packet(flow, flags=("SYN",)))
        dep.sim.run()
        assert a.alerts_of("port_scan") == []
        done = app.move_prefix("10.0.0.0/8", "inst1", "inst2")
        dep.sim.run(until=dep.sim.now + 2000.0)
        assert done.triggered
        # ...then 4 more at inst2: only detectable with the copied counters.
        for i in range(5, 9):
            flow = FiveTuple(scanner, 40000 + i, "203.0.113.%d" % (i + 1), 22)
            dep.inject(make_packet(flow, flags=("SYN",)))
        dep.sim.run(until=dep.sim.now + 500.0)
        assert len(b.alerts_of("port_scan")) == 1
        app.stop()


class TestFastFailureRecovery:
    def test_standby_receives_flow_state_on_key_packets(self):
        dep, (norm, stby) = build_multi_instance_deployment(
            2, nf_factory=ids_factory
        )
        app = FastFailureRecovery(dep.controller)
        ready = app.init_standby("inst1", "inst2")
        dep.sim.run()
        assert ready.triggered
        flow = FiveTuple("10.0.1.2", 1234, "203.0.113.5", 80)
        dep.inject(make_packet(flow, flags=("SYN",)))
        dep.sim.run()
        assert app.updates_triggered >= 1
        assert stby.conn_count() == 1

    def test_recovery_redirects_traffic(self):
        dep, (norm, stby) = build_multi_instance_deployment(
            2, nf_factory=ids_factory
        )
        app = FastFailureRecovery(dep.controller)
        app.init_standby("inst1", "inst2")
        dep.sim.run()
        flow = FiveTuple("10.0.1.2", 1234, "203.0.113.5", 80)
        dep.inject(make_packet(flow, flags=("SYN",)))
        dep.sim.run()
        norm.failed = True
        app.recover("inst1")
        dep.sim.run()
        dep.inject(make_packet(flow, payload="after-failover"))
        dep.sim.run()
        assert stby.packets_processed >= 1
        assert app.recoveries == 1

    def test_detection_continuity_after_failover(self):
        """Scan counters copied to the standby keep detection working."""
        dep, (norm, stby) = build_multi_instance_deployment(
            2, nf_factory=ids_factory
        )
        app = FastFailureRecovery(dep.controller)
        app.init_standby("inst1", "inst2")
        dep.sim.run()
        scanner = "10.0.1.9"
        for i in range(6):
            flow = FiveTuple(scanner, 40000 + i, "203.0.113.%d" % (i + 1), 22)
            dep.inject(make_packet(flow, flags=("SYN",)))
        dep.sim.run()
        norm.failed = True
        app.recover("inst1")
        dep.sim.run()
        for i in range(6, 9):
            flow = FiveTuple(scanner, 40000 + i, "203.0.113.%d" % (i + 1), 22)
            dep.inject(make_packet(flow, flags=("SYN",)))
        dep.sim.run()
        assert len(stby.alerts_of("port_scan")) == 1


class TestSelectiveRemoteProcessing:
    def test_alert_triggers_escalation_to_cloud(self):
        dep, (local, cloud) = build_multi_instance_deployment(
            2, nf_factory=ids_factory, name_prefix="ids"
        )
        local.detect_malware = False  # only the cloud instance checks md5
        app = SelectiveRemoteProcessing(dep.controller, "ids1", "ids2")
        # An outdated browser fetches malware; the request (with UA) is
        # seen locally, the reply should be analyzed in the cloud.
        flow = http_exchange(
            "10.0.1.2", 1234, "203.0.113.5",
            user_agent=OUTDATED_AGENT, reply_body=MALWARE_BODY,
            reply_chunk=120, close=False,
        )
        replayer = TraceReplayer(dep.sim, dep.inject, flow.packets,
                                 rate_pps=100.0)
        replayer.start()
        dep.sim.run(until=replayer.duration_ms + 1500.0)
        app.stop()
        dep.sim.run()
        assert app.escalation_count == 1
        assert len(cloud.alerts_of("malware")) == 1
        assert local.alerts_of("malware") == []

    def test_no_alert_no_escalation(self):
        dep, (local, cloud) = build_multi_instance_deployment(
            2, nf_factory=ids_factory, name_prefix="ids"
        )
        app = SelectiveRemoteProcessing(dep.controller, "ids1", "ids2")
        flow = http_exchange("10.0.1.2", 1234, "203.0.113.5",
                             reply_body="benign")
        replayer = TraceReplayer(dep.sim, dep.inject, flow.packets, 500.0)
        replayer.start()
        dep.sim.run(until=replayer.duration_ms + 200.0)
        app.stop()
        dep.sim.run()
        assert app.escalation_count == 0


class TestRollingUpgrade:
    def test_upgrade_moves_all_flows(self):
        dep, (old, new) = build_multi_instance_deployment(
            2, nf_factory=AssetMonitor
        )
        trace = build_university_cloud_trace(TraceConfig(seed=5, n_flows=25))
        replayer = TraceReplayer(dep.sim, dep.inject, trace.packets, 2500.0)
        replayer.start()
        app = RollingUpgrade(dep.controller)
        holder = {}
        dep.sim.schedule(
            replayer.duration_ms / 2,
            lambda: holder.update(done=app.upgrade("inst1", "inst2")),
        )
        dep.sim.run()
        outcome = holder["done"].value
        assert outcome["report"].packets_dropped == 0
        assert new.conn_count() + new.packets_processed > 0
        assert old.conn_count() == 0

    def test_exposure_window_is_bounded_and_small(self):
        dep, _ = build_multi_instance_deployment(2, nf_factory=AssetMonitor)
        trace = build_university_cloud_trace(TraceConfig(seed=5, n_flows=25))
        replayer = TraceReplayer(dep.sim, dep.inject, trace.packets, 2500.0)
        replayer.start()
        app = RollingUpgrade(dep.controller)
        holder = {}
        dep.sim.schedule(
            50.0, lambda: holder.update(done=app.upgrade("inst1", "inst2"))
        )
        dep.sim.run()
        exposure = holder["done"].value["exposure_ms"]
        # Hundreds of ms, not minutes (the wait-for-flows alternative).
        assert 0 < exposure < 2000.0
