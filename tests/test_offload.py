"""Data-plane offload: switch-local buffer/drop/release state machines.

The offloaded move fast path must tell the same loss-free /
order-preserving story as the controller-buffered classic path — to the
live auditors, to a replay of the written ``.trace.jsonl``,
and through a crash-mid-offload abort. And with offload off, the
machinery must be completely inert: the classic timeline is
byte-identical to the seed's.
"""

from __future__ import annotations

import json

import pytest

from repro import Guarantee
from repro.harness import LOCAL_NET_FILTER, run_move_experiment
from repro.net.packet import reset_uid_counter
from repro.obs import (
    audit_entries,
    entries_from_obs,
    load_trace_entries,
    write_trace,
)


def run_offloaded(guarantee=Guarantee.LOSS_FREE, **kwargs):
    kwargs.setdefault("n_flows", 40)
    kwargs.setdefault("rate_pps", 4000.0)
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("audit", True)
    return run_move_experiment(guarantee, offload=True, **kwargs)


class TestOffloadedMoveGuarantees:
    def test_loss_free_offload_audits_clean(self):
        result = run_offloaded(Guarantee.LOSS_FREE)
        assert result.report.aborted is None
        assert result.loss_free, result.loss_free_detail
        assert result.deployment.obs.violations() == []
        # The window's packets parked at the switch, not the controller.
        assert result.report.packets_buffered_at_switch > 0
        assert result.report.packets_in_events == 0

    def test_order_preserving_offload_audits_clean(self):
        result = run_offloaded(Guarantee.ORDER_PRESERVING)
        assert result.report.aborted is None
        assert result.loss_free, result.loss_free_detail
        assert result.order_preserving, result.order_detail
        assert result.deployment.obs.violations() == []
        assert result.report.packets_buffered_at_switch > 0

    def test_early_release_composes_per_flow(self):
        result = run_offloaded(Guarantee.LOSS_FREE, early_release=True)
        assert result.report.aborted is None
        assert result.loss_free, result.loss_free_detail
        assert result.deployment.obs.violations() == []

    def test_machine_retired_after_move(self):
        result = run_offloaded(Guarantee.LOSS_FREE)
        assert result.deployment.switch.state_machines() == []


class TestOffloadedTraceReplay:
    def test_replay_sees_switch_records_and_stays_clean(self, tmp_path):
        path = str(tmp_path / "offload.trace.jsonl")
        result = run_offloaded(Guarantee.ORDER_PRESERVING)
        assert result.deployment.obs.violations() == []
        obs = result.deployment.obs
        assert write_trace(entries_from_obs(obs), path) > 0

        names = set()
        with open(path) as handle:
            for line in handle:
                entry = json.loads(line)
                if entry.get("type") == "record":
                    names.add(entry.get("name"))
        # The switch-side story is in the trace for offline auditing.
        assert "sw.buffer" in names
        assert "sw.release" in names
        assert "sw.drop" not in names

        entries, skipped = load_trace_entries(path)
        assert audit_entries(entries).violations == []
        assert skipped == []


class TestCrashMidOffload:
    def test_dst_crash_flushes_rings_back_to_source(self):
        # Crash the destination mid-transfer: the abort handler must
        # restore the source, release the switch rings toward the
        # surviving port, and leave a loss-free timeline behind.
        result = run_offloaded(
            Guarantee.LOSS_FREE, fault_plan="seed=5,crash=inst2#20"
        )
        assert result.report.aborted is not None
        assert result.loss_free, result.loss_free_detail
        assert result.deployment.obs.violations() == []
        # Nothing left parked at the switch.
        assert result.deployment.switch.state_machines() == []

    def test_both_endpoints_down_still_retires_the_machine(self):
        # Source and destination both die mid-transfer: nobody is left
        # to take the rings, but a machine left in ``buffer`` state
        # would swallow the flow space forever — even after a
        # replacement instance is routed.
        def operation(dep):
            op = dep.controller.move(
                "inst1", "inst2", LOCAL_NET_FILTER,
                guarantee=Guarantee.LOSS_FREE,
            )
            for name in ("inst1", "inst2"):
                nf = dep.controller.clients[name].nf
                dep.sim.schedule(14.0, nf.fail, "power")
            return op

        result = run_offloaded(Guarantee.LOSS_FREE, audit=False,
                               operation=operation)
        assert result.report.aborted == "inst2 is down: power"
        assert result.deployment.switch.state_machines() == []
        assert result.report.notes == [
            "both instances down: switch rings dropped"
        ]
        # The parked packets went to the dead source: counted, not lost
        # track of.
        src_nf = result.deployment.controller.clients["inst1"].nf
        assert src_nf.packets_lost_to_failure >= 225


class TestOffloadOffIsInert:
    def test_classic_timeline_is_byte_identical(self):
        def run(**mode):
            reset_uid_counter()
            return run_move_experiment(
                Guarantee.LOSS_FREE, n_flows=30, rate_pps=3000.0, seed=11,
                **mode,
            )

        implicit = run()         # the default: offload off
        explicit = run(offload=False)
        assert implicit.report.to_dict() == explicit.report.to_dict()
        assert (implicit.deployment.switch.forward_log
                == explicit.deployment.switch.forward_log)

    def test_classic_run_emits_no_switch_machine_records(self):
        result = run_move_experiment(
            Guarantee.LOSS_FREE, n_flows=30, seed=7, audit=True,
            offload=False,
        )
        names = {record.get("name")
                 for record in result.deployment.obs.exporter.records}
        assert not {"sw.buffer", "sw.release", "sw.drop"} & names
        assert result.deployment.switch.state_machines() == []
