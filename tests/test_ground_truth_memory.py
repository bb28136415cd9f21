"""Memory budgets of the ground-truth logs and of judging them.

One ``dp_steady``-sized replay (2 000 flows, 12 000 packets through a
monitor and an IDS, ground truth on) under tracemalloc:

* the three logs (``forward_log``, ``processing_log``,
  ``proc_durations``) retain at most :data:`LOG_BYTES_PER_PACKET` per
  processed packet: what clearing them frees. A tuple per row held
  ~196 B; columns of 8 B values hold 48 B plus the arrays' slack.
* the loss-free and order judges' transient peak over that run stays
  under :data:`JUDGE_PEAK_BYTES`: ~3.95 MB with per-uid sets, dicts and
  rank maps, ~0.85 MB with arrays indexed by uid.

And what a run holds grows with what is in flight, not with the trace:
one 500-flow monitor trace replayed 1x and 4x (the same flows, so the
same per-flow state) holds at most :data:`HELD_BYTES_PER_PACKET` more per
extra replayed packet. With ground truth off that is the replay's uid
record (8 B); with it on, the three logs' columns besides. A replayer
that kept every ``Packet`` held ~188 B / ~238 B.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro import AssetMonitor, Deployment, Filter, IntrusionDetector, SignatureDB
from repro.harness import check_loss_free, check_order_preserving
from repro.traffic import (
    TraceConfig,
    TraceReplayer,
    build_university_cloud_trace,
    malware_signatures,
)
from tests.conftest import clear_log
from tests.test_traffic import dp_steady_packets

LOG_BYTES_PER_PACKET = 64
JUDGE_PEAK_BYTES = 1.5e6
#: record_ground_truth -> bytes held per extra replayed packet.
HELD_BYTES_PER_PACKET = {False: 16, True: 64}


@pytest.fixture(scope="module")
def replay():
    """The replay, its logs' retained bytes and the judges' peak."""
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc already tracing")
    gc.collect()
    tracemalloc.start()
    try:
        dep = Deployment()
        monitor = AssetMonitor(dep.sim, "mon")
        ids = IntrusionDetector(dep.sim, "ids",
                                signatures=SignatureDB(malware_signatures()))
        dep.add_nf(monitor)
        dep.add_nf(ids)
        dep.set_default_route("mon")
        dep.set_default_route(
            "ids", Filter({"nw_src": "10.0.1.0/28"}, symmetric=True))
        replayer = TraceReplayer(dep.sim, dep.inject, dp_steady_packets(),
                                 rate_pps=5000.0).start()
        dep.sim.run()
        nfs = [monitor, ids]
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        verdicts = (
            check_loss_free(dep.switch, nfs),
            check_order_preserving(dep.switch, nfs, replayer.injected),
        )
        judge_peak = tracemalloc.get_traced_memory()[1] - before
        processed = sum(nf.packets_processed for nf in nfs)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        clear_log(dep.switch.forward_log)
        for nf in nfs:
            clear_log(nf.processing_log)
            clear_log(nf.proc_durations)
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return {"verdicts": verdicts, "processed": processed,
            "judge_peak": judge_peak, "log_bytes": freed}


def test_the_replay_is_judged_clean(replay):
    assert replay["processed"] == 12000
    for verdict in replay["verdicts"]:
        assert verdict == (True, "") and verdict.judged == 12000


def test_logs_fit_their_bytes_per_packet(replay):
    per_packet = replay["log_bytes"] / replay["processed"]
    assert 48 <= per_packet <= LOG_BYTES_PER_PACKET, per_packet


def test_judges_fit_their_peak(replay):
    assert replay["judge_peak"] <= JUDGE_PEAK_BYTES, replay["judge_peak"]


def _held_after_replay(blueprints, ground_truth):
    """Traced bytes a finished monitor replay of ``blueprints`` holds,
    the deployment and the replayer kept alive."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dep = Deployment(record_ground_truth=ground_truth)
        monitor = AssetMonitor(dep.sim, "mon")
        dep.add_nf(monitor)
        dep.set_default_route("mon")
        replayer = TraceReplayer(dep.sim, dep.inject, blueprints,
                                 rate_pps=5000.0).start()
        dep.sim.run()
        assert monitor.packets_processed == len(replayer.injected)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def held_per_packet():
    """record_ground_truth -> bytes held per extra replayed packet."""
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc already tracing")
    packets = build_university_cloud_trace(
        TraceConfig(seed=11, n_flows=500, data_packets=3)).packets
    once, four_times = list(packets), list(packets) * 4
    # Process-wide memos (interned flow ids, flag sets) fill on the
    # first replay of these flows; they must not count as held by either.
    _held_after_replay(once, True)
    return {
        ground_truth: (_held_after_replay(four_times, ground_truth)
                       - _held_after_replay(once, ground_truth))
        / (len(four_times) - len(once))
        for ground_truth in (False, True)
    }


@pytest.mark.parametrize("ground_truth", [False, True],
                         ids=["ground-truth-off", "ground-truth-on"])
def test_a_run_holds_what_is_in_flight_not_the_trace(
        held_per_packet, ground_truth):
    per_packet = held_per_packet[ground_truth]
    assert per_packet <= HELD_BYTES_PER_PACKET[ground_truth], per_packet
