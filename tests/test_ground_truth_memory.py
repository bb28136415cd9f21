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
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro import AssetMonitor, Deployment, Filter, IntrusionDetector, SignatureDB
from repro.harness import check_loss_free, check_order_preserving
from repro.traffic import TraceReplayer, malware_signatures
from tests.conftest import clear_log
from tests.test_traffic import dp_steady_packets

LOG_BYTES_PER_PACKET = 64
JUDGE_PEAK_BYTES = 1.5e6


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
