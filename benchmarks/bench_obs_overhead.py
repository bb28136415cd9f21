"""Telemetry overhead gate: full observability must cost <= 5% wall-clock.

Scale-ready telemetry is only scale-ready if leaving it on is free
enough to never think about. This benchmark runs the same 10k-flow
scenario (steady traffic to one monitor, one loss-free move of a /29
subnet mid-trace) twice per round — telemetry fully off, then fully on
as ``repro top`` runs it (tracing + sampled trace retention + bounded
histograms + a progress reporter taking one frame per 1000 simulated
ms) — interleaved, and gates on the best pair's CPU-time ratio. The
run is single-threaded, so CPU time *is* the wall-clock cost of
telemetry — minus the scheduler noise of a shared CI box; wall-clock
times are reported alongside as informational.

Ground-truth logging is off in both runs so the measurement isolates
the telemetry layer itself. The on-run must also be *behaviorally*
invisible: identical control-message counts and an identical simulated
move duration, pinned here and (byte-for-byte) by the determinism
suite.

A second, smaller scenario gates the sampling quality bar: with 5%
head-sampling and a run of sequential moves, some of them aborted,
tail retention must keep the complete causal trace for 100% of the
aborted operations while head-sampling keeps at most 10% of the clean
ones.

Writes ``benchmarks/results/BENCH_obs_overhead.json`` (gated by
``check_regression.py``: ``overhead_pct`` must stay <= 5.0 absolute,
``*messages*`` counts must not grow) plus a human-readable table. Runs
standalone (``python benchmarks/bench_obs_overhead.py``) or under
pytest.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from repro import Guarantee
from repro.flowspace.filter import Filter
from repro.harness.deployment import Deployment
from repro.harness.scenarios import run_move_experiment
from repro.nfs.monitor import AssetMonitor
from repro.obs import ProgressReporter
from repro.obs.sampling import SamplingPolicy
from repro.traffic.replay import TraceReplayer
from repro.traffic.traces import TraceConfig, build_university_cloud_trace

from common import RESULTS_DIR, format_table, publish

N_FLOWS = 10_000
DATA_PACKETS = 3
RATE_PPS = 50_000.0
SEED = 7
ROUNDS = 4

#: Every local host in the university-cloud trace lives in 10.0.1.x,
#: so a /24 would move *all* 10k flows. The /29 covers the first
#: handful of hosts (~14% of flows) — the move window stays realistic:
#: most traffic is bystander load, not move traffic.
MOVE_FILTER = Filter({"nw_src": "10.0.1.0/29"}, symmetric=True)

MAX_OVERHEAD_PCT = 5.0
MAX_CLEAN_KEEP_FRACTION = 0.10

# Sampling-quality scenario.
Q_FLOWS = 40
Q_MOVES = 60
Q_ABORTED = {7, 23, 41}
Q_HEAD_RATE = 0.05


def run_one(telemetry: bool) -> dict:
    def operation(dep):
        return dep.controller.move(
            "inst1", "inst2", MOVE_FILTER, guarantee=Guarantee.LOSS_FREE
        )

    def on_deployment(dep):
        ProgressReporter(dep).start()  # repro top's default interval

    start = time.perf_counter()
    cpu_start = time.process_time()
    result = run_move_experiment(
        Guarantee.LOSS_FREE,
        n_flows=N_FLOWS,
        rate_pps=RATE_PPS,
        data_packets=DATA_PACKETS,
        seed=SEED,
        operation=operation,
        sampling=telemetry,
        on_deployment=on_deployment if telemetry else None,
        record_ground_truth=False,
    )
    cpu_s = time.process_time() - cpu_start
    wall_s = time.perf_counter() - start
    report = result.report
    assert not report.aborted, report.summary()
    return {
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "move_ms": report.duration_ms,
        "control_messages": result.deployment.control_messages_sent,
        "events": result.deployment.sim.events_processed,
    }


def run_overhead() -> dict:
    """Interleaved off/on pairs; gate on the best pair's CPU ratio.

    Telemetry strictly adds work, so machine noise can only *inflate*
    an off/on pair's ratio — the minimum ratio across back-to-back
    pairs (which share machine conditions) is the tightest sound upper
    bound on the true overhead. Negative readings are clamped to zero.
    """
    pairs = []
    for _ in range(ROUNDS):
        off = run_one(telemetry=False)
        on = run_one(telemetry=True)
        # Telemetry must be behaviorally invisible before it is cheap:
        # same control-message count, same simulated move duration.
        assert on["control_messages"] == off["control_messages"], (off, on)
        assert abs(on["move_ms"] - off["move_ms"]) < 1e-9, (off, on)
        pairs.append((off, on))
    best_off, best_on = min(
        pairs, key=lambda pair: pair[1]["cpu_s"] / pair[0]["cpu_s"]
    )
    overhead_pct = max(0.0, 100.0 * (
        best_on["cpu_s"] / best_off["cpu_s"] - 1.0
    ))
    return {
        "telemetry_off_cpu_s": round(best_off["cpu_s"], 4),
        "telemetry_on_cpu_s": round(best_on["cpu_s"], 4),
        "telemetry_off_wall_s": round(best_off["wall_s"], 4),
        "telemetry_on_wall_s": round(best_on["wall_s"], 4),
        "overhead_pct": round(overhead_pct, 2),
        "move_simulated_off_ms": round(best_off["move_ms"], 6),
        "move_simulated_on_ms": round(best_on["move_ms"], 6),
        "control_messages_off": best_off["control_messages"],
        "control_messages_on": best_on["control_messages"],
        "sim_events": best_on["events"],
    }


def run_sampling_quality() -> dict:
    """Sequential moves under 5% head sampling; aborted ops must survive."""
    dep = Deployment(
        audit=True,
        sampling=SamplingPolicy(head_rate=Q_HEAD_RATE, seed=1),
    )
    src = AssetMonitor(dep.sim, "inst1")
    dst = AssetMonitor(dep.sim, "inst2")
    dep.add_nf(src)
    dep.add_nf(dst)
    dep.set_default_route("inst1")
    trace = build_university_cloud_trace(
        TraceConfig(seed=SEED, n_flows=Q_FLOWS, data_packets=6)
    )
    replayer = TraceReplayer(dep.sim, dep.inject, trace.packets,
                             rate_pps=5000.0)
    replayer.start()
    flt = Filter({"nw_src": "10.0.0.0/8"}, symmetric=True)
    instances = ["inst1", "inst2"]
    trace_ids = {}

    def launch(index: int) -> None:
        if index >= Q_MOVES:
            return
        here, there = instances[index % 2], instances[(index + 1) % 2]
        op = dep.controller.move(
            here, there, flt, guarantee=Guarantee.LOSS_FREE
        )
        trace_ids[index] = op.trace.trace_id
        if index in Q_ABORTED:
            dep.sim.schedule(0.1, lambda: op.abort("bench abort #%d" % index))
        op.done.add_callback(lambda _evt: launch(index + 1))

    dep.sim.schedule(replayer.duration_ms + 5.0, launch, 0)
    dep.sim.run()
    dep.obs.violations()  # finalize auditors, then flush the sampler
    stats = dep.obs.sampling.stats()
    assert stats["ops_seen"] >= Q_MOVES, stats

    # 100% tail retention: every aborted op's causal trace survived in
    # full — its op.end record AND its spans are in the stored trace.
    kept_record_tids = {
        record.get("trace_id")
        for record in dep.obs.exporter.records
        if record.get("name") == "op.end"
    }
    kept_span_tids = {
        span.attrs.get("trace_id", span.span_id)
        for span in dep.obs.exporter.spans
    }
    aborted_tids = {trace_ids[index] for index in Q_ABORTED}
    missing = aborted_tids - (kept_record_tids & kept_span_tids)
    assert not missing, (missing, stats)
    assert stats["ops_kept_tail"] >= len(Q_ABORTED), stats

    clean_total = stats["ops_seen"] - stats["ops_kept_tail"]
    clean_kept = stats["ops_kept_head"] + stats["ops_kept_open"]
    clean_keep_fraction = clean_kept / float(clean_total)
    assert clean_keep_fraction <= MAX_CLEAN_KEEP_FRACTION, stats
    return {
        "ops_seen": stats["ops_seen"],
        "ops_kept_head": stats["ops_kept_head"],
        "ops_kept_tail": stats["ops_kept_tail"],
        "ops_discarded": stats["ops_discarded"],
        "aborted_ops": len(Q_ABORTED),
        "aborted_kept": len(aborted_tids & kept_record_tids & kept_span_tids),
        "clean_keep_fraction": round(clean_keep_fraction, 4),
        "records_sampled_out": stats["records_sampled_out"],
    }


def run_bench() -> dict:
    overhead = run_overhead()
    sampling = run_sampling_quality()
    results = {
        "n_flows": N_FLOWS,
        "data_packets": DATA_PACKETS,
        "rate_pps": RATE_PPS,
        "rounds": ROUNDS,
        "overhead": overhead,
        "sampling": sampling,
    }
    # The tentpole's acceptance gate: full telemetry costs <= 5%.
    assert overhead["overhead_pct"] <= MAX_OVERHEAD_PCT, overhead
    return results


def write_results(results: dict) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_obs_overhead.json")
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    overhead = results["overhead"]
    sampling = results["sampling"]
    rows = [
        ["off", "%.3f" % overhead["telemetry_off_cpu_s"],
         "%.3f" % overhead["telemetry_off_wall_s"],
         overhead["control_messages_off"], ""],
        ["on", "%.3f" % overhead["telemetry_on_cpu_s"],
         "%.3f" % overhead["telemetry_on_wall_s"],
         overhead["control_messages_on"],
         "%.2f%%" % overhead["overhead_pct"]],
    ]
    publish(
        "obs_overhead",
        format_table(
            "Telemetry overhead — %d-flow loss-free move (best of %d)"
            % (N_FLOWS, ROUNDS),
            ["telemetry", "cpu s", "wall s", "ctrl msgs", "overhead"],
            rows,
        )
        + "\nsampling: %d/%d clean ops kept (%.1f%%), %d/%d aborted kept"
        % (
            sampling["ops_kept_head"],
            sampling["ops_seen"] - sampling["ops_kept_tail"],
            100.0 * sampling["clean_keep_fraction"],
            sampling["aborted_kept"],
            sampling["aborted_ops"],
        ),
    )
    return path


def test_bench_obs_overhead():
    results = run_bench()
    path = write_results(results)
    assert os.path.exists(path)


if __name__ == "__main__":
    results = run_bench()
    path = write_results(results)
    print(json.dumps(results, indent=2, sort_keys=True))
    print("wrote %s" % path)
