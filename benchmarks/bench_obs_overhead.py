"""Telemetry overhead gate: full observability must cost <= 5% wall-clock.

Scale-ready telemetry is only scale-ready if leaving it on is free
enough to never think about. This benchmark runs the same 10k-flow
scenario (steady traffic to one monitor, one loss-free move of a /29
subnet mid-trace) twice per round — telemetry fully off, and fully on
as ``repro run --show top`` runs it (the full stored trace + bounded
histograms + a progress reporter taking one frame per 1000 simulated
ms) — as
``PAIRS`` interleaved pairs whose first run alternates between off and
on, and gates on the median pair's CPU-time ratio. The run is single-threaded, so CPU time *is*
the wall-clock cost of telemetry — minus the scheduler noise of a
shared CI box; wall-clock times are reported alongside as
informational.

Ground-truth logging is off in both runs so the measurement isolates
the telemetry layer itself. The on-run must also be *behaviorally*
invisible: identical control-message counts and an identical simulated
move duration, pinned here and (byte-for-byte) by the determinism
suite. Both, and the simulator's event count, must also equal the
committed results exactly: the simulated clock moves only in a change
that regenerates this file on purpose.

A second, smaller scenario gates the retention quality bar of the
flight recorder, the one bounded trace store: over an audited run of
sequential moves, some of them aborted, every aborted operation must
have exactly one abort bundle whose causal slice is its complete stored
trace, while at most 10% of the clean operations are bundled.

Writes ``benchmarks/results/BENCH_obs_overhead.json`` plus a
human-readable table, after checking the fresh run against the
committed file. Runs standalone (``python
benchmarks/bench_obs_overhead.py``) or under pytest.
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
from repro.traffic.replay import TraceReplayer
from repro.traffic.traces import TraceConfig, build_university_cloud_trace

from common import RESULTS_DIR, format_table, publish

N_FLOWS = 10_000
DATA_PACKETS = 3
RATE_PPS = 50_000.0
SEED = 7
#: Interleaved off/on pairs, alternating which side runs first; odd,
#: so the median is one pair's ratio.
PAIRS = 5

#: Every local host in the university-cloud trace lives in 10.0.1.x,
#: so a /24 would move *all* 10k flows. The /29 covers the first
#: handful of hosts (~14% of flows) — the move window stays realistic:
#: most traffic is bystander load, not move traffic.
MOVE_FILTER = Filter({"nw_src": "10.0.1.0/29"}, symmetric=True)

MAX_OVERHEAD_PCT = 5.0
MAX_CLEAN_KEEP_FRACTION = 0.10
RESULTS_PATH = os.path.join(RESULTS_DIR, "BENCH_obs_overhead.json")
#: ``overhead`` keys that the simulated clock fixes: a fresh run must
#: reproduce the committed value exactly.
PINNED_KEYS = (
    "control_messages_off",
    "control_messages_on",
    "move_simulated_off_ms",
    "move_simulated_on_ms",
    "sim_events",
)

# Retention-quality scenario.
Q_FLOWS = 40
Q_MOVES = 60
Q_ABORTED = {7, 23, 41}


def run_one(telemetry: bool) -> dict:
    def operation(dep):
        return dep.controller.move(
            "inst1", "inst2", MOVE_FILTER, guarantee=Guarantee.LOSS_FREE
        )

    def on_deployment(dep):
        ProgressReporter(dep).start()  # the top view's default interval

    start = time.perf_counter()
    cpu_start = time.process_time()
    result = run_move_experiment(
        Guarantee.LOSS_FREE,
        n_flows=N_FLOWS,
        rate_pps=RATE_PPS,
        data_packets=DATA_PACKETS,
        seed=SEED,
        operation=operation,
        observe=telemetry,
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
    """Interleaved off/on pairs; gate on the median pair's CPU ratio.

    The two runs of a pair are back to back, so they share the host's
    conditions, and noise only ever inflates a run. Even pairs run off
    first and odd pairs on first, so a drift that favours the second
    run of a pair (a warmed cache, a quieting host) cancels rather
    than landing on one side. The median pair
    is what telemetry costs on a typical pair — a stricter gate than
    the luckiest (minimum) pair, and as robust to one disturbed pair.
    Negative readings are clamped to zero.
    """
    pairs = []
    for index in range(PAIRS):
        if index % 2:
            on = run_one(telemetry=True)
            off = run_one(telemetry=False)
        else:
            off = run_one(telemetry=False)
            on = run_one(telemetry=True)
        # Telemetry must be behaviorally invisible before it is cheap:
        # same control-message count, same simulated move duration.
        assert on["control_messages"] == off["control_messages"], (off, on)
        assert abs(on["move_ms"] - off["move_ms"]) < 1e-9, (off, on)
        pairs.append((off, on))
    pairs.sort(key=lambda pair: pair[1]["cpu_s"] / pair[0]["cpu_s"])
    mid_off, mid_on = pairs[len(pairs) // 2]
    overhead_pct = max(0.0, 100.0 * (
        mid_on["cpu_s"] / mid_off["cpu_s"] - 1.0
    ))
    return {
        "telemetry_off_cpu_s": round(mid_off["cpu_s"], 4),
        "telemetry_on_cpu_s": round(mid_on["cpu_s"], 4),
        "telemetry_off_wall_s": round(mid_off["wall_s"], 4),
        "telemetry_on_wall_s": round(mid_on["wall_s"], 4),
        "overhead_pct": round(overhead_pct, 2),
        "pair_cpu_ratios": [
            round(on["cpu_s"] / off["cpu_s"], 4) for off, on in pairs
        ],
        "move_simulated_off_ms": round(mid_off["move_ms"], 6),
        "move_simulated_on_ms": round(mid_on["move_ms"], 6),
        "control_messages_off": mid_off["control_messages"],
        "control_messages_on": mid_on["control_messages"],
        "sim_events": mid_on["events"],
    }


def run_retention_quality() -> dict:
    """Sequential audited moves; each aborted op is bundled in full."""
    dep = Deployment(audit=True)
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
    dep.obs.violations()  # finalize the auditors: late bundles included
    assert len(trace_ids) == Q_MOVES, trace_ids
    bundles = dep.obs.recorder.bundles
    exporter = dep.obs.exporter

    # Every aborted op has exactly one abort bundle, and its causal
    # slice is the op's whole stored trace: the same spans, and the
    # same records (op.end among them).
    aborted_tids = {trace_ids[index] for index in Q_ABORTED}
    complete = set()
    for trace_id in aborted_tids:
        [bundle] = [b for b in bundles
                    if b["trace_id"] == trace_id and b["reason"] == "abort"]
        causal = bundle["causal_slice"]
        stored_spans = sorted(
            span.span_id for span in exporter.spans
            if span.attrs.get("trace_id") == trace_id
        )
        stored_records = sorted(
            id(record) for record in exporter.records
            if record.get("trace_id") == trace_id
        )
        if (sorted(span["span_id"] for span in causal["spans"])
                == stored_spans
                and sorted(map(id, causal["records"])) == stored_records
                and any(r["name"] == "op.end" and r["aborted"]
                        for r in causal["records"])):
            complete.add(trace_id)
    assert complete == aborted_tids, (aborted_tids - complete)

    clean_tids = set(trace_ids.values()) - aborted_tids
    clean_bundled = {b["trace_id"] for b in bundles} & clean_tids
    clean_bundled_fraction = len(clean_bundled) / float(len(clean_tids))
    assert clean_bundled_fraction <= MAX_CLEAN_KEEP_FRACTION, clean_bundled
    return {
        "ops": len(trace_ids),
        "bundles": len(bundles),
        "aborted_ops": len(aborted_tids),
        "aborted_bundled_complete": len(complete),
        "clean_ops": len(clean_tids),
        "clean_bundled": len(clean_bundled),
        "clean_bundled_fraction": round(clean_bundled_fraction, 4),
    }


def run_bench() -> dict:
    overhead = run_overhead()
    retention = run_retention_quality()
    results = {
        "n_flows": N_FLOWS,
        "data_packets": DATA_PACKETS,
        "rate_pps": RATE_PPS,
        "pairs": PAIRS,
        "overhead": overhead,
        "retention": retention,
    }
    check_pinned(overhead)
    # The tentpole's acceptance gate: full telemetry costs <= 5%.
    assert overhead["overhead_pct"] <= MAX_OVERHEAD_PCT, overhead
    return results


def check_pinned(overhead: dict) -> None:
    """The fresh run's simulated facts equal the committed file's.

    A change that means to move the simulated clock deletes the
    committed file and regenerates it.
    """
    if not os.path.exists(RESULTS_PATH):
        return
    with open(RESULTS_PATH) as handle:
        committed = json.load(handle)["overhead"]
    moved = {
        key: (committed[key], overhead[key])
        for key in PINNED_KEYS if committed[key] != overhead[key]
    }
    assert not moved, "simulated facts moved (committed, fresh): %r" % moved


def write_results(results: dict) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(RESULTS_PATH, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    overhead = results["overhead"]
    retention = results["retention"]
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
            "Telemetry overhead — %d-flow loss-free move (median of %d "
            "pairs)" % (N_FLOWS, PAIRS),
            ["telemetry", "cpu s", "wall s", "ctrl msgs", "overhead"],
            rows,
        )
        + "\nretention: %d/%d aborted ops bundled complete, %d/%d clean "
        "ops bundled"
        % (
            retention["aborted_bundled_complete"],
            retention["aborted_ops"],
            retention["clean_bundled"],
            retention["clean_ops"],
        ),
    )
    return RESULTS_PATH


def test_bench_obs_overhead():
    results = run_bench()
    path = write_results(results)
    assert os.path.exists(path)


if __name__ == "__main__":
    results = run_bench()
    path = write_results(results)
    print(json.dumps(results, indent=2, sort_keys=True))
    print("wrote %s" % path)
