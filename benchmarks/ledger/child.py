"""One workload, one fresh process: set-up, timed iterations, traced run.

Started by ``run.py`` (``PYTHONHASHSEED=0``, ``src/`` on the path), one
at a time. Prints progress on stderr and, as the last line of stdout,
one JSON object with everything measured.

Run shape::

    imports -> calibration loop
    set-up x REPS: build inputs from the seed, one *verify iteration*
        (ground-truth logs on, every guarantee check); the imports are
        sampled REPS times too, in interpreters of their own -> setup_s
    timed iterations until --seconds have passed (>= 3), tracing off,
        ground truth off, gc.collect() between              -> end to end
    calibration loop again                                  -> host noise
    --trace 1 only: layer probes, then one traced iteration -> per layer
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time

import adapter
import workloads


def calibrate(n: int = 500_000, rounds: int = 4) -> float:
    """Fixed pure-Python loop; millions of iterations per CPU second.

    Best of a few rounds: the first round of a cold process reads low.
    """
    best = 0.0
    for _ in range(rounds):
        t0 = time.process_time()
        x = 0
        for i in range(n):
            x = (x + i * i) % 1000003
        best = max(best, n / (time.process_time() - t0) / 1e6)
    return best


def floor_ns(samples) -> int:
    """CPU ns of one pass over the same pieces of work, host noise removed.

    ``samples[i][j]`` is what piece ``j`` cost on pass ``i``. The
    simulation is deterministic, so piece ``j`` is the same work on
    every pass; on a shared host other tenants only ever add to its
    CPU time, so its cost is the least any pass measured.
    """
    samples = list(samples)
    if len({len(row) for row in samples}) != 1:
        return min(sum(row) for row in samples)
    return sum(min(column) for column in zip(*samples))


def pieces_ns(iteration) -> list:
    """An iteration's stopwatch: what ran before the first slice, then
    every slice."""
    slices = [ns for ns, _ in iteration["slices"]]
    return [int(iteration["cpu_s"] * 1e9) - sum(slices)] + slices


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def import_seconds(args, samples: int) -> list:
    """Seconds from spawn to "the system is imported", ``samples`` times.

    Imports can only happen once per process, so every sample but this
    process's own comes from one more interpreter (same command line;
    argparse keeps the last ``--spawned-at``).
    """
    seconds = [time.time() - args.spawned_at]
    for _ in range(samples - 1):
        seconds.append(float(subprocess.run(
            [sys.executable] + sys.argv + [
                "--imports-only", "--spawned-at", repr(time.time())],
            stdout=subprocess.PIPE, check=True, text=True,
        ).stdout))
    return seconds


def set_up(name, spec, args, reps: int, failures: list):
    """Build the inputs and run the verify iteration, ``reps`` times."""
    stopwatches = []
    verify = None
    for rep in range(reps):
        t0 = time.perf_counter()
        inputs = spec["inputs"](args.seed, args.scale)
        built = time.perf_counter()
        result = workloads.iterate(name, inputs, verify=True, rotation=rep)
        rest = time.perf_counter() - built - result["wall_s"]
        stopwatches.append(
            [int((built - t0) * 1e9), int(rest * 1e9)] + pieces_ns(result))
        failures.extend("verify %d: %s" % (rep, f) for f in result["failures"])
        verify = verify or result
    return inputs, verify, stopwatches


def run_timed(name, inputs, verify, seconds: float, at_least: int, failures: list):
    """Timed iterations; each must reproduce the verify iteration."""
    iterations = []
    started = time.perf_counter()
    while (
        len(iterations) < at_least
        or time.perf_counter() - started < seconds
    ):
        result = workloads.iterate(name, inputs)
        iterations.append(result)
        k = len(iterations)
        failures.extend("iteration %d: %s" % (k, f) for f in result["failures"])
        if result["digest"] != verify["digest"]:
            failures.append("iteration %d: sim_digest %s != verify %s" % (
                k, result["digest"], verify["digest"]))
        elif result["counters"] != verify["counters"]:
            moved = sorted(
                key for key in verify["counters"]
                if result["counters"].get(key) != verify["counters"][key]
            )
            failures.append("iteration %d: sim statistics moved: %s" % (
                k, ", ".join(moved)))
    return iterations


def run_traced(name, inputs, verify, args, median_cpu_s: float, failures: list):
    """Layer probes, then one traced iteration: (metrics, details, work)."""
    import probes
    import trace

    probe_packets = inputs.get("packets") or adapter.build_trace(
        args.seed, 300, probes.PROBE_PACKETS)
    metrics = probes.run_probes(probe_packets)

    tracer = trace.SpanTracer()
    result = workloads.iterate(name, inputs, timed=tracer.timed)
    failures.extend("traced: %s" % f for f in result["failures"])
    if result["digest"] != verify["digest"]:
        failures.append("traced: sim_digest %s != verify %s" % (
            result["digest"], verify["digest"]))
    work = result["work"]
    total = float(tracer.traced_ns)
    layers = {metric: 0.0 for metric in adapter.all_time_metrics()}
    layers.update(tracer.self_time_ns())
    attributed = sum(layers.values())
    for metric, ns in layers.items():
        metrics[metric] = ns / work / 1000.0
    calls = tracer.call_counts()
    metrics.update({
        "trace.unattributed_us": (total - attributed) / work / 1000.0,
        "trace.overhead_pct": (result["cpu_s"] / median_cpu_s - 1.0) * 100.0,
        "trace.wall_over_cpu": total / 1e9 / tracer.traced_cpu_s,
        "trace.spans": len(tracer.start),
        "trace.missing": len(tracer.missing),
        "net.flowtable.installs": calls.get("FlowTable.install", 0),
        "net.flowtable.removes": calls.get("FlowTable.remove", 0),
        "nf.southbound.rpcs": sum(
            n for span, n in calls.items() if span.startswith("NFClient.")
        ),
    })
    details = {
        "missing": tracer.missing,
        "calls": calls,
        "share_pct": {
            metric: round(100.0 * ns / total, 2)
            for metric, ns in sorted(layers.items(), key=lambda kv: -kv[1])
            if ns
        },
        "unattributed_pct": round(100.0 * (total - attributed) / total, 2),
        "bookkeeping_pct": round(100.0 * tracer.bookkeeping[0] / total, 2),
    }
    if args.spans:
        details["spans_written"] = tracer.write(args.spans)
    log("%s: traced iteration %.2fs CPU, %d spans, %d missing" % (
        name, tracer.traced_cpu_s, len(tracer.start), len(tracer.missing)))
    return metrics, details, work


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", default="")
    parser.add_argument("--imports-only", action="store_true")
    args = parser.parse_args()
    if args.imports_only:
        print(time.time() - args.spawned_at)
        return 0
    # A scaled-down run is the smoke test: once through everything.
    reps = 3 if args.scale == 1.0 else 1
    name = args.workload
    spec = workloads.WORKLOADS[name]
    failures = []

    import_samples = import_seconds(args, reps)
    calib_before = calibrate()
    inputs, verify, setup_reps = set_up(name, spec, args, reps, failures)
    setup_s = min(import_samples) + floor_ns(setup_reps) / 1e9
    log("%s: set-up %.2fs (import %.2fs, %d reps), digest %s" % (
        name, setup_s, min(import_samples), reps, verify["digest"]))

    gc_before = sum(s["collections"] for s in gc.get_stats())
    iterations = run_timed(name, inputs, verify, args.seconds, reps, failures)
    gc_collections = sum(s["collections"] for s in gc.get_stats()) - gc_before
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calib_after = calibrate()

    work = verify["work"]
    attempted = work * (reps + len(iterations))
    cpu = [it["cpu_s"] for it in iterations]
    pieces = [pieces_ns(it) for it in iterations]
    if len({len(row) for row in pieces}) != 1:
        failures.append("iterations differ in their number of slices")
    floor_s = floor_ns(pieces) / 1e9
    wall_over_cpu = sum(it["wall_s"] for it in iterations) / sum(cpu)
    drift_pct = (calib_after / calib_before - 1.0) * 100.0
    disturbed = abs(drift_pct) > 10.0 or wall_over_cpu > 1.15
    log("%s: %d timed iterations, %.3f-%.3f CPU s each, %.3f with host noise removed" % (
        name, len(iterations), min(cpu), max(cpu), floor_s))

    metrics = {
        "setup_s": setup_s,
        "work_per_cpu_s": work / floor_s,
        "peak_rss_mb": peak_rss_mb,
    }
    metrics.update(verify["counters"])
    all_ops = [ms for kind in verify["op_ms"].values() for ms in kind]
    slices_us = [
        ns / 1000.0 / events
        for it in iterations for ns, events in it["slices"] if events
    ]
    metrics.update({
        "sim.events_per_work": verify["counters"]["sim.events"] / work,
        "sim.op_ms_p50": percentile(all_ops, 50),
        "sim.op_ms_max": max(all_ops, default=0.0),
        "sim.pkt_ms_p99": percentile(verify.get("pkt_ms", ()), 99),
        "controller.move.sim_ms_p50": percentile(
            verify["op_ms"].get("move", ()), 50),
        "controller.copy.sim_ms_p50": percentile(
            verify["op_ms"].get("copy", ()), 50),
        "host.iterations": len(iterations),
        "host.work_per_cpu_s_median": work / statistics.median(cpu),
        "host.noise_pct": (statistics.median(cpu) / floor_s - 1.0) * 100.0,
        "host.wall_over_cpu": wall_over_cpu,
        "host.iter_cpu_s_min": min(cpu),
        "host.iter_cpu_s_max": max(cpu),
        "host.gc_collections": gc_collections,
        "host.calib_mops": calib_before,
        "host.calib_drift_pct": drift_pct,
        "slice.us_per_event_p50": percentile(slices_us, 50),
        "slice.us_per_event_p95": percentile(slices_us, 95),
    })
    for key in ("traffic.pkts_injected", "obs.spans", "obs.records",
                "obs.violations", "conformance.cells_clean",
                "conformance.cells_expected_dirty",
                "conformance.cells_failed"):
        metrics.setdefault(key, 0)
    for mode in workloads.MODE_NAMES:
        rate = 0.0
        if "modes" in iterations[0]:
            packets, first, last = iterations[0]["modes"][mode]
            rate = packets / (floor_ns(
                [ns for ns, _ in it["slices"][first:last]] for it in iterations
            ) / 1e9)
        metrics["mode.%s.work_per_cpu_s" % mode] = rate

    traced = {}
    if args.trace:
        layer_metrics, traced, traced_work = run_traced(
            name, inputs, verify, args, statistics.median(cpu), failures)
        metrics.update(layer_metrics)
        attempted += traced_work

    print(json.dumps({
        "workload": name,
        "seed": args.seed,
        "scale": args.scale,
        "unit": spec["unit"],
        "sizes": spec["sizes"],
        "work_per_iteration": work,
        "iter_cpu_s": cpu,
        "floor_cpu_s": floor_s,
        "setup_rep_s": [sum(rep) / 1e9 for rep in setup_reps],
        "import_samples_s": import_samples,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "disturbed": disturbed,
        "sim_digest": verify["digest"],
        "samples": {
            "work_per_cpu_s": len(iterations),
            "setup_s": reps,
            "sim.op_ms": len(all_ops),
            "sim.pkt_ms_p99": len(verify.get("pkt_ms", ())),
            "slice.us_per_event": len(slices_us),
        },
        "metrics": metrics,
        "trace": traced,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
