"""The five workloads: fixed-work, deterministic simulations.

An *iteration* is one complete simulation on a fresh deployment over
inputs built once from the seed, so its work is fixed by count
(packets, operations, cells) and never by time. Traffic is open-loop on
the simulated clock (a ``TraceReplayer`` at 5 000 pps, below NF
capacity); operation clients are closed-loop (the next operation is
issued when the previous ``done`` fires). On the host clock every
iteration is a batch run.

Everything the system does is reached through :mod:`adapter`; this file
only says *what* each workload plays and how its outputs are checked.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Any, Callable, Dict, List, Tuple

import adapter

RATE_PPS = 5000.0
#: Simulator callbacks per measured slice (``run(max_events=...)``).
SLICE_EVENTS = 100
#: Hosts 10.0.1.1-15 of the trace's 50 local hosts: ~30 % of the flows
#: (1 500 pps) go to the IDS, whose capacity is 2 000 pps; the monitor
#: takes the rest, so neither instance ever builds a backlog.
IDS_PREFIX = "10.0.1.0/28"
#: The trace's local hosts fall into seven /29 blocks.
MOVE_BLOCKS = ["10.0.1.%d/29" % (8 * k) for k in range(7)]
CP_KINDS = ("lf", "lf+op", "lf", "copy")


class Run:
    """What one scenario leaves behind for counting and checking."""

    def __init__(self, dep, nfs, replayer=None, injected=0):
        self.dep = dep
        self.nfs = nfs
        self.replayer = replayer
        self.injected = injected
        self.reports: List[Any] = []
        self.slices: List[Tuple[int, int]] = []
        self.rules_peak = 0
        self.queue_peak = 0

    def drain(self) -> None:
        def sample() -> None:
            rules, queue = adapter.peaks(self.dep)
            if rules > self.rules_peak:
                self.rules_peak = rules
            if queue > self.queue_peak:
                self.queue_peak = queue

        sample()
        self.slices = adapter.run_sliced(self.dep, SLICE_EVENTS, sample)


def _closed_loop(run: Run, issue: Callable[[int], Any], count: int,
                 start_ms: float) -> None:
    """One client: issue op ``k+1`` when op ``k``'s ``done`` fires."""

    def step(k: int) -> None:
        if k >= count:
            return
        op = issue(k)

        def finished(event) -> None:
            run.reports.append(event.value)
            step(k + 1)

        op.done.add_callback(finished)

    run.dep.sim.schedule(start_ms, step, 0)


# ------------------------------------------------------------------ scenarios


def play_dp_steady(inputs, verify: bool) -> List[Run]:
    dep = adapter.new_deployment(verify)
    mon = adapter.add_nf(dep, "monitor", "mon")
    ids = adapter.add_nf(dep, "ids", "ids")
    adapter.route(dep, "mon")
    adapter.route(dep, "ids", IDS_PREFIX)
    replayer = adapter.start_replay(dep, inputs["packets"], RATE_PPS)
    run = Run(dep, [mon, ids], replayer, len(inputs["packets"]))
    run.drain()
    return [run]


def _play_moves(packets, n_moves: int, verify: bool, mode: str) -> Run:
    dep = adapter.new_deployment(verify, mode)
    nfs = [adapter.add_nf(dep, "monitor", name) for name in ("inst1", "inst2")]
    adapter.route(dep, "inst1")
    replayer = adapter.start_replay(dep, packets, RATE_PPS)
    run = Run(dep, nfs, replayer, len(packets))
    holder: Dict[int, str] = {}

    def issue(k: int):
        block = k % len(MOVE_BLOCKS)
        src = holder.get(block, "inst1")
        dst = "inst2" if src == "inst1" else "inst1"
        holder[block] = dst
        return adapter.move(dep, src, dst, MOVE_BLOCKS[block], "lf+op")

    _closed_loop(run, issue, n_moves, replayer.duration_ms * 0.1)
    run.drain()
    return run


def play_move_load(inputs, verify: bool) -> List[Run]:
    return [_play_moves(inputs["packets"], inputs["moves"], verify, "classic")]


MODE_NAMES = ("offload", "shards4", "batching", "faults")


def play_move_modes(inputs, verify: bool) -> List[Run]:
    return [
        _play_moves(inputs["packets"], inputs["moves"], verify, mode)
        for mode in MODE_NAMES
    ]


def play_cp_fig13(inputs, verify: bool) -> List[Run]:
    dep = adapter.new_deployment(verify)
    nfs = []
    run = Run(dep, nfs)
    for pair, start_ms in enumerate(inputs["starts"]):
        names = ("src%d" % pair, "dst%d" % pair)
        src, dst = (adapter.add_nf(dep, "dummy", name) for name in names)
        nfs.extend((src, dst))
        prefix = "172.%d.0.0/16" % (16 + pair)
        adapter.route(dep, names[0], prefix)
        src.preload(inputs["flows"], base_ip="172.%d.0.0" % (16 + pair))
        kind = CP_KINDS[pair % len(CP_KINDS)]

        def issue(k: int, names=names, prefix=prefix, kind=kind):
            if kind == "copy":
                return adapter.copy(dep, names[0], names[1], prefix)
            a, b = names if k % 2 == 0 else names[::-1]
            return adapter.move(dep, a, b, prefix, kind)

        _closed_loop(run, issue, inputs["rounds"], start_ms)
    run.drain()
    return [run]


# ------------------------------------------------------------------- checking


def _check_counts(run: Run, failures: List[str]) -> None:
    """What holds on every iteration, with or without ground truth."""
    processed = sum(nf.packets_processed for nf in run.nfs)
    if processed != run.injected:
        failures.append(
            "injected %d != processed %d" % (run.injected, processed)
        )
    aborted = [r.aborted for r in run.reports if r.aborted]
    if aborted:
        failures.append("%d ops aborted: %s" % (len(aborted), aborted[0]))


def check_traffic(run: Run, inputs, failures: List[str]) -> None:
    failures.extend(adapter.verify_move_run(run.dep, run.nfs, run.replayer))


def check_moves(run: Run, inputs, failures: List[str]) -> None:
    check_traffic(run, inputs, failures)
    failures.extend(adapter.monitor_conservation(run.nfs, run.replayer))
    if len(run.reports) != inputs["moves"]:
        failures.append(
            "%d of %d moves finished" % (len(run.reports), inputs["moves"])
        )


def check_cp(run: Run, inputs, failures: List[str]) -> None:
    flows, rounds = inputs["flows"], inputs["rounds"]
    counts = adapter.dummy_flow_counts(run.nfs)
    for pair in range(len(inputs["starts"])):
        held = (counts[2 * pair], counts[2 * pair + 1])
        if CP_KINDS[pair % len(CP_KINDS)] == "copy":
            want = (flows, flows)
        else:
            want = (flows, 0) if rounds % 2 == 0 else (0, flows)
        if held != want:
            failures.append("pair %d holds %s, want %s" % (pair, held, want))
    want_ops = rounds * len(inputs["starts"])
    if len(run.reports) != want_ops:
        failures.append("%d of %d ops finished" % (len(run.reports), want_ops))


# ------------------------------------------------------------- workload table


def _traffic_inputs(flows: int, moves: int = 0):
    def build(seed: int, scale: float) -> Dict[str, Any]:
        n_flows = max(20, int(flows * scale))
        return {
            # Every flow of the trace has at least 6 packets, so a cut
            # at 6 per flow exists for any seed.
            "packets": adapter.build_trace(seed, n_flows, 6 * n_flows),
            "moves": max(2, int(moves * scale)) if moves else 0,
        }

    return build


def _cp_inputs(seed: int, scale: float) -> Dict[str, Any]:
    rng = random.Random(seed)
    return {
        "flows": max(5, int(125 * scale)),
        "rounds": max(1, int(8 * scale)),
        # Eight concurrent clients (Fig. 13), staggered by the seed.
        "starts": [1.0 + 20.0 * rng.random() for _ in range(8)],
    }


def _conform_inputs(seed: int, scale: float) -> Dict[str, Any]:
    cells = adapter.conform_cells()
    modes = [i % len(adapter.CONFORM_MODES) for i in range(len(cells))]
    if scale < 1.0:
        step = max(1, int(round(1.0 / scale)) // 2)
        cells, modes = cells[::step], modes[::step]
    # The matrix is a fixed battery; the seed decides the order its
    # cells run in (and so what the allocator and caches have seen).
    order = list(range(len(cells)))
    random.Random(seed).shuffle(order)
    return {"cells": cells, "modes": modes, "order": order}


WORKLOADS: Dict[str, Dict[str, Any]] = {
    "dp_steady": {
        "unit": "packet",
        "sizes": "2000 flows, 12000 packets, monitor + IDS, no operations",
        "inputs": _traffic_inputs(2000),
        "play": play_dp_steady,
        "check": check_traffic,
    },
    "cp_fig13": {
        "unit": "operation",
        "sizes": "8 DummyNF pairs x 125 flows, 8 closed-loop clients x 8 rounds",
        "inputs": _cp_inputs,
        "play": play_cp_fig13,
        "check": check_cp,
    },
    "move_load": {
        "unit": "packet",
        "sizes": "1500 flows, 9000 packets, 16 ping-pong LF+OP /29 moves",
        "inputs": _traffic_inputs(1500, 16),
        "play": play_move_load,
        "check": check_moves,
    },
    "move_modes": {
        "unit": "packet",
        "sizes": "500 flows, 3000 packets, 5 moves, once per non-classic mode",
        "inputs": _traffic_inputs(500, 5),
        "play": play_move_modes,
        "check": check_moves,
    },
    "conform_matrix": {
        "unit": "cell",
        "sizes": "112 cells, cell i under shards=1 / shards=2 / offload by i%3",
        "inputs": _conform_inputs,
    },
}


# ----------------------------------------------------------------- iterations


def timed(fn: Callable[[], Any]):
    """``(value, CPU s, wall s)`` of ``fn()``, from a collected heap."""
    gc.collect()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    value = fn()
    cpu = time.process_time() - cpu0
    return value, cpu, time.perf_counter() - wall0


def _merge_counters(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    """Sum counts over sub-runs; peaks and shares do not add."""
    total: Dict[str, float] = {}
    for counters in dicts:
        for key, value in counters.items():
            if key.endswith("_peak"):
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    if len(dicts) > 1 and "nf.base.slowpath_share" in total:
        total["nf.base.slowpath_share"] /= len(dicts)
    return total


def iterate(name: str, inputs, verify: bool = False, rotation: int = 0,
            timed=timed) -> Dict[str, Any]:
    """One iteration of workload ``name``; returns its measurements.

    Only building the deployment(s) and draining the simulation are
    inside the timed region; counting, hashing and checking are not.
    ``rotation`` shifts the conformance cells' mode assignment (set-up
    uses it to verify every cell under every mode); ``timed`` is the
    stopwatch, which the traced iteration swaps for the tracer's.
    """
    if name == "conform_matrix":
        return _iterate_conform(inputs, rotation, timed)
    spec = WORKLOADS[name]
    runs, cpu_s, wall_s = timed(lambda: spec["play"](inputs, verify))
    failures: List[str] = []
    counters = []
    ops: Dict[str, List[float]] = {}
    for run in runs:
        _check_counts(run, failures)
        if verify:
            spec["check"](run, inputs, failures)
        row = adapter.counters(run.dep, run.reports)
        row["net.flowtable.rules_peak"] = run.rules_peak
        row["nf.base.queue_peak"] = run.queue_peak
        row["traffic.pkts_injected"] = run.injected
        counters.append(row)
        for report in run.reports:
            ops.setdefault(report.kind, []).append(report.duration_ms)
    result = {
        "work": sum(run.injected for run in runs)
        if spec["unit"] == "packet" else sum(len(run.reports) for run in runs),
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "slices": [s for run in runs for s in run.slices],
        "counters": _merge_counters(counters),
        "op_ms": ops,
        "digest": adapter.digest((r.dep, r.reports) for r in runs),
        "failures": failures,
    }
    if verify and runs[0].replayer is not None:
        result["pkt_ms"] = [
            ms for run in runs
            for ms in adapter.packet_latencies_ms(run.nfs, run.replayer)
        ]
    if len(runs) > 1:
        # Where each mode's slices sit in the flat list, for per-mode cost.
        result["modes"] = {}
        first = 0
        for mode, run in zip(MODE_NAMES, runs):
            result["modes"][mode] = (run.injected, first, first + len(run.slices))
            first += len(run.slices)
    return result


def _iterate_conform(inputs, rotation: int, timed) -> Dict[str, Any]:
    cells, modes, order = inputs["cells"], inputs["modes"], inputs["order"]
    n_modes = len(adapter.CONFORM_MODES)
    rows: List[Dict[str, Any]] = []
    slices: List[Tuple[int, int]] = []

    def play() -> None:
        clock = time.process_time_ns
        for index in order:
            mode = adapter.CONFORM_MODES[(modes[index] + rotation) % n_modes]
            t0 = clock()
            row = adapter.run_conform_cell(cells[index], mode)
            slices.append((clock() - t0, row["counters"]["sim.events"]))
            rows.append(row)

    _none, cpu_s, wall_s = timed(play)
    counters = _merge_counters([
        dict(
            row["counters"],
            **{
                "net.flowtable.rules_peak": row["peaks"][0],
                "nf.base.queue_peak": row["peaks"][1],
                "obs.spans": row["obs.spans"],
                "obs.records": row["obs.records"],
                "obs.violations": row["obs.violations"],
            }
        )
        for row in rows
    ])
    counters["traffic.pkts_injected"] = counters["net.switch.received"]
    verdicts = [row["verdict"] for row in rows]
    counters["conformance.cells_clean"] = verdicts.count("clean")
    counters["conformance.cells_expected_dirty"] = verdicts.count(
        "expected-dirty"
    )
    failures = [v for v in verdicts if v.startswith("FAILED")]
    counters["conformance.cells_failed"] = len(failures)
    if len(cells) == 112 and (
        counters["conformance.cells_clean"],
        counters["conformance.cells_expected_dirty"],
    ) != (84, 28):
        failures.append(
            "verdicts %d clean / %d expected-dirty, want 84 / 28" % (
                counters["conformance.cells_clean"],
                counters["conformance.cells_expected_dirty"],
            )
        )
    ops: Dict[str, List[float]] = {}
    for row in rows:
        for kind, start, end, _chunks in row["ops"]:
            ops.setdefault(kind, []).append(end - start)
    return {
        "work": len(rows),
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "slices": slices,
        "counters": counters,
        "op_ms": ops,
        "digest": adapter.digest_rows(rows),
        "failures": failures,
    }
