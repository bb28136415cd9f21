"""Sharded control plane scalability: the §8.3 wall, removed.

Figure 13 shows per-move time growing linearly with concurrency because
every message serializes through one controller inbox. This benchmark
re-runs that setup — N disjoint DummyNF pairs, one loss-free move each,
all simultaneous — against the controller at 1, 2, and 4 shards
(``Deployment(shards=N)``), plus a pure event-drain measurement (a
burst of NF events spread across flow space). Both the aggregate
operation throughput and the event throughput must scale at least 3x
from 1 shard to 4.

Writes ``benchmarks/results/BENCH_sharded.json`` (gated by
``check_regression.py``: ``*_per_s`` / ``*_speedup_x`` keys must not
fall below baseline) and a human-readable table. Runs standalone
(``python benchmarks/bench_sharded.py``) or under pytest.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from repro.flowspace import Filter, FiveTuple
from repro.harness import Deployment
from repro.net.packet import Packet
from repro.nf.events import EventAction, PacketEvent
from repro.nfs.dummy import DummyNF

from common import RESULTS_DIR, format_table, publish

SHARD_COUNTS = [1, 2, 4]
N_PAIRS = 8
FLOWS_PER_MOVE = 400
N_EVENTS = 4000
MIN_SPEEDUP_AT_4 = 3.0


def run_concurrent_moves(shards: int) -> dict:
    """N simultaneous disjoint moves; returns makespan + throughput.

    Pair ``p`` owns subnet ``172.(16+p).0.0/16``; adjacent /16s cycle
    round-robin across shards, so at 4 shards each replica carries
    exactly ``N_PAIRS / 4`` moves.
    """
    dep = Deployment(shards=shards)
    planned = []
    for pair in range(N_PAIRS):
        src = DummyNF(dep.sim, "src%d" % pair)
        dst = DummyNF(dep.sim, "dst%d" % pair)
        dep.add_nf(src)
        dep.add_nf(dst)
        subnet = "172.%d.0.0/16" % (16 + pair)
        pair_filter = Filter({"nw_src": subnet}, symmetric=True)
        dep.set_default_route(src.name, pair_filter)
        src.preload(FLOWS_PER_MOVE, base_ip="172.%d.0.0" % (16 + pair))
        planned.append((src.name, dst.name, pair_filter))

    moves = []

    def kickoff() -> None:
        for src_name, dst_name, pair_filter in planned:
            moves.append(dep.controller.move(
                src_name, dst_name, pair_filter,
                scope="per", guarantee="lf",
            ))

    kickoff_at = 10.0
    dep.sim.schedule(kickoff_at, kickoff)
    dep.sim.run()

    reports = [move.done.value for move in moves]
    assert len(reports) == N_PAIRS
    assert sum(r.total_chunks for r in reports) == N_PAIRS * FLOWS_PER_MOVE
    makespan_ms = max(r.finished_at for r in reports) - kickoff_at
    return {
        "makespan_ms": round(makespan_ms, 3),
        "avg_move_ms": round(
            sum(r.duration_ms for r in reports) / N_PAIRS, 3),
        "aggregate_ops_per_s": round(N_PAIRS / makespan_ms * 1000.0, 1),
    }


def run_event_drain(shards: int) -> dict:
    """A burst of NF events across flow space; how fast does it drain?

    Unsequenced events route to the replica owning the flow (exact
    5-tuple hash), so the burst spreads over every inbox and each event
    still costs one serialized ``msg_proc_ms`` handling slot.
    """
    dep = Deployment(shards=shards)
    nf = DummyNF(dep.sim, "gen")
    dep.add_nf(nf)
    dep.controller.default_event_handler = lambda event: None
    for index in range(N_EVENTS):
        flow = FiveTuple(
            "172.%d.%d.%d" % (16 + index % 8, 1 + index // 250,
                              1 + index % 250),
            20000 + index, "198.18.0.1", 80,
        )
        packet = Packet(flow, tcp_flags=("ACK",), created_at=dep.sim.now)
        dep.controller.handle_nf_event(
            PacketEvent("gen", packet, EventAction.PROCESS, dep.sim.now))
    finished = {}
    dep.controller.inbox_drained().add_callback(
        lambda _evt: finished.setdefault("at", dep.sim.now))
    dep.sim.run()
    drain_ms = finished["at"]
    return {
        "drain_ms": round(drain_ms, 3),
        "events_per_s": round(N_EVENTS / drain_ms * 1000.0, 1),
    }


def run_sharded() -> dict:
    results = {
        "pairs": N_PAIRS,
        "flows_per_move": FLOWS_PER_MOVE,
        "n_events": N_EVENTS,
        "moves": {},
        "events": {},
    }
    for shards in SHARD_COUNTS:
        results["moves"]["shards_%d" % shards] = run_concurrent_moves(shards)
        results["events"]["shards_%d" % shards] = run_event_drain(shards)
    moves, events = results["moves"], results["events"]
    results["move_speedup_x"] = round(
        moves["shards_4"]["aggregate_ops_per_s"]
        / moves["shards_1"]["aggregate_ops_per_s"], 2)
    results["event_speedup_x"] = round(
        events["shards_4"]["events_per_s"]
        / events["shards_1"]["events_per_s"], 2)

    # The tentpole's acceptance gate: 4 shards must buy >= 3x on both
    # aggregate operation throughput and event throughput.
    assert results["move_speedup_x"] >= MIN_SPEEDUP_AT_4, results
    assert results["event_speedup_x"] >= MIN_SPEEDUP_AT_4, results
    return results


def write_results(results: dict) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_sharded.json")
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    rows = [
        [
            shards,
            "%.1f" % results["moves"]["shards_%d" % shards]
            ["aggregate_ops_per_s"],
            "%.0f" % results["moves"]["shards_%d" % shards]["makespan_ms"],
            "%.0f" % results["events"]["shards_%d" % shards]["events_per_s"],
        ]
        for shards in SHARD_COUNTS
    ]
    publish(
        "sharded_scaling",
        format_table(
            "Sharded control plane — %d simultaneous %d-flow moves + "
            "%d-event burst" % (N_PAIRS, FLOWS_PER_MOVE, N_EVENTS),
            ["shards", "ops/s", "makespan ms", "events/s"],
            rows,
        ),
    )
    return path


def test_bench_sharded():
    results = run_sharded()
    path = write_results(results)
    assert os.path.exists(path)


if __name__ == "__main__":
    results = run_sharded()
    path = write_results(results)
    print(json.dumps(results, indent=2, sort_keys=True))
    print("wrote %s" % path)
