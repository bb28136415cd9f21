"""Golden control-path timelines: shards x mode x guarantee.

``tests/golden/control_path.json`` was generated at the last commit
that still had two control-plane classes (a classic controller and a
sharded plane) and is committed unmodified: it pins the simulated
clock of the one class that replaced them. Every cell runs a
fixed-seed ``run_move_experiment`` and a scenario of two concurrent
overlapping moves (a cross-shard handshake at ``shards > 1``, a plain
FIFO deferral at ``shards == 1``), and records the operation reports,
the final clock and event count, the total control messages sent, and
the completed handoffs.

Regenerate (``python tests/test_golden_control_path.py``) only in a PR
that says why the simulated clock moves.
"""

import dataclasses
import json
import os

import pytest

from repro import AssetMonitor, Deployment, Filter, Guarantee
from repro.harness import run_move_experiment
from repro.net.packet import reset_uid_counter
from repro.traffic import (
    TraceConfig,
    TraceReplayer,
    build_university_cloud_trace,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "control_path.json"
)

SHARDS = (1, 2, 4)
MODES = {
    "classic": {},
    "offload": {"offload": True},
    "batching": {"batching": True},
    "faults": {"faults": "seed=3,drop=0.01"},
}
GUARANTEES = {
    "lf": Guarantee.LOSS_FREE,
    "lf+op": Guarantee.ORDER_PRESERVING,
}
CELLS = [
    (shards, mode, guarantee)
    for shards in SHARDS for mode in MODES for guarantee in GUARANTEES
]


def _cell_key(shards, mode, guarantee):
    return "shards%d/%s/%s" % (shards, mode, guarantee)


def _report_dict(report):
    data = dataclasses.asdict(report)
    data["guarantee"] = report.guarantee_label
    data["affected_uids"] = sorted(report.affected_uids)
    return data


def _record(dep, reports):
    ctrl = dep.controller
    sw = ctrl.switch_client
    messages = sw.to_switch.messages_sent + sw.from_switch.messages_sent
    for client in ctrl.clients.values():
        messages += client.to_nf.messages_sent + client.from_nf.messages_sent
    return {
        "reports": [_report_dict(r) for r in reports],
        "clock": [dep.sim.now, dep.sim.events_processed],
        "control_messages_sent": messages,
        "handoffs_completed": ctrl.handoffs_completed,
    }


def _single_move(shards, mode, guarantee):
    reset_uid_counter()
    result = run_move_experiment(
        guarantee=GUARANTEES[guarantee], n_flows=60, seed=7,
        deployment_kwargs=dict(MODES[mode], shards=shards),
    )
    return _record(result.deployment, [result.report])


def _overlapping_moves(shards, mode, guarantee):
    """10.0.1.0/24 and 10.0.0.0/8 home on different shards and intersect."""
    reset_uid_counter()
    dep = Deployment(shards=shards, **MODES[mode])
    for name in ("inst1", "inst2", "inst3"):
        dep.add_nf(AssetMonitor(dep.sim, name))
    dep.set_default_route("inst1")
    trace = build_university_cloud_trace(
        TraceConfig(seed=11, n_flows=30, data_packets=6)
    )
    replayer = TraceReplayer(
        dep.sim, dep.inject, trace.packets, rate_pps=2500.0
    ).start()
    ops = []

    def move(src, dst, prefix):
        ops.append(dep.controller.move(
            src, dst, Filter({"nw_src": prefix}, symmetric=True),
            guarantee=GUARANTEES[guarantee],
        ))

    start = replayer.duration_ms / 2.0
    dep.call_at(start, move, "inst1", "inst2", "10.0.1.0/24")
    dep.call_at(start + 1.0, move, "inst2", "inst3", "10.0.0.0/8")
    dep.run()
    return _record(dep, [op.done.value for op in ops])


def compute_cell(shards, mode, guarantee):
    return {
        "single_move": _single_move(shards, mode, guarantee),
        "overlapping_moves": _overlapping_moves(shards, mode, guarantee),
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(_cell_key(*cell) for cell in CELLS)


@pytest.mark.parametrize("shards,mode,guarantee", CELLS)
def test_timeline_matches_golden(golden, shards, mode, guarantee):
    cell = json.loads(json.dumps(compute_cell(shards, mode, guarantee)))
    expected = golden[_cell_key(shards, mode, guarantee)]
    for scenario in expected:
        assert cell[scenario] == expected[scenario], scenario
    if shards > 1:
        assert cell["overlapping_moves"]["handoffs_completed"] >= 1


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(
            {_cell_key(*cell): compute_cell(*cell) for cell in CELLS},
            handle, indent=1, sort_keys=True,
        )
        handle.write("\n")
