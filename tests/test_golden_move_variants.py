"""Golden move timelines: every variant, option, and abort path.

``tests/golden/move_variants.json`` was generated at the last commit
whose ``MoveOperation`` still had one hand-written generator per
variant (``_run_no_guarantee`` / ``_run_loss_free`` / ``_run_offloaded``
/ ``_run_strong_order_preserving``) and is committed unmodified: it
pins the simulated clock of the single table-driven ``_run`` that
replaced them. Every cell is a small fixed-seed move of one
(guarantee, offload, option, fault) combination and records the
operation report (phase marks included), the final clock and event
count, the control messages sent, and — from a second, ``observe=True``
run — the ordered ``move.*`` spans.

Regenerate (``python tests/test_golden_move_variants.py``) only in a PR
that says why the simulated clock moves.
"""

import dataclasses
import json
import os

import pytest

from repro import Deployment, Guarantee
from repro.conformance.runner import NF_FACTORIES
from repro.harness import LOCAL_NET_FILTER, run_move_experiment
from repro.net.packet import reset_uid_counter
from repro.traffic import (
    TraceConfig,
    TraceReplayer,
    build_university_cloud_trace,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "move_variants.json"
)

NG = Guarantee.NONE
LF = Guarantee.LOSS_FREE
OP = Guarantee.ORDER_PRESERVING
STRONG = Guarantee.ORDER_PRESERVING_STRONG

#: cell -> (guarantee, offload, move() options, fault). A fault is
#: ``(what, ms after the move starts)``: a caller ``abort()``, or a
#: fail-stop of the source / destination instance.
MOVE_CELLS = {
    "ng": (NG, False, {}, None),
    "lf": (LF, False, {}, None),
    "lf+op": (OP, False, {}, None),
    "op-strong": (STRONG, False, {}, None),
    "ng/offload": (NG, True, {}, None),
    "lf/offload": (LF, True, {}, None),
    "lf+op/offload": (OP, True, {}, None),
    "op-strong/offload": (STRONG, True, {}, None),
    "lf/early-release": (LF, False, {"early_release": True}, None),
    "lf+op/early-release": (OP, False, {"early_release": True}, None),
    "lf/offload/early-release": (LF, True, {"early_release": True}, None),
    "ng/early-release": (NG, False, {"early_release": True}, None),
    "op-strong/early-release": (STRONG, False, {"early_release": True}, None),
    "lf/early-release/multi": (
        LF, False, {"early_release": True, "scope": "multi"}, None),
    "lf/peer-to-peer": (LF, False, {"peer_to_peer": True}, None),
    "lf+op/peer-to-peer/early-release": (
        OP, False, {"peer_to_peer": True, "early_release": True}, None),
    "lf/compress": (LF, False, {"compress": True}, None),
    "lf/serial": (LF, False, {"parallel": False}, None),
    "ng/serial": (NG, False, {"parallel": False}, None),
    "lf/per+multi": (LF, False, {"scope": "per+multi"}, None),
    "lf+op/offload/per+multi": (OP, True, {"scope": "per+multi"}, None),
    "op-strong/per+multi": (STRONG, False, {"scope": "per+multi"}, None),
    "lf/abort": (LF, False, {}, ("abort", 8.0)),
    "lf+op/abort-late": (OP, False, {}, ("abort", 30.0)),
    "lf/offload/abort": (LF, True, {}, ("abort", 18.0)),
    "ng/abort": (NG, False, {}, ("abort", 8.0)),
    "op-strong/abort": (STRONG, False, {}, ("abort", 18.0)),
    "lf/dst-crash": (LF, False, {}, ("inst2", 8.0)),
    "lf+op/dst-crash": (OP, False, {}, ("inst2", 8.0)),
    "lf/offload/dst-crash": (LF, True, {}, ("inst2", 18.0)),
    "lf+op/offload/dst-crash": (OP, True, {}, ("inst2", 18.0)),
    "op-strong/dst-crash": (STRONG, False, {}, ("inst2", 18.0)),
    # A dead source only fails its *next* get/put, so these moves span
    # two scopes: the per-flow chunks have landed when the multi-flow
    # get aborts the move.
    "lf/src-crash": (LF, False, {"scope": "per+multi"}, ("inst1", 6.0)),
    "lf+op/src-crash": (OP, False, {"scope": "per+multi"}, ("inst1", 6.0)),
    "lf/offload/src-crash": (
        LF, True, {"scope": "per+multi"}, ("inst1", 16.0)),
    "lf+op/offload/src-crash": (
        OP, True, {"scope": "per+multi"}, ("inst1", 16.0)),
    "op-strong/src-crash": (
        STRONG, False, {"scope": "per+multi"}, ("inst1", 16.0)),
    "lf/early-release/abort": (
        LF, False, {"early_release": True}, ("abort", 8.0)),
    "lf/offload/early-release/dst-crash": (
        LF, True, {"early_release": True}, ("inst2", 18.0)),
}
CHAIN_CELL = "chain/lf/abort-rollback"
CELLS = sorted(MOVE_CELLS) + [CHAIN_CELL]

CHAIN_HOPS = [
    ("ids", ("i1", "i2")), ("nat", ("n1", "n2")), ("proxy", ("p1", "p2")),
]
CHAIN_DST = {"ids": "i2", "nat": "n2", "proxy": "p2"}


def _report_dict(report):
    data = dataclasses.asdict(report)
    data["guarantee"] = report.guarantee_label
    data["affected_uids"] = sorted(report.affected_uids)
    return data


def _record(dep, reports):
    return {
        "reports": [_report_dict(r) for r in reports],
        "clock": [dep.sim.now, dep.sim.events_processed],
        "control_messages_sent": dep.control_messages_sent,
        "machines_left": len(dep.switch._xfsm_machines),
        "nf_packets": {
            name: [client.nf.packets_received, client.nf.packets_processed]
            for name, client in sorted(dep.controller.clients.items())
        },
    }


def _move_spans(dep):
    """Finish-ordered (name, start_ms, end_ms) of the operation spans."""
    return [
        [span.name, span.start, span.end]
        for span in dep.obs.exporter.spans
        if span.name.split(".")[0] in ("move", "chain")
    ]


def _run_move(cell, observe):
    guarantee, offload, options, fault = MOVE_CELLS[cell]
    options = dict(options)
    scope = options.pop("scope", "per")

    def operation(dep):
        op = dep.controller.move(
            "inst1", "inst2", LOCAL_NET_FILTER,
            scope=scope, guarantee=guarantee, **options
        )
        if fault is not None:
            what, after_ms = fault
            if what == "abort":
                dep.sim.schedule(after_ms, lambda: op.abort("golden abort"))
            else:
                nf = dep.controller.clients[what].nf
                dep.sim.schedule(after_ms, lambda: nf.fail("power"))
        return op

    reset_uid_counter()
    result = run_move_experiment(
        guarantee, n_flows=30, seed=7, rate_pps=4000.0,
        offload=offload, observe=observe, operation=operation,
    )
    return result.deployment, [result.report]


def _run_chain(cell, observe):
    """Three-hop chain move, aborted after two hops have completed."""
    reset_uid_counter()
    dep = Deployment(observe=observe)
    for kind, names in CHAIN_HOPS:
        for name in names:
            dep.add_nf(NF_FACTORIES[kind](dep.sim, name))
    chain = dep.chain("edge", CHAIN_HOPS, flt=LOCAL_NET_FILTER)
    trace = build_university_cloud_trace(
        TraceConfig(seed=5, n_flows=30, data_packets=10)
    )
    replayer = TraceReplayer(
        dep.sim, dep.inject, trace.packets, rate_pps=2500.0
    ).start()
    ops = []

    def kickoff():
        ops.append(dep.controller.move_chain(
            chain, LOCAL_NET_FILTER, CHAIN_DST, guarantee=LF,
        ))
        dep.sim.schedule(150.0, lambda: ops[0].abort("golden abort"))

    dep.sim.schedule(replayer.duration_ms / 2.0, kickoff)
    dep.sim.run()
    return dep, [ops[0].done.value] + ops[0].hop_reports


def compute_cell(cell):
    run = _run_chain if cell == CHAIN_CELL else _run_move
    record = _record(*run(cell, observe=False))
    record["spans"] = _move_spans(run(cell, observe=True)[0])
    return record


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_timeline_matches_golden(golden, cell):
    computed = json.loads(json.dumps(compute_cell(cell)))
    expected = golden[cell]
    for key in expected:
        assert computed[key] == expected[key], key


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        handle.write("{\n")
        handle.write(",\n".join(
            "%s: %s" % (
                json.dumps(cell),
                json.dumps(compute_cell(cell), sort_keys=True,
                           separators=(",", ":")),
            )
            for cell in CELLS
        ))
        handle.write("\n}\n")
