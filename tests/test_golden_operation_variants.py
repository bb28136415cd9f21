"""Golden timelines of every operation kind that is not a plain move.

``tests/golden/operation_variants.json`` was generated at the last
commit whose ``copy.py`` / ``share.py`` / ``chain.py`` /
``baselines/splitmerge.py`` each still hand-wrote their own constructor
and crash shell (``8f63d5d``) and is committed unmodified: it pins the
simulated clock of the one ``Operation`` driver that replaced them.
Same recipe as ``move_variants.json`` — per cell the operation
report(s) with phase marks and notes, the final clock and event count,
the control messages sent, and, from a second ``observe=True`` run, the
ordered operation spans — for copy, share, chain and the Split/Merge
baseline, whose traffic the ledger reaches only partly (copies in
``cp_fig13``, strong shares in ``conform_matrix``).

Regenerate (``python tests/test_golden_operation_variants.py``) only in
a PR that says why the simulated clock moves.
"""

import json
import os

import pytest

from repro import Deployment, Guarantee
from repro.baselines import SplitMergeMigrate
from repro.conformance.runner import NF_FACTORIES
from repro.flowspace import Filter, FiveTuple
from repro.harness import (
    LOCAL_NET_FILTER,
    build_multi_instance_deployment,
    run_move_experiment,
)
from repro.net.packet import reset_uid_counter
from repro.nfs.monitor import AssetMonitor
from repro.traffic import (
    TraceConfig,
    TraceReplayer,
    build_university_cloud_trace,
)
from tests.conftest import make_packet
from tests.test_golden_move_variants import _record

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "operation_variants.json"
)

LF = Guarantee.LOSS_FREE
OP = Guarantee.ORDER_PRESERVING

#: cell -> (copy() options, fault, deployment options). A fault is
#: ``(what, ms after the copy starts)``: a caller ``abort()``, or a
#: fail-stop of the source / destination instance.
COPY_CELLS = {
    "copy/serial": ({"parallel": False}, None, {}),
    "copy/parallel": ({}, None, {}),
    "copy/per+multi": ({"scope": "per+multi"}, None, {}),
    "copy/batching": ({}, None, {"batching": True}),
    "copy/abort": ({}, ("abort", 4.0), {}),
    "copy/dst-crash": ({}, ("inst2", 4.0), {}),
    # A dead source only fails its *next* get, so this copy spans two
    # scopes: the per-flow chunks have landed when the multi-flow get
    # aborts it.
    "copy/src-crash": ({"scope": "per+multi"}, ("inst1", 4.0), {}),
}

#: cell -> (consistency, group_by, fault, deployment options). A fault
#: is ``("stop", ms)`` — ``stop()`` while packets are still queued —
#: ``(instance, ms)`` — a fail-stop during an update — or ``"setup"``:
#: the second instance is dead before the share is issued.
SHARE_CELLS = {
    "share/%s/%s" % (consistency, group_by): (consistency, group_by, None, {})
    for consistency in ("strong", "strict")
    for group_by in ("flow", "host", "all")
}
SHARE_CELLS.update({
    "share/strong/stop-mid-stream": ("strong", "host", ("stop", 32.0), {}),
    "share/strict/stop-mid-stream": ("strict", "host", ("stop", 32.0), {}),
    "share/strong/inst-crash": ("strong", "host", ("inst2", 31.0), {}),
    # Reliable mode: the worker's wait for the dead origin is bounded.
    "share/strong/inst-crash/faults": (
        "strong", "host", ("inst2", 31.0), {"faults": "seed=1"}),
    "share/strict/inst-crash/faults": (
        "strict", "host", ("inst2", 31.0), {"faults": "seed=1"}),
    "share/strong/setup-failure": ("strong", "host", "setup", {}),
    "share/strict/setup-failure": ("strict", "host", "setup", {}),
})

CHAIN_HOPS = [
    ("ids", ("i1", "i2")), ("nat", ("n1", "n2")), ("proxy", ("p1", "p2")),
]
CHAIN_DST = {"ids": "i2", "nat": "n2", "proxy": "p2"}
#: Two monitor hops whose (asset) state is declared linked.
LINKED_HOPS = [("a", ("a1", "a2")), ("b", ("b1", "b2"))]
LINKED_DST = {"a": "a2", "b": "b2"}

#: cell -> (hops, links, how to issue it, fault). A fault is
#: ``(instance, ms after the chain starts)`` — a fail-stop — or
#: ``"race"``: ``abort()`` from the first hop move's own ``done``.
CHAIN_CELLS = {
    "chain/lf": (CHAIN_HOPS, (), dict(
        dst_map=CHAIN_DST, guarantee=LF), None),
    "chain/lf+op/nat=lf": (CHAIN_HOPS, (), dict(
        dst_map=CHAIN_DST, guarantee=OP, hop_guarantees={"nat": "lf"}), None),
    "chain/scale": (CHAIN_HOPS, (), dict(scale=("nat", "n2")), None),
    "chain/linked-resync": (LINKED_HOPS, [("a", "b")], dict(
        dst_map=LINKED_DST, guarantee=LF), None),
    "chain/lf/hop-dst-crash": (CHAIN_HOPS, (), dict(
        dst_map=CHAIN_DST, guarantee=LF), ("n2", 76.0)),
    "chain/lf/abort-races-hop-done": (LINKED_HOPS, (), dict(
        dst_map=LINKED_DST, guarantee=LF), "race"),
}

SPLITMERGE_CELL = "splitmerge/under-load"
CELLS = (
    sorted(COPY_CELLS) + sorted(SHARE_CELLS) + sorted(CHAIN_CELLS)
    + [SPLITMERGE_CELL]
)

SPAN_KINDS = ("copy", "share", "chain", "move", "splitmerge-migrate")


def _spans(dep):
    """Finish-ordered (name, start_ms, end_ms) of the operation spans."""
    return [
        [span.name, span.start, span.end]
        for span in dep.obs.exporter.spans
        if span.name.split(".")[0] in SPAN_KINDS
    ]


def _schedule_fault(dep, op, fault):
    what, after_ms = fault
    if what == "abort":
        dep.sim.schedule(after_ms, lambda: op.abort("golden abort"))
    elif what == "stop":
        dep.sim.schedule(after_ms, op.stop)
    else:
        nf = dep.controller.clients[what].nf
        dep.sim.schedule(after_ms, lambda: nf.fail("power"))


def _run_copy(cell, observe):
    options, fault, deployment = COPY_CELLS[cell]
    options = dict(options)
    scope = options.pop("scope", "per")

    def operation(dep):
        op = dep.controller.copy(
            "inst1", "inst2", LOCAL_NET_FILTER, scope=scope, **options
        )
        if fault is not None:
            _schedule_fault(dep, op, fault)
        return op

    reset_uid_counter()
    result = run_move_experiment(
        n_flows=30, seed=7, rate_pps=4000.0, observe=observe,
        operation=operation, **deployment
    )
    return result.deployment, [result.report], {}


def _run_splitmerge(cell, observe):
    reset_uid_counter()
    result = run_move_experiment(
        n_flows=30, seed=7, rate_pps=4000.0, observe=observe,
        operation=lambda dep: SplitMergeMigrate(
            dep.controller, "inst1", "inst2", LOCAL_NET_FILTER
        ),
    )
    return result.deployment, [result.report], {}


def _run_share(cell, observe):
    """Two monitors, traffic split by client subnet, 24 packets at 1 kpps
    over four flows (two per instance, two hosts each side)."""
    consistency, group_by, fault, deployment = SHARE_CELLS[cell]
    reset_uid_counter()
    dep, (a, b) = build_multi_instance_deployment(
        2, deployment_kwargs=dict(deployment, observe=observe)
    )
    dep.switch.table.install(
        Filter({"nw_src": "10.0.2.0/24"}, symmetric=True), 500, ["inst2"], 0.0
    )
    flows = [
        FiveTuple("10.0.%d.%d" % (1 + index % 2, 5 + index // 2),
                  4000 + index, "203.0.113.9", 80)
        for index in range(4)
    ]
    # State on both sides before the session, so the initial sync moves
    # chunks in both directions.
    for flow in flows:
        dep.inject(make_packet(flow, flags=("SYN",)))
    dep.sim.run()
    if fault == "setup":
        b.fail("dead before the share")
    share = dep.controller.share(
        ["inst1", "inst2"], LOCAL_NET_FILTER, scope="multi",
        consistency=consistency, group_by=group_by,
    )
    for index in range(24):
        packet = make_packet(flows[index % 4], flags=("ACK",), seq=index)
        dep.inject_at(dep.sim.now + 20.0 + index, [packet])
    if fault not in (None, "setup"):
        _schedule_fault(dep, share, fault)
    dep.sim.run()
    share.stop()
    dep.sim.run()
    extra = {
        "started": [share.started.triggered, share.started.ok],
        "done": [share.done.triggered, share.done.ok],
        "packets_serialized": share.packets_serialized,
        "updates_skipped": share.updates_skipped,
        "latency_samples": share.latency_samples,
        "table": sorted(
            [repr(e.filter), e.priority, list(e.actions)]
            for e in dep.switch.table.entries_overlapping(Filter.wildcard())
        ),
        "event_rules": {
            name: nf.event_rule_count for name, nf in sorted(dep.nfs.items())
        },
    }
    return dep, [share.report], extra


def _run_chain(cell, observe):
    hops, links, how, fault = CHAIN_CELLS[cell]
    reset_uid_counter()
    dep = Deployment(observe=observe)
    for kind, names in hops:
        factory = NF_FACTORIES.get(kind, AssetMonitor)
        for name in names:
            dep.add_nf(factory(dep.sim, name))
    chain = dep.chain("edge", hops, flt=LOCAL_NET_FILTER, links=links)
    trace = build_university_cloud_trace(
        TraceConfig(seed=5, n_flows=30, data_packets=10)
    )
    replayer = TraceReplayer(
        dep.sim, dep.inject, trace.packets, rate_pps=2500.0
    ).start()
    ops = []

    def kickoff():
        how_ = dict(how)
        scale = how_.pop("scale", None)
        if scale is not None:
            op = dep.controller.scale_chain(
                chain, scale[0], scale[1], flt=LOCAL_NET_FILTER, guarantee=LF
            )
        else:
            op = dep.controller.move_chain(chain, LOCAL_NET_FILTER, **how_)
        ops.append(op)
        if fault == "race":
            dep.sim.schedule(1.0, lambda: op._current.done.add_callback(
                lambda _evt: op.abort("raced hop completion")
            ))
        elif fault is not None:
            _schedule_fault(dep, op, fault)

    dep.sim.schedule(replayer.duration_ms / 2.0, kickoff)
    dep.run()
    op = ops[0]
    extra = {
        "active": [hop.active for hop in chain.hops],
        "instances": [list(hop.instances) for hop in chain.hops],
        "overrides": [
            [index, repr(flt), inst] for index, flt, inst in chain.overrides
        ],
        "table": sorted(
            [repr(e.filter), e.priority, list(e.actions)]
            for e in dep.switch.table.entries_overlapping(Filter.wildcard())
        ),
    }
    return dep, [op.done.value] + op.hop_reports, extra


def _runner(cell):
    if cell in COPY_CELLS:
        return _run_copy
    if cell in SHARE_CELLS:
        return _run_share
    if cell in CHAIN_CELLS:
        return _run_chain
    return _run_splitmerge


def compute_cell(cell):
    run = _runner(cell)
    dep, reports, extra = run(cell, observe=False)
    record = _record(dep, reports)
    record.update(extra)
    record["spans"] = _spans(run(cell, observe=True)[0])
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
