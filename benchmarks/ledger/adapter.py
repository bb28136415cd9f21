"""Every call the ledger makes into ``repro`` lives in this file.

The workloads, the tracer and the probes know nothing about the
system's modules: they ask this adapter to build a deployment, start
traffic, fire an operation, read the public counters, or name the
functions worth wrapping. When a later PR renames or folds something in
``src/``, this is the one file of the benchmark that has to follow.

The system is driven through the blessed ``from repro import ...``
surface plus the documented sub-packages (``repro.traffic``,
``repro.harness``, ``repro.conformance``). The tracing tables further
down name implementation modules by dotted string only; a name that no
longer resolves is reported as ``missing`` and never raises.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro import (
    AssetMonitor,
    Deployment,
    DummyNF,
    Filter,
    Guarantee,
    IntrusionDetector,
    Scope,
    SignatureDB,
)
from repro.conformance import matrix_cells, run_schedule, spec_for_cell
from repro.harness import check_loss_free, check_order_preserving
from repro.traffic import (
    TraceConfig,
    TraceReplayer,
    build_university_cloud_trace,
    malware_signatures,
)

GUARANTEES = {
    "lf": Guarantee.LOSS_FREE,
    "lf+op": Guarantee.ORDER_PRESERVING,
}

NF_KINDS: Dict[str, Callable[..., Any]] = {
    "monitor": AssetMonitor,
    "ids": lambda sim, name: IntrusionDetector(
        sim, name, signatures=SignatureDB(malware_signatures())
    ),
    "dummy": DummyNF,
}

#: Deployment keyword sets of the non-classic control paths.
MODES: Dict[str, Dict[str, Any]] = {
    "classic": {},
    "offload": {"offload": True},
    "shards4": {"shards": 4},
    "batching": {"batching": True},
    "faults": {"faults": "seed=3,drop=0.01"},
}

#: Conformance-matrix passes: every cell runs under one of these.
CONFORM_MODES: Tuple[Dict[str, Any], ...] = (
    {"shards": 1},
    {"shards": 2},
    {"offload": True},
)


# --------------------------------------------------------------------- inputs


def build_trace(seed: int, n_flows: int, n_packets: int):
    """University-cloud trace cut to exactly ``n_packets`` blueprints.

    The generator's packet count varies a little with the seed (long
    flows are drawn at random); cutting the round-robin interleaving at
    a fixed length keeps the work of an iteration fixed by count while
    every flow stays present.
    """
    trace = build_university_cloud_trace(
        TraceConfig(seed=seed, n_flows=n_flows, data_packets=3)
    )
    if len(trace.packets) < n_packets:
        raise ValueError(
            "trace for seed %d has %d packets, need %d"
            % (seed, len(trace.packets), n_packets)
        )
    return trace.packets[:n_packets]


def prefix_filter(prefix: str) -> Filter:
    return Filter({"nw_src": prefix}, symmetric=True)


# ----------------------------------------------------------------- deployment


def new_deployment(verify: bool, mode: str = "classic") -> Deployment:
    """A fresh deployment; ground-truth logs only on the verify iteration."""
    return Deployment(record_ground_truth=verify, **MODES[mode])


def add_nf(dep: Deployment, kind: str, name: str):
    nf = NF_KINDS[kind](dep.sim, name)
    dep.add_nf(nf)
    return nf


def route(dep: Deployment, nf_name: str, prefix: Optional[str] = None) -> None:
    """Bootstrap rule; among equal priorities the newest rule wins."""
    dep.set_default_route(
        nf_name, None if prefix is None else prefix_filter(prefix)
    )


def start_replay(dep: Deployment, packets, rate_pps: float) -> TraceReplayer:
    return TraceReplayer(
        dep.sim, dep.inject, packets, rate_pps=rate_pps
    ).start()


def move(dep: Deployment, src: str, dst: str, prefix: str, guarantee: str):
    return dep.controller.move(
        src, dst, prefix_filter(prefix), scope="per",
        guarantee=GUARANTEES[guarantee],
    )


def copy(dep: Deployment, src: str, dst: str, prefix: str):
    return dep.controller.copy(src, dst, prefix_filter(prefix), scope="per")


def run_sliced(dep: Deployment, slice_events: int, sample) -> List[Tuple[int, int]]:
    """Drain the simulation in slices of ``slice_events`` callbacks.

    Returns ``(cpu_ns, events)`` per slice and calls ``sample()`` at
    every boundary. ``run(max_events=...)`` never touches the clock, so
    the timeline is the one an unsliced ``run()`` produces.
    """
    sim = dep.sim
    slices: List[Tuple[int, int]] = []
    clock = time.process_time_ns
    while sim.pending:
        before = sim.events_processed
        t0 = clock()
        sim.run(max_events=slice_events)
        slices.append((clock() - t0, sim.events_processed - before))
        sample()
    return slices


# ------------------------------------------------------------------- counters


def _channels(dep: Deployment):
    ctrl = dep.controller
    for client in ctrl.clients.values():
        yield client.to_nf
        yield client.from_nf
    yield ctrl.switch_client.to_switch
    yield ctrl.switch_client.from_switch
    yield dep.switch.control_channel


def _inboxes(dep: Deployment):
    ctrl = dep.controller
    return [replica.inbox for replica in getattr(ctrl, "replicas", [ctrl])]


def peaks(dep: Deployment) -> Tuple[int, int]:
    """(flow-table rules, deepest NF input queue) right now.

    The NF input queue has no public length; the tolerant ``getattr``
    keeps this a reading, never a dependency.
    """
    queue = max(
        (len(getattr(nf, "_queue", ())) for nf in dep.nfs.values()),
        default=0,
    )
    return len(dep.switch.table), queue


def counters(dep: Deployment, reports: Iterable[Any]) -> Dict[str, float]:
    """Exact per-layer counts from the system's public counters."""
    reports = list(reports)
    channels = list(_channels(dep))
    inboxes = _inboxes(dep)
    nfs = list(dep.nfs.values())
    sw = dep.switch
    ctrl = dep.controller
    clients = list(ctrl.clients.values())
    received = sum(nf.packets_received for nf in nfs)
    slow = sum(
        nf.events_raised + nf.packets_buffered_by_event
        + nf.packets_dropped_silent
        for nf in nfs
    )
    faults = dep.faults
    msgs = sum(ch.messages_sent for ch in channels)
    return {
        "sim.events": dep.sim.events_processed,
        "sim.makespan_ms": dep.sim.now,
        "sim.ctrl_msgs": msgs,
        "net.switch.received": sw.received,
        "net.switch.forwarded": sw.forwarded,
        "net.switch.table_misses": sw.table_misses,
        "net.switch.packet_outs": sw.packet_outs,
        "net.switch.packet_ins_dropped": sw.packet_ins_dropped,
        "net.xfsm.buffered": sum(
            r.packets_buffered_at_switch for r in reports
        ),
        "nf.base.pkts_processed": sum(nf.packets_processed for nf in nfs),
        "nf.base.events_raised": sum(nf.events_raised for nf in nfs),
        "nf.base.pkts_buffered": sum(
            nf.packets_buffered_by_event for nf in nfs
        ),
        "nf.base.pkts_dropped_by_event": sum(
            nf.packets_dropped_by_event for nf in nfs
        ),
        "nf.base.slowpath_share": slow / received if received else 0.0,
        "nf.state.chunks_moved": sum(r.total_chunks for r in reports),
        "nf.state.bytes_moved": sum(r.total_bytes for r in reports),
        "nf.southbound.retries": sum(c.stats["retries"] for c in clients),
        "nf.southbound.timeouts": sum(c.stats["timeouts"] for c in clients),
        "net.channel.msgs": msgs,
        "net.channel.bytes": sum(ch.bytes_sent for ch in channels),
        "net.channel.frames": sum(ch.frames_sent for ch in channels),
        "controller.pump.items": sum(box.items_handled for box in inboxes),
        "controller.pump.depth_peak": max(
            box.max_backlog for box in inboxes
        ),
        "controller.inbox.events_handled": ctrl.events_received,
        "controller.inbox.pkts_buffered": sum(
            r.packets_in_events for r in reports
        ),
        "controller.ops.completed": sum(1 for r in reports if not r.aborted),
        "controller.ops.aborted": sum(1 for r in reports if r.aborted),
        "controller.ops.deferred": ctrl.operations_queued_for_conflict,
        "controller.sharding.handoffs": getattr(
            ctrl, "handoffs_completed", 0
        ),
        "faults.injected": 0 if faults is None else (
            faults.messages_dropped + faults.messages_duplicated
            + faults.messages_delayed
        ),
    }


def op_rows(reports: Iterable[Any]) -> List[Tuple[str, float, float, int]]:
    """(kind, start, end, chunks) per finished operation."""
    return [
        (r.kind, r.started_at, r.finished_at, r.total_chunks)
        for r in reports
    ]


def digest(runs: Iterable[Tuple[Deployment, Iterable[Any]]]) -> str:
    """Hash of what a speed-only change must leave identical.

    Over every ``(deployment, reports)`` of an iteration: per-operation
    ``(kind, start, end, chunks)``, the final clock and event count,
    per-NF processed counts, and the final per-flow state of every
    instance as its own southbound export would serialize it.
    """
    h = hashlib.sha256()
    everything = Filter.wildcard()
    for dep, reports in runs:
        h.update(repr(op_rows(reports)).encode())
        h.update(repr((dep.sim.now, dep.sim.events_processed)).encode())
        for name in sorted(dep.nfs):
            nf = dep.nfs[name]
            h.update(("%s:%d" % (name, nf.packets_processed)).encode())
            for key in nf.state_keys(Scope.PERFLOW, everything):
                chunk = nf.export_chunk(Scope.PERFLOW, key)
                if chunk is not None:
                    h.update(chunk.to_json_bytes())
    return h.hexdigest()[:16]


# --------------------------------------------------------------- verification


def verify_move_run(dep: Deployment, nfs, replayer) -> List[str]:
    """The full guarantee checks over the verify iteration's logs."""
    failures: List[str] = []
    ok, detail = check_loss_free(dep.switch, nfs)
    if not ok:
        failures.append("loss-free: " + detail)
    ok, detail = check_order_preserving(dep.switch, nfs, replayer.injected)
    if not ok:
        failures.append("order-preserving: " + detail)
    seen: Dict[int, int] = {}
    for nf in nfs:
        for _when, uid in nf.processing_log:
            seen[uid] = seen.get(uid, 0) + 1
    wrong = sum(1 for p in replayer.injected if seen.get(p.uid, 0) != 1)
    if wrong:
        failures.append("%d packets not processed exactly once" % wrong)
    return failures


def monitor_conservation(nfs, replayer) -> List[str]:
    """Per-flow state conserved across every move (monitor instances).

    For each flow, the connection records held across the instances
    must add up to the packets of that flow the trace injected, and a
    finished move leaves the record on exactly one instance.
    """
    expected: Dict[Any, int] = {}
    for packet in replayer.injected:
        key = packet.five_tuple.canonical()
        expected[key] = expected.get(key, 0) + 1
    lost = split = 0
    for key, count in expected.items():
        records = [r for r in (nf.conn_for(key) for nf in nfs) if r is not None]
        if sum(r.packets for r in records) != count:
            lost += 1
        if len(records) != 1:
            split += 1
    failures = []
    if lost:
        failures.append("%d flows lost state in a move" % lost)
    if split:
        failures.append("%d flows not held by exactly one instance" % split)
    return failures


def packet_latencies_ms(nfs, replayer) -> List[float]:
    """Inject → NF-processed latency per packet, from the verify logs."""
    done: Dict[int, float] = {}
    for nf in nfs:
        for when, uid in nf.processing_log:
            done[uid] = when
    return [
        done[p.uid] - p.created_at for p in replayer.injected
        if p.uid in done
    ]


def dummy_flow_counts(nfs) -> List[int]:
    return [len(nf.flows) for nf in nfs]


# ---------------------------------------------------------------- conformance


def conform_cells():
    return matrix_cells()


def run_conform_cell(cell, mode: Dict[str, Any]) -> Dict[str, Any]:
    """One matrix cell through the kit's single execution path."""
    result = run_schedule(
        spec_for_cell(cell, **mode), keep_deployment=True
    )
    dep = result.deployment
    exporter = dep.obs.exporter
    if result.clean:
        verdict = "clean"
    elif result.expected_dirty:
        verdict = "expected-dirty"
    else:
        verdict = "FAILED " + result.summary()
    return {
        "label": result.spec.label(),
        "verdict": verdict,
        "counters": counters(dep, result.reports),
        "ops": op_rows(result.reports),
        "peaks": peaks(dep),
        "obs.spans": len(exporter.spans),
        "obs.records": len(exporter.records),
        "obs.violations": len(result.violations),
    }


def digest_rows(rows: Iterable[Dict[str, Any]]) -> str:
    """Order-independent digest of a conformance pass."""
    lines = sorted(
        json.dumps(
            [r["label"], r["verdict"], r["ops"],
             r["counters"]["sim.makespan_ms"], r["counters"]["sim.events"]]
        )
        for r in rows
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# -------------------------------------------------------------------- tracing

#: Wrapped boundary functions: ``module:Class.method`` (or
#: ``module:function``) -> the per-layer metric its self time lands in.
TARGETS: List[Tuple[str, str]] = [
    ("repro.traffic.generator:PacketBlueprint.build", "traffic.self_us"),
    ("repro.sim.core:Simulator.run", "sim.core.self_us"),
    ("repro.net.switch:Switch.inject", "net.switch.self_us"),
    ("repro.net.switch:Switch.install", "net.switch.self_us"),
    ("repro.net.switch:Switch.remove", "net.switch.self_us"),
    ("repro.net.switch:Switch.packet_out", "net.switch.self_us"),
    ("repro.net.flowtable:FlowTable.lookup", "net.flowtable.lookup_us"),
    ("repro.net.flowtable:FlowTable.install", "net.flowtable.update_us"),
    ("repro.net.flowtable:FlowTable.remove", "net.flowtable.update_us"),
    ("repro.net.link:Link.send", "net.link.self_us"),
    ("repro.net.xfsm:XFSMInstance.on_packet", "net.xfsm.self_us"),
    ("repro.net.xfsm:XFSMInstance.release", "net.xfsm.self_us"),
    ("repro.nf.base:NetworkFunction.receive", "nf.base.self_us"),
    ("repro.nf.base:NetworkFunction.sb_get", "nf.state.xfer_us"),
    ("repro.nf.base:NetworkFunction.sb_put", "nf.state.xfer_us"),
    ("repro.nf.base:NetworkFunction.sb_delete", "nf.state.xfer_us"),
    ("repro.flowspace.index:FlowKeyedStore.get", "flowspace.store.self_us"),
    ("repro.flowspace.index:FlowKeyedStore.pop", "flowspace.store.self_us"),
    ("repro.flowspace.index:FlowKeyedStore.keys_matching",
     "flowspace.store.self_us"),
    ("repro.net.channel:ControlChannel.send", "net.channel.self_us"),
    ("repro.net.channel:ControlChannel.queue_send", "net.channel.self_us"),
    ("repro.net.channel:ControlChannel.flush", "net.channel.self_us"),
    ("repro.controller.pump:ChunkPump.push", "controller.pump.self_us"),
    ("repro.controller.controller:OpenNFController.handle_nf_event",
     "controller.inbox.self_us"),
    ("repro.controller.controller:OpenNFController.handle_packet_in",
     "controller.inbox.self_us"),
    ("repro.controller.controller:OpenNFController.move",
     "controller.ops.self_us"),
    ("repro.controller.controller:OpenNFController.copy",
     "controller.ops.self_us"),
    ("repro.controller.controller:OpenNFController.share",
     "controller.ops.self_us"),
    ("repro.obs.span:Tracer.span", "obs.self_us"),
    ("repro.obs.span:Tracer.record", "obs.self_us"),
    ("repro.obs.span:Span.finish", "obs.self_us"),
    ("repro.obs:Observability.violations", "obs.self_us"),
    ("repro.conformance.runner:run_schedule", "conformance.self_us"),
    ("repro.conformance.runner:check_trace_properties",
     "conformance.self_us"),
    ("repro.conformance.runner:entries_from_obs", "conformance.self_us"),
    ("repro.conformance.runner:check_loss_free", "conformance.self_us"),
    ("repro.harness.deployment:Deployment.__init__", "harness.deploy_us"),
    ("repro.harness.deployment:Deployment.add_nf", "harness.deploy_us"),
] + [
    ("repro.nf.southbound:NFClient.%s" % rpc, "nf.southbound.self_us")
    for rpc in (
        "get_perflow", "get_multiflow", "get_allflows", "put_perflow",
        "put_multiflow", "put_allflows", "del_perflow", "del_multiflow",
        "enable_events", "disable_events", "disable_events_covered",
        "drain_barrier", "list_flowids",
    )
]

#: NF classes whose handlers are wrapped: ``process_packet`` lands in
#: the class's own metric, the state handlers in ``nf.state.xfer_us``.
NF_CLASSES: List[Tuple[str, str]] = [
    ("repro.nfs.monitor:AssetMonitor", "nfs.monitor.self_us"),
    ("repro.nfs.ids:IntrusionDetector", "nfs.ids.self_us"),
    ("repro.nfs.dummy:DummyNF", "nfs.dummy.self_us"),
    ("repro.nfs.nat:NetworkAddressTranslator", "nfs.other.self_us"),
    ("repro.nfs.proxy:CachingProxy", "nfs.other.self_us"),
    ("repro.nfs.lb:LoadBalancer", "nfs.other.self_us"),
    ("repro.nfs.redup:REEncoder", "nfs.other.self_us"),
    ("repro.nfs.redup:REDecoder", "nfs.other.self_us"),
]
NF_STATE_HANDLERS = ("export_chunk", "import_chunk", "state_keys")
NF_STATE_METRIC = "nf.state.xfer_us"

#: Functions that receive a callback worth a span of its own:
#: (target, keyword name, positional index counting ``self`` as 0).
CALLBACK_ARGS: List[Tuple[str, str, int]] = [
    ("repro.controller.pump:ChunkPump.__init__", "handle", 3),
    ("repro.controller.controller:OpenNFController.add_event_interest",
     "callback", 3),
    ("repro.controller.controller:OpenNFController.add_packet_interest",
     "callback", 2),
]

SCHEDULE = "repro.sim.core:Simulator.schedule"
SCHEDULE_METRIC = "sim.core.self_us"
_PROCESS_STEP = "repro.sim.process:Process._step"

#: Owner module of an event-loop callback -> metric (longest prefix wins).
MODULE_METRICS: Dict[str, str] = {
    "repro.traffic": "traffic.self_us",
    "repro.sim": "sim.core.self_us",
    "repro.net.switch": "net.switch.self_us",
    "repro.net.flowtable": "net.flowtable.update_us",
    "repro.net.link": "net.link.self_us",
    "repro.net.xfsm": "net.xfsm.self_us",
    "repro.net.channel": "net.channel.self_us",
    "repro.faults": "net.channel.self_us",
    "repro.nf.base": "nf.base.self_us",
    "repro.nf.southbound": "nf.southbound.self_us",
    "repro.nfs.monitor": "nfs.monitor.self_us",
    "repro.nfs.ids": "nfs.ids.self_us",
    "repro.nfs.dummy": "nfs.dummy.self_us",
    "repro.nfs": "nfs.other.self_us",
    "repro.flowspace": "flowspace.store.self_us",
    "repro.controller.pump": "controller.pump.self_us",
    "repro.controller.controller": "controller.inbox.self_us",
    "repro.controller": "controller.ops.self_us",
    "repro.obs": "obs.self_us",
    "repro.conformance": "conformance.self_us",
    "repro.harness": "harness.deploy_us",
}
OTHER_METRIC = "other.self_us"

#: Generator processes of the NF framework are the southbound state
#: transfer (``sb_get``/``sb_put``/``sb_delete`` bodies).
_PROCESS_MODULE_METRICS = {"repro.nf.base": NF_STATE_METRIC}


def resolve(target: str):
    """``(owner, attribute name, function)`` for a dotted target, or None."""
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        # ``__dict__`` so an inherited method is not mistaken for the
        # class's own (wrapping it there would shadow the base wrapper).
        fn = vars(owner)[parts[-1]]
    except (ImportError, AttributeError, KeyError):
        return None
    return owner, parts[-1], fn


def module_metric(module: Optional[str], table=None) -> str:
    name = module or ""
    if table is not None and name in table:
        return table[name]
    while name:
        if name in MODULE_METRICS:
            return MODULE_METRICS[name]
        name = name.rpartition(".")[0]
    return OTHER_METRIC


_process_step = resolve(_PROCESS_STEP)
_process_step_fn = None if _process_step is None else _process_step[2]


def callback_key(callback) -> Any:
    """A stable, hashable identity for an event-loop callback's code."""
    func = getattr(callback, "__func__", callback)
    if func is _process_step_fn:
        generator = getattr(callback.__self__, "_generator", None)
        return getattr(generator, "gi_code", func)
    return getattr(func, "__code__", func)


def callback_label(callback) -> Tuple[str, str]:
    """(span name, metric) for an event-loop callback, by owning module."""
    func = getattr(callback, "__func__", callback)
    if func is _process_step_fn:
        generator = getattr(callback.__self__, "_generator", None)
        code = getattr(generator, "gi_code", None)
        if code is not None:
            module = _module_of_file(code.co_filename)
            return (
                "proc:%s.%s" % (module, code.co_name),
                module_metric(module, _PROCESS_MODULE_METRICS),
            )
    module = getattr(func, "__module__", None)
    name = getattr(func, "__qualname__", type(func).__name__)
    return "cb:%s.%s" % (module, name), module_metric(module)


def _module_of_file(filename: str) -> str:
    marker = "/repro/"
    index = filename.rfind(marker)
    if index < 0:
        return ""
    stem = filename[index + 1:].rsplit(".", 1)[0]
    module = stem.replace("/", ".")
    return module[: -len(".__init__")] if module.endswith(".__init__") else module


# --------------------------------------------------------------------- probes


def probe_cases(blueprints) -> Dict[str, Tuple[Callable[[], None], int, Optional[Callable[[], None]]]]:
    """Direct calls into single layers over the workload's own packets.

    ``name -> (run, calls per run, untimed cleanup or None)``. No
    wrappers are installed while these run, so each layer gets one
    number free of tracing overhead.
    """
    from repro import FlowId, Simulator

    blueprints = list(blueprints)
    packets = [bp.build(created_at=0.0) for bp in blueprints]
    tuples = list({p.five_tuple.canonical() for p in packets})
    flowids = [FlowId.for_flow(t) for t in tuples]
    filters = [Filter.for_flow(t) for t in tuples]

    dep = Deployment(record_ground_truth=False)
    monitor = add_nf(dep, "monitor", "mon")
    ids = add_nf(dep, "ids", "ids")
    route(dep, "mon")
    route(dep, "ids", "10.0.1.0/28")
    table = dep.switch.table
    channel = dep.switch.control_channel
    for packet in packets:
        monitor.process_packet(packet)
    store = monitor.conns
    keys = monitor.state_keys(Scope.PERFLOW, Filter.wildcard())
    sink = NF_KINDS["monitor"](dep.sim, "sink")
    sim = Simulator()

    def noop(*_args) -> None:
        pass

    def filter_hash() -> None:
        # A fresh FlowId per packet is what the NFs' hot path builds;
        # a FlowId caches its hash, so hashing an old one costs nothing.
        for five_tuple in tuples:
            hash(FlowId.for_flow(five_tuple))

    def store_get() -> None:
        get = store.get
        for flowid in flowids:
            get(flowid)

    def table_lookup() -> None:
        lookup = table.lookup
        for packet in packets:
            lookup(packet)

    def table_install_remove() -> None:
        for flt in filters:
            table.install(flt, 100, ("mon",), 0.0)
            table.remove(flt, 100)

    def sim_events() -> None:
        schedule = sim.schedule
        for _ in range(2000):
            schedule(0.0, noop)
        sim.run()

    def channel_send() -> None:
        send = channel.send
        for _ in range(2000):
            send(128, noop)

    def monitor_process() -> None:
        process = monitor.process_packet
        for packet in packets:
            process(packet)

    def ids_process() -> None:
        process = ids.process_packet
        for packet in packets:
            process(packet)

    def export_import() -> None:
        for key in keys:
            sink.import_chunk(monitor.export_chunk(Scope.PERFLOW, key))

    def build() -> None:
        for blueprint in blueprints:
            blueprint.build(created_at=0.0)

    return {
        "probe.flowspace.filter_hash_ns": (filter_hash, len(flowids), None),
        "probe.flowspace.store_get_ns": (store_get, len(flowids), None),
        "probe.net.flowtable.lookup_ns": (table_lookup, len(packets), None),
        "probe.net.flowtable.install_remove_ns": (
            table_install_remove, len(filters), None
        ),
        "probe.sim.core.event_ns": (sim_events, 2000, None),
        "probe.net.channel.send_ns": (channel_send, 2000, dep.sim.run),
        "probe.nfs.monitor.process_ns": (monitor_process, len(packets), None),
        "probe.nfs.ids.process_ns": (ids_process, len(packets), None),
        "probe.nf.state.export_import_ns": (export_import, len(keys), None),
        "probe.traffic.build_ns": (build, len(blueprints), None),
    }


def all_time_metrics() -> List[str]:
    """Every ``*_us`` metric a traced iteration can attribute time to."""
    names = {metric for _target, metric in TARGETS + NF_CLASSES}
    names.update(MODULE_METRICS.values())
    names.update(_PROCESS_MODULE_METRICS.values())
    names.update((SCHEDULE_METRIC, OTHER_METRIC, NF_STATE_METRIC))
    return sorted(names)
