"""Reference oracles the differential tests pin the fast paths against.

Each is the original linear algorithm, written as a pure function over
a public iteration surface of the production object — ``iter(table)``
(match order), ``nf.event_rules()`` (registration order), ``iter(store)``
(insertion order), a plain list of samples, ``sim.schedule`` — so the
production classes hold exactly one path and the slow one lives here,
where only tests can reach it. Packet matching here is the dict-walking
*definition* (``matches_headers`` over a fresh ``headers()``), never the
compiled integer compare ``matches_packet`` runs.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.flowspace import Filter, FlowId
from repro.flowspace.ip import parse_prefix
from repro.harness.properties import nf_ports
from repro.net import FlowTable, Packet
from repro.net.flowtable import FlowEntry
from repro.net.switch import Switch
from repro.nf import EventRule, NetworkFunction
from repro.sim import Simulator


def linear_lookup(table: FlowTable, packet: Packet) -> Optional[FlowEntry]:
    """First entry, in match order, whose filter matches ``packet``."""
    headers = packet.headers()
    for entry in table:
        if entry.filter.matches_headers(headers):
            return entry
    return None


def linear_find(
    table: FlowTable, flt: Filter, priority: Optional[int] = None
) -> Optional[FlowEntry]:
    """First entry with exactly this filter (and priority, if given)."""
    for entry in table:
        if entry.filter == flt and priority in (None, entry.priority):
            return entry
    return None


def linear_overlapping(table: FlowTable, flt: Filter) -> List[FlowEntry]:
    """Every entry sharing flow space with ``flt``, in match order."""
    return [entry for entry in table if entry.filter.intersects(flt)]


def linear_match_rule(
    nf: NetworkFunction, packet: Packet
) -> Optional[EventRule]:
    """The most recently enabled rule matching ``packet``."""
    headers = packet.headers()
    for rule in reversed(nf.event_rules()):
        if rule.filter.matches_headers(headers):
            return rule
    return None


def linear_keys_matching(
    store: Iterable[FlowId],
    flt: Filter,
    relevant_fields: Optional[Iterable[str]] = None,
) -> List[FlowId]:
    """Stored flowids matching ``flt`` under §4.2, in insertion order."""
    return [fid for fid in store if flt.matches_flowid(fid, relevant_fields)]


def parsed_exact_key(flt: Filter) -> Optional[Tuple]:
    """``Filter.exact_key`` as it was computed before filters compiled:
    straight from the field strings, sharing nothing with the record."""
    fields = flt.fields
    if set(fields) != {"nw_src", "nw_dst", "nw_proto", "tp_src", "tp_dst"}:
        return None
    proto, tp_src, tp_dst = fields["nw_proto"], fields["tp_src"], fields["tp_dst"]
    if not all(isinstance(value, int) for value in (proto, tp_src, tp_dst)):
        return None
    try:
        src_net, src_mask = parse_prefix(fields["nw_src"])
        dst_net, dst_mask = parse_prefix(fields["nw_dst"])
    except (AttributeError, TypeError, ValueError):
        return None
    if src_mask != 0xFFFFFFFF or dst_mask != 0xFFFFFFFF:
        return None
    left, right = (src_net, tp_src), (dst_net, tp_dst)
    if not flt.symmetric:
        return ("o", proto, left, right)
    if right < left:
        left, right = right, left
    return ("s", proto, left, right)


def eager_schedule_each(
    sim: Simulator, delays: Sequence[float], callback: Callable[[int], None]
) -> None:
    """A time-sorted stream, every element queued up front.

    The loop ``TraceReplayer.start`` ran before a replay became one
    re-armed entry: ``callback(index)`` after ``delays[index]`` ms, the
    elements drawing consecutive tie-break numbers.
    """
    for index, delay in enumerate(delays):
        sim.schedule(delay, callback, index)


def raw_percentile(samples: List[float], q: float) -> Optional[float]:
    """Exact nearest-rank percentile over the raw samples.

    ``q`` is a percentage in ``[0, 100]``; ``q=0`` is the minimum,
    ``q=100`` the maximum, empty input gives ``None``.
    """
    if not (0.0 <= q <= 100.0):
        raise ValueError("percentile q=%r outside [0, 100]" % (q,))
    if not samples:
        return None
    ordered = sorted(samples)
    if q == 0:
        return ordered[0]
    rank = max(1, int(math.ceil(q / 100.0 * len(ordered))))
    return ordered[min(rank, len(ordered)) - 1]


def broadcast_audit(entries) -> "AuditPipeline":
    """The fan-out the routed audit pipeline replaced, over an entry stream.

    Every entry visits the operation registry and then every auditor, in
    pipeline order, and each of them tests the entry's kind and name
    itself — the dispatch, spelled out by hand, that ``ON_SPAN`` /
    ``ON_RECORD`` now declare. Returns the finalized pipeline.
    """
    from repro.obs.audit import AuditPipeline

    pipeline = AuditPipeline()
    registry = pipeline.registry
    loss_free, order, chain, state, share = pipeline.auditors
    for _time, kind, entry in entries:
        name = entry.get("name")
        if kind == "span":
            if name == "nf.drop":
                loss_free.on_drop(entry)
            if name == "share.update":
                share.on_update(entry)
            continue
        if name == "op.start":
            registry.open(entry)
        elif name == "op.end":
            registry.close(entry)
        if name == "nf.buffer":
            loss_free.on_nf_buffer(entry)
        elif name in ("ctrl.buffer", "sw.buffer"):
            loss_free.on_parked(entry)
        elif name == "sw.drop":
            loss_free.on_switch_drop(entry)
        elif name == "nf.process":
            loss_free.on_process(entry)
        if name == "op.start":
            order.on_op_start(entry)
            chain.on_op_start(entry)
        elif name == "nf.process":
            order.on_process(entry)
            chain.on_process(entry)
        if name == "nf.chunk.export":
            state.on_export(entry)
        elif name == "nf.chunk.import":
            state.on_import(entry)
    pipeline.finalize()
    return pipeline


# ------------------------------------------------------- §5.1 ground-truth judges
#
# The loss-free and order-preserving judges as they were before the
# ground-truth logs became columns: per-uid sets, dicts and rank maps
# over the logs' rows, verbatim (nf_ports aside, which is shared).


def switch_forwarding_order(
    switch: Switch, nf_ports: Iterable[str], uids: Optional[Set[int]] = None
) -> List[int]:
    """Uids ordered by switch arrival, restricted to NF-bound packets.

    A packet's *position* is its first appearance in the switch's
    forwarding log — its arrival, whether the immediate action was an NF
    port or a detour to the controller. A packet is *included* only if
    some forwarding (data path or packet-out) eventually sent it towards
    an NF: copies that only ever reached the controller were never
    "forwarded to the NF instances by the switch" (§5.1.2).

    For the paper's baseline mechanisms the two notions coincide (every
    matched packet is data-path forwarded on arrival); they differ only
    for controller-detour schemes (the strong order-preserving move,
    Split/Merge's halt), where arrival is the semantically right basis.
    """
    ports = set(nf_ports)
    nf_bound: Set[int] = set()
    for _time, uid, actions in switch.forward_log:
        if any(action in ports for action in actions):
            nf_bound.add(uid)
    seen: Set[int] = set()
    order: List[int] = []
    for _time, uid, _actions in switch.forward_log:
        if uids is not None and uid not in uids:
            continue
        if uid in seen or uid not in nf_bound:
            continue
        seen.add(uid)
        order.append(uid)
    return order


def merged_processing_order(
    nfs, uids: Optional[Set[int]] = None
) -> List[int]:
    """Uids ordered by processing completion across the given NFs."""
    merged: List[Tuple[float, int]] = []
    for nf in nfs:
        merged.extend(nf.processing_log)
    merged.sort()
    result: List[int] = []
    for _time, uid in merged:
        if uids is None or uid in uids:
            result.append(uid)
    return result


def check_loss_free(
    switch: Switch, nfs, uids: Optional[Set[int]] = None
) -> Tuple[bool, str]:
    """Every switch-forwarded packet processed exactly once.

    Returns ``(ok, detail)``; on failure, ``detail`` names the missing
    or duplicated uids (truncated), or says that no processed packet was
    ever forwarded towards the NFs' ports: nothing was judged.
    """
    ports = nf_ports(switch, nfs)
    forwarded = switch_forwarding_order(switch, ports, uids)
    counts: Dict[int, int] = {}
    for nf in nfs:
        for _time, uid in nf.processing_log:
            if uids is None or uid in uids:
                counts[uid] = counts.get(uid, 0) + 1
    if counts and not forwarded:
        return False, _judged_none(len(counts), ports)
    missing = [uid for uid in forwarded if counts.get(uid, 0) == 0]
    duplicated = [uid for uid, n in counts.items() if n > 1]
    if not missing and not duplicated:
        return True, ""
    return False, "missing=%s duplicated=%s" % (missing[:10], duplicated[:10])


def _per_flow_uid_map(packets) -> Dict[Tuple, List[int]]:
    flows: Dict[Tuple, List[int]] = {}
    for packet in packets:
        canonical = packet.five_tuple.canonical()
        key = (
            canonical.src_ip,
            canonical.src_port,
            canonical.dst_ip,
            canonical.dst_port,
            canonical.proto,
        )
        flows.setdefault(key, []).append(packet.uid)
    return flows


def check_order_preserving(
    switch: Switch,
    nfs,
    packets,
    per_flow: bool = True,
) -> Tuple[bool, str]:
    """Processing order equals first-forwarding order.

    With ``per_flow=True`` the comparison is within each flow (the
    paper's property spans both directions of a flow — the canonical
    five-tuple groups them); processed-only packets are compared, so the
    check composes with loss (use :func:`check_loss_free` for that).
    ``packets`` is the population to examine (e.g. ``replayer.injected``).
    """
    uid_set = {p.uid for p in packets}
    ports = nf_ports(switch, nfs)
    forwarded = switch_forwarding_order(switch, ports, uid_set)
    processed = merged_processing_order(nfs, uid_set)
    processed_set = set(processed)
    forwarded_filtered = [uid for uid in forwarded if uid in processed_set]
    if processed and not forwarded_filtered:
        return False, _judged_none(len(processed), ports)

    if not per_flow:
        if processed == forwarded_filtered:
            return True, ""
        return False, _first_divergence(forwarded_filtered, processed)

    flows = _per_flow_uid_map([p for p in packets if p.uid in processed_set])
    forwarded_rank = {uid: i for i, uid in enumerate(forwarded_filtered)}
    processed_rank = {uid: i for i, uid in enumerate(processed)}
    for key, uids in flows.items():
        by_forward = sorted(
            (uid for uid in uids if uid in forwarded_rank),
            key=lambda u: forwarded_rank[u],
        )
        by_process = sorted(
            (uid for uid in uids if uid in processed_rank),
            key=lambda u: processed_rank[u],
        )
        if by_forward != by_process:
            return False, "flow %s: %s" % (
                key,
                _first_divergence(by_forward, by_process),
            )
    return True, ""


def _judged_none(processed: int, ports: Sequence[str]) -> str:
    return ("judged no packet: none of the %d processed packets was "
            "forwarded to ports %s" % (processed, sorted(ports)))


def _first_divergence(expected: Sequence[int], actual: Sequence[int]) -> str:
    for index, (exp, act) in enumerate(zip(expected, actual)):
        if exp != act:
            return "at %d expected uid %d got %d" % (index, exp, act)
    return "length mismatch: expected %d actual %d" % (len(expected), len(actual))
