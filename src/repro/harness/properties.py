"""Checkers for the paper's formal move properties (§5.1).

*Loss-free*: "All state updates resulting from packet processing should
be reflected at the destination instance, and all packets the switch
receives should be processed." Operationally: every packet uid the
switch forwarded towards an NF is processed by exactly one instance
(the state-side half is asserted per NF by invariant checks in tests).

*Order-preserving*: "All packets should be processed in the order they
were forwarded to the NF instances by the switch." Operationally: for
each flow, the sequence of uids processed (merged across instances,
ordered by processing completion time) equals the sequence in which the
switch first forwarded them.

Both are judged at the ports the deployment wired to the instances
(:func:`nf_ports`), which are not the NFs' names on every topology, and
a judge that saw packets processed but judged none fails: it would
otherwise pass whatever was lost. Each returns a :class:`Verdict`, the
``(ok, detail)`` pair that also says how many packets it judged.

The judges read the ground-truth logs row by row, once each, and keep
their per-packet marks in arrays indexed by ``uid - lo`` (``lo`` the
smallest uid the logs hold, the arrays as wide as the uid range they
span: a deployment's logs hold the uids minted while it ran) rather
than in per-uid sets and dicts, so judging a run costs a few bytes per
packet on top of the logs themselves. Only a failure's detail rebuilds
lists, for the packets it cites.
"""

from __future__ import annotations

from array import array
from math import inf
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.net.switch import Switch

_UID = itemgetter(1)


class Verdict(tuple):
    """A judge's ``(ok, detail)``, plus ``judged``: how many packets it
    judged. Unpacks and compares as the plain pair."""

    judged: int

    def __new__(cls, ok: bool, detail: str, judged: int) -> "Verdict":
        verdict = super().__new__(cls, (ok, detail))
        verdict.judged = judged
        return verdict


def nf_ports(switch: Switch, nfs) -> List[str]:
    """The ports of ``switch`` that reach ``nfs``, read off its wiring.

    Whatever port a deployment attached an NF at (``Deployment._attach``
    returns it and ``controller.port_of`` names it: the NF's own name on
    one switch, ``leaf-<nf>`` on a two-tier spine), that port delivers
    to the NF's ``receive``, or to a switch one of whose ports does.
    """
    targets = {id(nf) for nf in nfs}
    return [port for port in switch.ports
            if _reaches(switch.receiver_at(port), targets)]


def _reaches(receiver, targets: Set[int]) -> bool:
    owner = getattr(receiver, "__self__", None)
    if id(owner) in targets:
        return True
    return isinstance(owner, Switch) and any(
        _reaches(owner.receiver_at(port), targets) for port in owner.ports
    )


class _Marks:
    """Per-uid marks from one pass over the forwarding log and one over
    each processing log.

    *Arrival* is a uid's first appearance in the forwarding log, whether
    that forwarding went to an NF port or detoured to the controller; a
    uid is *NF-bound* if any forwarding (data path or packet-out) sent it
    towards one of ``ports``: copies that only ever reached the
    controller were never "forwarded to the NF instances by the switch"
    (§5.1.2). For the paper's baseline mechanisms the two coincide; they
    differ for controller-detour schemes (the strong order-preserving
    move, Split/Merge's halt), where arrival is the right basis for order.
    """

    def __init__(self, switch: Switch, ports: Iterable[str], logs) -> None:
        forward_log = switch.forward_log
        lo, size = _uid_span((forward_log, *logs))
        self.lo = lo
        #: Uids in arrival order, each once.
        self.arrival = array("q")
        #: 1 where the uid is NF-bound.
        self.bound = bytearray(size)
        #: How many times the uid was processed, across ``logs``.
        self.counts = array("l", [0]) * size
        #: When the uid's last processing completed.
        self.done = array("d", [-inf]) * size
        seen = bytearray(size)
        bound = self.bound
        arrive = self.arrival.append
        disjoint = set(ports).isdisjoint
        for _time, uid, actions in forward_log:
            index = uid - lo
            if not seen[index]:
                seen[index] = 1
                arrive(uid)
            if not bound[index] and not disjoint(actions):
                bound[index] = 1
        counts, done = self.counts, self.done
        for log in logs:
            for when, uid in log:
                index = uid - lo
                counts[index] += 1
                if when > done[index]:
                    done[index] = when


def _uid_span(logs) -> Tuple[int, int]:
    """``(lo, size)``: the smallest uid ``logs`` hold and the width of
    the uid range they span; ``(0, 0)`` when they are all empty."""
    spans = [(min(map(_UID, log)), max(map(_UID, log)))
             for log in logs if len(log)]
    if not spans:
        return 0, 0
    lo = min(low for low, _high in spans)
    return lo, max(high for _low, high in spans) - lo + 1


def check_loss_free(
    switch: Switch, nfs, uids: Optional[Set[int]] = None
) -> Verdict:
    """Every switch-forwarded packet processed exactly once.

    ``uids``, when given, restricts the judgement to those packets. On
    failure, ``detail`` names the missing or duplicated uids (the first
    ten of each: missing in arrival order, duplicated in the order of
    their first processing), or says that no processed packet was ever
    forwarded towards the NFs' ports: nothing was judged. ``judged``
    counts the NF-bound packets checked.
    """
    nfs = list(nfs)
    ports = nf_ports(switch, nfs)
    logs = [nf.processing_log for nf in nfs]
    marks = _Marks(switch, ports, logs)
    lo, bound, counts = marks.lo, marks.bound, marks.counts
    judged = 0
    missing: List[int] = []
    for uid in marks.arrival:
        index = uid - lo
        if bound[index] and (uids is None or uid in uids):
            judged += 1
            if counts[index] == 0:
                missing.append(uid)
    if uids is None:
        processed = len(counts) - counts.count(0)
    else:
        processed = sum(1 for uid in uids
                        if 0 <= uid - lo < len(counts) and counts[uid - lo])
    if processed and not judged:
        return Verdict(False, _judged_none(processed, ports), 0)
    duplicated: List[int] = []
    if counts and max(counts) > 1:
        for log in logs:
            for _time, uid in log:
                index = uid - lo
                if counts[index] > 1 and (uids is None or uid in uids):
                    duplicated.append(uid)
                    counts[index] = 1  # cite each uid once
    if not missing and not duplicated:
        return Verdict(True, "", judged)
    return Verdict(False, "missing=%s duplicated=%s" % (
        missing[:10], duplicated[:10]), judged)


def check_chain_loss_free(
    switch: Switch,
    hops: Sequence[Tuple[str, Sequence]],
    uids: Optional[Set[int]] = None,
) -> Verdict:
    """Chain-wide loss-freedom: every packet crosses *every* hop once.

    A chain's data path is one multicast rule, so :func:`check_loss_free`
    run across all chain instances at once would misread the (by design)
    N-fold processing as duplication. The chain property is per hop:
    restricted to each hop's instance set, every packet the switch
    forwarded towards that hop is processed by exactly one of its
    instances. ``hops`` is an ordered sequence of
    ``(hop_name, [nf, ...])`` pairs; failures cite the hop by name.
    ``judged`` is the fewest packets any hop judged.
    """
    failures: List[str] = []
    judged: List[int] = []
    for hop_name, nfs in hops:
        verdict = check_loss_free(switch, nfs, uids)
        judged.append(verdict.judged)
        if not verdict[0]:
            failures.append("hop %r: %s" % (hop_name, verdict[1]))
    fewest = min(judged, default=0)
    if not failures:
        return Verdict(True, "", fewest)
    return Verdict(False, "; ".join(failures), fewest)


def _flow_key(five_tuple) -> Tuple:
    canonical = five_tuple.canonical()
    return (
        canonical.src_ip,
        canonical.src_port,
        canonical.dst_ip,
        canonical.dst_port,
        canonical.proto,
    )


def check_order_preserving(
    switch: Switch,
    nfs,
    packets,
    per_flow: bool = True,
) -> Verdict:
    """Processing order equals first-forwarding order.

    With ``per_flow=True`` the comparison is within each flow (the
    paper's property spans both directions of a flow — the canonical
    five-tuple groups them); processed-only packets are compared, so the
    check composes with loss (use :func:`check_loss_free` for that).
    ``packets`` is the population to examine (e.g. ``replayer.injected``).
    ``judged`` counts the processed packets whose order was compared.

    A flow is in order when walking its NF-bound packets in arrival
    order meets their last completions in increasing ``(time, uid)``
    order, and every processed packet of it was NF-bound. Flows are
    numbered in the order their first processed packet appears in
    ``packets``; the detail cites the first flow out of order.
    """
    nfs = list(nfs)
    ports = nf_ports(switch, nfs)
    logs = [nf.processing_log for nf in nfs]
    marks = _Marks(switch, ports, logs)
    lo, bound, counts, done = marks.lo, marks.bound, marks.counts, marks.done
    size = len(counts)
    # The flow of each processed packet of the population (-1 for none).
    flow_of = array("l", [-1]) * size
    flow_keys: Dict[Optional[Tuple], int] = {}
    # Packets of one flow direction share their five-tuple object.
    by_tuple: Dict[int, int] = {}
    out_of_order = bytearray()
    for packet in packets:
        index = packet.uid - lo
        if not (0 <= index < size and counts[index]):
            continue
        five = packet.five_tuple
        flow = by_tuple.get(id(five))
        if flow is None:
            key = _flow_key(five) if per_flow else None
            flow = by_tuple[id(five)] = flow_keys.setdefault(
                key, len(flow_keys))
            if flow == len(out_of_order):
                out_of_order.append(0)
        flow_of[index] = flow
        # Processed but never sent to an NF; or, judged as one sequence,
        # processed twice: either way the two orders differ.
        if not bound[index] or (not per_flow and counts[index] > 1):
            out_of_order[flow] = 1
    flows = len(out_of_order)
    last_done = array("d", [-inf]) * flows
    last_uid = array("q", [0]) * flows
    judged = 0
    for uid in marks.arrival:
        index = uid - lo
        flow = flow_of[index]
        if flow < 0 or not bound[index]:
            continue
        judged += 1
        when = done[index]
        if when < last_done[flow] or (
                when == last_done[flow] and uid < last_uid[flow]):
            out_of_order[flow] = 1
        last_done[flow] = when
        last_uid[flow] = uid
    if not judged:
        processed = sum(counts[index] for index, flow in enumerate(flow_of)
                        if flow >= 0)
        if processed:
            return Verdict(False, _judged_none(processed, ports), 0)
    if not per_flow:
        if flows and out_of_order[0]:
            return Verdict(False, _first_divergence(
                _forwarded_order(marks, flow_of, 0),
                _processing_order(logs, lo, flow_of, 0)), judged)
        return Verdict(True, "", judged)
    if 1 not in out_of_order:
        return Verdict(True, "", judged)
    flow = out_of_order.index(1)
    uids = [p.uid for p in packets
            if 0 <= p.uid - lo < size and flow_of[p.uid - lo] == flow]
    rank = {uid: r for r, uid in enumerate(
        _forwarded_order(marks, flow_of, flow))}
    by_forward = sorted((uid for uid in uids if uid in rank),
                        key=rank.__getitem__)
    by_process = sorted(uids, key=lambda uid: (done[uid - lo], uid))
    key = next(key for key, index in flow_keys.items() if index == flow)
    return Verdict(False, "flow %s: %s" % (
        key, _first_divergence(by_forward, by_process)), judged)


def _forwarded_order(marks: _Marks, flow_of, flow: int) -> List[int]:
    """The NF-bound uids of ``flow``, in arrival order."""
    lo, bound = marks.lo, marks.bound
    return [uid for uid in marks.arrival
            if flow_of[uid - lo] == flow and bound[uid - lo]]


def _processing_order(logs, lo: int, flow_of, flow: int) -> List[int]:
    """Every processing of a uid of ``flow``, in ``(time, uid)`` order."""
    rows = sorted(row for log in logs for row in log
                  if flow_of[row[1] - lo] == flow)
    return [uid for _time, uid in rows]


def _judged_none(processed: int, ports: Sequence[str]) -> str:
    return ("judged no packet: none of the %d processed packets was "
            "forwarded to ports %s" % (processed, sorted(ports)))


def _first_divergence(expected: Sequence[int], actual: Sequence[int]) -> str:
    for index, (exp, act) in enumerate(zip(expected, actual)):
        if exp != act:
            return "at %d expected uid %d got %d" % (index, exp, act)
    return "length mismatch: expected %d actual %d" % (len(expected), len(actual))
