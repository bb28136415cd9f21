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
otherwise pass whatever was lost.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.net.switch import CONTROLLER_PORT, Switch


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


def check_chain_loss_free(
    switch: Switch,
    hops: Sequence[Tuple[str, Sequence]],
    uids: Optional[Set[int]] = None,
) -> Tuple[bool, str]:
    """Chain-wide loss-freedom: every packet crosses *every* hop once.

    A chain's data path is one multicast rule, so :func:`check_loss_free`
    run across all chain instances at once would misread the (by design)
    N-fold processing as duplication. The chain property is per hop:
    restricted to each hop's instance set, every packet the switch
    forwarded towards that hop is processed by exactly one of its
    instances. ``hops`` is an ordered sequence of
    ``(hop_name, [nf, ...])`` pairs; failures cite the hop by name.
    """
    failures: List[str] = []
    for hop_name, nfs in hops:
        ok, detail = check_loss_free(switch, nfs, uids)
        if not ok:
            failures.append("hop %r: %s" % (hop_name, detail))
    if not failures:
        return True, ""
    return False, "; ".join(failures)


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
