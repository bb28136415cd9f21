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
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.flowspace import Filter, FlowId
from repro.flowspace.ip import parse_prefix
from repro.net import FlowTable, Packet
from repro.net.flowtable import FlowEntry
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
