"""Small IPv4 helpers: dotted-quad parsing and CIDR prefix matching.

We keep addresses as plain strings in packets (readable in logs and
traces) and convert to integers only at match time, with a module-level
memo cache since the same addresses recur for every packet of a flow.

Every process-global memo keyed by an address (the two below and the
host-:class:`~repro.flowspace.filter.FlowId` intern table) is filled
through :func:`memoize`, so all of them share one bound.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

#: Entries a process-global memo table may hold. Far above the distinct
#: addresses of any scenario here, so in practice nothing is evicted;
#: a run that does exceed it pays one table refill, not unbounded memory.
MEMO_CAP = 1 << 16

_ADDR_CACHE: Dict[str, int] = {}
_PREFIX_CACHE: Dict[str, Tuple[int, int]] = {}


def memoize(table: Dict[str, Any], key: str, value: Any) -> Any:
    """Remember ``value`` under ``key``; a full table is dropped whole.

    The tables are pure optimisations — a miss recomputes (or, for an
    interned flowid, builds an equal object) — so the cheapest bounded
    policy is enough.
    """
    if len(table) >= MEMO_CAP:
        table.clear()
    table[key] = value
    return value


def ip_to_int(address: str) -> int:
    """Convert dotted-quad IPv4 ``address`` to a 32-bit integer."""
    cached = _ADDR_CACHE.get(address)
    if cached is not None:
        return cached
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError("invalid IPv4 address: %r" % (address,))
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError("invalid IPv4 address: %r" % (address,))
        value = (value << 8) | octet
    return memoize(_ADDR_CACHE, address, value)


def parse_prefix(prefix: str) -> Tuple[int, int]:
    """Parse ``"10.0.0.0/8"`` (or a bare address) into ``(network, mask)``."""
    cached = _PREFIX_CACHE.get(prefix)
    if cached is not None:
        return cached
    if "/" in prefix:
        base, length_text = prefix.split("/", 1)
        length = int(length_text)
        if not 0 <= length <= 32:
            raise ValueError("invalid prefix length in %r" % (prefix,))
    else:
        base, length = prefix, 32
    mask = 0 if length == 0 else (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
    network = ip_to_int(base) & mask
    return memoize(_PREFIX_CACHE, prefix, (network, mask))


def ip_in_prefix(address: str, prefix: str) -> bool:
    """Whether ``address`` falls inside CIDR ``prefix`` (bare address = /32)."""
    network, mask = parse_prefix(prefix)
    return (ip_to_int(address) & mask) == network


def prefix_covers(outer: str, inner: str) -> bool:
    """Whether CIDR ``outer`` contains every address of CIDR ``inner``."""
    outer_net, outer_mask = parse_prefix(outer)
    inner_net, inner_mask = parse_prefix(inner)
    if (inner_mask & outer_mask) != outer_mask:
        return False  # inner is shorter (broader) than outer
    return (inner_net & outer_mask) == outer_net


def prefixes_overlap(left: str, right: str) -> bool:
    """Whether two CIDR prefixes share any address."""
    left_net, left_mask = parse_prefix(left)
    right_net, right_mask = parse_prefix(right)
    common = left_mask & right_mask
    return (left_net & common) == (right_net & common)
