"""Flow-space sharding: the partition function and the ownership handshake.

Every message the controller handles — NF events, switch packet-ins,
streamed state chunks — costs ``msg_proc_ms`` in a serialized inbox,
which is exactly the wall §8.3's profile measured and Figure 13
quantifies: per-move time grows with the number of concurrent
operations because they all share one handling loop.
:class:`~repro.controller.controller.OpenNFController` removes that wall
the way distributed SDN controllers do: it partitions flow-space
*ownership* across N shards, each with its own inbox and admission
table, so operations over different shards proceed fully in parallel.
With one shard the map has one entry and none of this module runs.

* **Shard map** (:class:`ShardMap`): a deterministic hash partition of
  flow space. Exact-match filters fold their direction-normalized
  5-tuple key; CIDR-prefix filters bucket by network prefix so adjacent
  subnets land on different shards; everything else (true wildcards)
  defaults to shard 0. Both orientations of a flow always map to the
  same shard.

* **Cross-shard handshake** (:class:`CrossShardOperation`): an
  operation whose filter intersects flow space another shard is
  currently operating on cannot just start — the two would race on
  rules and state. Instead the filter is reserved in EVERY shard's
  admission table (so nothing new intersecting starts anywhere), the
  conflicting operations finish, and ownership transfers: one
  control-channel round trip (:data:`HANDOFF_LATENCY_MS`) plus a drain
  barrier on the prior owners' inboxes (any in-flight message for the
  flow space is handled before the new owner proceeds). Only then does
  the operation start on its home shard, and the controller records the
  ownership override so subsequent traffic routes there.

Failure semantics of a mid-handoff crash are discussed in
``docs/internals.md``; the short version is that the reservation +
drain protocol makes the transfer all-or-nothing from the flow space's
point of view: until the drain barrier passes, the prior owner still
owns every message, and an abort during the wait resolves the handle
through the normal deferred-abort path without ever starting.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

from repro.flowspace.filter import Filter
from repro.flowspace.ip import parse_prefix
from repro.controller.operation import DeferredOperation, Operation, when_all

#: One control-channel round trip between shards: the cost of the
#: ownership-transfer message exchange in a cross-shard handshake (the
#: drain barrier is extra, and workload-driven).
HANDOFF_LATENCY_MS = 5.0

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _fold(*values: int) -> int:
    """FNV-1a over the bytes of a sequence of non-negative ints.

    Deterministic across runs and Python versions (no salted hash()),
    so shard placement — and therefore every sharded timeline — is
    reproducible.
    """
    digest = _FNV_OFFSET
    for value in values:
        value = int(value)
        while True:
            digest = ((digest ^ (value & 0xFF)) * _FNV_PRIME) & _MASK64
            value >>= 8
            if not value:
                break
    return digest


class ShardMap:
    """Deterministic flow-space → shard partition function."""

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard, got %d" % n_shards)
        self.n_shards = n_shards

    def shard_for_key(self, key: Tuple) -> int:
        """Shard for an exact-match key from :meth:`Filter.exact_key`.

        The orientation tag is dropped and endpoints direction-normalized
        first, so an oriented filter, its reverse, and the symmetric
        filter for the same connection all land on one shard.
        """
        _tag, proto, left, right = key
        if right < left:
            left, right = right, left
        return _fold(proto, left[0], left[1], right[0], right[1]) \
            % self.n_shards

    def shard_for_filter(self, flt: Filter) -> int:
        """Owning shard for a filter's flow space.

        Exact filters hash their 5-tuple. Prefix filters bucket by the
        network bits (``network >> host_bits``), so *adjacent* subnets
        — the common way traffic is split across NF instances — cycle
        round-robin across shards instead of hashing to one. Filters
        with no IP constraint (true wildcards) go to shard 0.
        """
        key = flt.exact_key()
        if key is not None:
            return self.shard_for_key(key)
        for field in ("nw_src", "nw_dst"):
            value = flt.fields.get(field)
            if value is None:
                continue
            try:
                network, mask = parse_prefix(value)
            except (AttributeError, TypeError, ValueError):
                continue
            prefix_len = bin(mask & 0xFFFFFFFF).count("1")
            if prefix_len == 0:
                continue
            return (network >> (32 - prefix_len)) % self.n_shards
        return 0

    def shard_for_packet(self, packet) -> int:
        """Shard for one packet (by its symmetric match key, so both
        directions of a connection route identically)."""
        symmetric = packet.match_keys()[1]
        if symmetric is None:
            return 0
        return self.shard_for_key(symmetric)


class CrossShardOperation(DeferredOperation):
    """An operation whose flow space spans shards: handshake, then run.

    Presents the standard deferred handle (``kind == "deferred"``) and
    reserves its filter in **every** shard's admission table at
    submission, so no shard admits an intersecting operation while the
    handshake is pending — and later operations queue FIFO behind it
    exactly as they would behind a same-shard deferral. Once all
    pre-existing conflicts finish, ownership of the flow space
    transfers to the home shard: one inter-shard round trip to agree on
    the transfer, then a drain barrier on each prior owner's inbox so
    every message already accepted for the flow space is handled under
    the old owner before the new owner touches it. Only then does the
    real operation start.
    """

    def __init__(
        self,
        home,
        kind: str,
        flt: Filter,
        conflicts: List[Any],
        start: Callable[[], Operation],
        guarantee: Any = None,
        prior_owners: Tuple[Any, ...] = (),
    ) -> None:
        self._prior_owners = tuple(prior_owners)
        super().__init__(home, kind, flt, conflicts, start,
                         guarantee=guarantee)
        # Reserve everywhere else too (home is reserved by the parent
        # constructor): every shard treats this flow space as busy.
        for shard in home.controller.replicas:
            if shard is not home:
                shard._reserve(flt, self.done)

    def _begin(self) -> None:
        """Flow space is clear on every shard: hand it over, then start."""
        controller = self.shard.controller
        if controller.obs.enabled:
            controller.obs.metrics.counter("ctrl.shard.handoff").inc(
                1, shard=str(self.shard.shard_id)
            )
        self.sim.schedule(
            HANDOFF_LATENCY_MS,
            lambda: when_all(
                [owner.inbox.drained() for owner in self._prior_owners],
                self._complete_handoff,
            ),
        )

    def _complete_handoff(self) -> None:
        self.shard.controller._transfer_ownership(self.flt, self.shard)
        if self.done.triggered:  # aborted while the handoff was in flight
            return
        super()._begin()
