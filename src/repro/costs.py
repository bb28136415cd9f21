"""The simulated clock's cost table: each constant once, with its anchor.

A name's suffix is its unit: ``_MS`` simulated milliseconds, ``_PPS``
packets per second, ``_BYTES_PER_MS``; no suffix, a count or fraction.
Its comment names the paper anchor (§, figure, number) or says
"uncalibrated". Constructors default to these names and keep a keyword
only where some caller varies the value.

Three quantities take two live values, one name each:

* the switch's packet-in channel, :data:`CHANNEL_LATENCY_MS` (0.5), and
  its RPC channels, :data:`SW_CHANNEL_LATENCY_MS` (0.6);
* a bare ``NFClient``'s channels (Fig. 12's bench), the same 0.5, and a
  deployment's NF channels, :data:`NF_CHANNEL_LATENCY_MS` (1.0);
* a deployment's NF link, :data:`NF_LINK_LATENCY_MS` (0.25), and a
  two-tier leaf's link to its NF, :data:`LEAF_NF_LINK_LATENCY_MS` (0.1).

An NF chunk costs ``serialize_base_ms + size_bytes * serialize_per_kb_ms
/ 1024`` (likewise to deserialize, at least 2x faster for every NF), so
bulky chunks (Squid's cached objects) cost more, which Table 1 needs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# -- switch and links
#: §8.1.1 (2014 switch hardware); the paper gives no number: uncalibrated.
FLOWMOD_DELAY_MS = 10.0
#: §8.1.1 and Fig. 11b blame it for slow LF moves; no number: uncalibrated.
PACKET_OUT_RATE_PPS = 4000.0
#: Uncalibrated: a switch-to-NF data link (``Link``'s default).
NF_LINK_LATENCY_MS = 0.25
#: Uncalibrated: a two-tier spine-to-leaf link.
LEAF_LINK_LATENCY_MS = 0.2
#: Uncalibrated: a two-tier leaf-to-NF link.
LEAF_NF_LINK_LATENCY_MS = 0.1

# -- control channels
#: Uncalibrated: 1 Gbps, every control channel's and a VM snapshot's.
CHANNEL_BANDWIDTH_BYTES_PER_MS = 125_000.0
#: Uncalibrated: a ``ControlChannel``'s default (packet-in, bare clients).
CHANNEL_LATENCY_MS = 0.5
#: Uncalibrated: controller<->switch RPC channels.
SW_CHANNEL_LATENCY_MS = 0.6
#: Uncalibrated: controller<->NF (and NF<->NF) channels of a deployment.
NF_CHANNEL_LATENCY_MS = 1.0
#: §8.3: compression cut a move's bytes by 38 %; for preset-size chunks.
COMPRESSED_SIZE_FRACTION = 0.62
#: Uncalibrated: a batch frame's longest wait after its first message.
BATCH_FLUSH_INTERVAL_MS = 4.0

# -- controller and move
#: §8.3, Fig. 13: the inbox's cost per message; no number: uncalibrated.
MSG_PROC_MS = 0.15
#: Uncalibrated: an ownership handoff's round trip (its drain barrier is extra).
HANDOFF_LATENCY_MS = 5.0
#: Cleanup waits this long for in-flight packets before it retires the source's
#: event rules and the MID rule; §5.1.1 waits "several minutes": uncalibrated.
DRAIN_GRACE_MS = 30.0
#: Uncalibrated: bound on the two-phase update's wait for the first packet.
FIRST_PACKET_TIMEOUT_MS = 40.0
#: Uncalibrated: interval between the rule-counter reads that confirm the
#: controller saw every packet the MID rule forwarded (footnote 9).
COUNTER_POLL_MS = 8.0

# -- reliability, under a fault plan only
#: Uncalibrated: the RPC retry schedule, 25 ms doubling to 400, 7 tries.
RPC_TIMEOUT_MS = 25.0
RPC_BACKOFF = 2.0
RPC_MAX_TIMEOUT_MS = 400.0
RPC_MAX_ATTEMPTS = 7
#: Uncalibrated: an NF resends an unacked event after attempt x this.
EVENT_RETRANSMIT_MS = 15.0
#: Uncalibrated: an event-sequence gap stalls this long before a skip.
EVENT_GAP_TIMEOUT_MS = 200.0
#: Uncalibrated: how long a strong share waits for an origin's completion.
SHARE_UPDATE_TIMEOUT_MS = 250.0
#: Uncalibrated: a peer re-ship round ``k`` waits ``k`` x this.
PEER_RESHIP_BACKOFF_MS = 25.0
#: Uncalibrated: a fault-duplicated copy trails the one before it by this.
DUPLICATE_GAP_MS = 0.05
#: Uncalibrated: a fault spec's delay spike size when it names none.
FAULT_DELAY_SPIKE_MS = 10.0

# -- baselines and apps
#: Uncalibrated: a VM snapshot's fixed cost on top of its transfer.
SNAPSHOT_OVERHEAD_MS = 50.0
#: Uncalibrated: the reroute-only baseline's idle-flow poll.
REROUTE_POLL_INTERVAL_MS = 500.0
#: Uncalibrated: Fig. 8's app re-copies multi-flow state this often.
RECOPY_INTERVAL_MS = 60_000.0
#: Uncalibrated: the remote-processing app's alert poll.
REMOTE_POLL_INTERVAL_MS = 25.0


# -- NF profiles
@dataclass(frozen=True)
class NFCostModel:
    """Timing model for one NF implementation."""

    #: Per-packet processing time during normal operation.
    proc_ms: float = 0.12
    #: Fractional per-packet inflation while an export/import is running.
    export_overhead_frac: float = 0.0
    #: Absolute per-packet inflation while an export/import is running.
    export_overhead_ms: float = 0.0
    #: Fixed cost to serialize one state chunk.
    serialize_base_ms: float = 0.15
    #: Additional serialize cost per KiB of chunk payload.
    serialize_per_kb_ms: float = 0.01
    #: Fixed cost to deserialize (and merge) one chunk.
    deserialize_base_ms: float = 0.07
    #: Additional deserialize cost per KiB.
    deserialize_per_kb_ms: float = 0.005
    #: Cost to delete one chunk.
    delete_ms: float = 0.005
    #: NF-side cost to raise one event (build message, enqueue).
    event_raise_ms: float = 0.01
    #: Fixed NF-side handling cost per southbound call (request parsing,
    #: handler dispatch); paid once per get/put/delete invocation.
    call_overhead_ms: float = 1.0
    #: Cost to buffer or drop one packet under an event rule.
    disposition_ms: float = 0.002
    #: CPU cost per KiB to zlib-compress a chunk before transfer (§8.3).
    compress_per_kb_ms: float = 0.012
    #: CPU cost per KiB to decompress an incoming chunk.
    decompress_per_kb_ms: float = 0.004

    def serialize_ms(self, size_bytes: int) -> float:
        """Time to serialize a chunk of ``size_bytes``."""
        return self.serialize_base_ms + (size_bytes / 1024.0) * self.serialize_per_kb_ms

    def deserialize_ms(self, size_bytes: int) -> float:
        """Time to deserialize a chunk of ``size_bytes``."""
        return (
            self.deserialize_base_ms
            + (size_bytes / 1024.0) * self.deserialize_per_kb_ms
        )

    def compress_ms(self, size_bytes: int) -> float:
        """Time to compress a chunk of (uncompressed) ``size_bytes``."""
        return (size_bytes / 1024.0) * self.compress_per_kb_ms

    def decompress_ms(self, size_bytes: int) -> float:
        """Time to decompress back to ``size_bytes``."""
        return (size_bytes / 1024.0) * self.decompress_per_kb_ms

    def effective_proc_ms(self, exporting: bool) -> float:
        """Per-packet processing time, inflated while exporting/importing."""
        if not exporting:
            return self.proc_ms
        return self.proc_ms * (1.0 + self.export_overhead_frac) + self.export_overhead_ms

    def scaled(self, **overrides) -> "NFCostModel":
        """A copy with some fields replaced (for ablations)."""
        return replace(self, **overrides)


#: PRADS asset monitor, §8.1.1: getPerflow of 500 flows ≈ 89 ms, putPerflow
#: ≈ 54 ms; 0.120 ms a packet, 5.8 % more while exporting (§8.2.1).
PRADS_COSTS = NFCostModel(
    proc_ms=0.120,
    export_overhead_frac=0.058,
    serialize_base_ms=0.172,
    serialize_per_kb_ms=0.02,
    deserialize_base_ms=0.102,
    deserialize_per_kb_ms=0.01,
    call_overhead_ms=2.0,
)

#: Bro IDS, the slowest serializer: Fig. 12 exports 1000 per-flow chunks in
#: ~1 s; +0.12 ms absolute per-packet inflation during export (§8.2.1).
BRO_COSTS = NFCostModel(
    proc_ms=0.50,
    export_overhead_ms=0.12,
    serialize_base_ms=0.85,
    serialize_per_kb_ms=0.04,
    deserialize_base_ms=0.40,
    deserialize_per_kb_ms=0.02,
    call_overhead_ms=4.0,
)

#: iptables/conntrack: tiny fixed-size records, the cheapest chunks.
IPTABLES_COSTS = NFCostModel(
    proc_ms=0.02,
    serialize_base_ms=0.055,
    serialize_per_kb_ms=0.005,
    deserialize_base_ms=0.025,
    deserialize_per_kb_ms=0.002,
    call_overhead_ms=1.0,
)

#: Squid: socket/context serialization is expensive per chunk, and cached
#: objects add a strong per-byte component.
SQUID_COSTS = NFCostModel(
    proc_ms=0.20,
    export_overhead_frac=0.04,
    serialize_base_ms=0.60,
    serialize_per_kb_ms=0.012,
    deserialize_base_ms=0.30,
    deserialize_per_kb_ms=0.006,
)

#: Redundancy-elimination encoder/decoder.
REDUP_COSTS = NFCostModel(
    proc_ms=0.08,
    serialize_base_ms=0.20,
    serialize_per_kb_ms=0.015,
    deserialize_base_ms=0.10,
    deserialize_per_kb_ms=0.008,
)

#: L4 load balancer: cheap per-flow records, comparable to conntrack.
LB_COSTS = NFCostModel(
    proc_ms=0.03,
    serialize_base_ms=0.06,
    serialize_per_kb_ms=0.005,
    deserialize_base_ms=0.03,
    deserialize_per_kb_ms=0.002,
    call_overhead_ms=1.0,
)

#: Dummy trace-replaying NF used for controller scalability (Fig. 13):
#: 202-byte chunks, negligible NF-side cost so the controller dominates.
DUMMY_COSTS = NFCostModel(
    proc_ms=0.001,
    serialize_base_ms=0.02,
    serialize_per_kb_ms=0.0,
    deserialize_base_ms=0.01,
    deserialize_per_kb_ms=0.0,
    call_overhead_ms=0.05,
)
