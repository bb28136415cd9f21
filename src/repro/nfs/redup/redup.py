"""Redundancy-elimination encoder and decoder.

The paper uses an RE decoder [16] as its order-sensitivity witness
(§5.1.2): "an encoded packet arriving before the data packet w.r.t.
which it was encoded will be silently dropped; this can cause the
decoder's data store to rapidly become out of synch with the encoders."

The encoder replaces payloads it has seen before with a fingerprint
token; the decoder maintains the mirror fingerprint store from the raw
packets it observes and expands tokens back. Both stores are *all-flows*
state (the fingerprint table is shared across every flow, §4.1). A
token miss at the decoder is a desynchronization event — the metric the
order-preserving move eliminates.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

from repro.nf.base import NetworkFunction
from repro.nf.costs import REDUP_COSTS, NFCostModel
from repro.nf.record import Record, overlay
from repro.nf.state import MERGE, Scope, StateSpec
from repro.net.packet import Packet
from repro.sim.core import Simulator

#: Extra-header key carrying a fingerprint token on encoded packets.
RE_TOKEN_HEADER = "re_token"


def fingerprint(payload: str) -> str:
    """Content fingerprint used by both encoder and decoder."""
    return hashlib.md5(payload.encode("utf-8")).hexdigest()[:16]


class _FingerprintStore(Record):
    """The shared all-flows fingerprint table."""

    FIELDS = ("table",)
    MERGE = dict(table=overlay)

    def __init__(self) -> None:
        self.table: Dict[str, int] = {}  # fingerprint -> payload length

    def remember(self, payload: str) -> str:
        fp = fingerprint(payload)
        self.table[fp] = len(payload)
        return fp

    def lookup(self, fp: str) -> Optional[int]:
        return self.table.get(fp)


class REEncoder(NetworkFunction):
    """Replaces previously seen payloads with tokens."""

    def __init__(
        self, sim: Simulator, name: str, costs: Optional[NFCostModel] = None
    ) -> None:
        super().__init__(sim, name, costs or REDUP_COSTS)
        self.store = _FingerprintStore()
        self.encoded_packets = 0
        self.raw_packets = 0
        self.bytes_saved = 0

    def encode(self, packet: Packet) -> Packet:
        """Transform a packet in place (token header + stripped payload)."""
        if len(packet.payload) <= 16:
            return packet  # tokenizing would not shrink the packet
        fp = fingerprint(packet.payload)
        if fp in self.store.table:
            self.encoded_packets += 1
            self.bytes_saved += len(packet.payload) - len(fp)
            packet.extra_headers[RE_TOKEN_HEADER] = fp
            packet.rewrite_payload("")
        else:
            self.store.remember(packet.payload)
            self.raw_packets += 1
        return packet

    def process_packet(self, packet: Packet) -> None:
        self.encode(packet)

    STATE = {Scope.ALLFLOWS: StateSpec("store", _FingerprintStore, MERGE)}


class REDecoder(NetworkFunction):
    """Expands tokens using its mirror of the encoder's store."""

    def __init__(
        self, sim: Simulator, name: str, costs: Optional[NFCostModel] = None
    ) -> None:
        super().__init__(sim, name, costs or REDUP_COSTS)
        self.store = _FingerprintStore()
        self.decoded_packets = 0
        self.raw_packets = 0
        #: Tokens that referenced data the decoder has not seen: the
        #: silent drops of §5.1.2.
        self.desync_drops = 0

    def process_packet(self, packet: Packet) -> None:
        token = packet.extra_header(RE_TOKEN_HEADER)
        if token is not None:
            if self.store.lookup(token) is None:
                self.desync_drops += 1
            else:
                self.decoded_packets += 1
            return
        if packet.payload:
            self.store.remember(packet.payload)
            self.raw_packets += 1

    STATE = {Scope.ALLFLOWS: StateSpec("store", _FingerprintStore, MERGE)}
