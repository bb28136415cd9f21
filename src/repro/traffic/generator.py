"""Flow-level packet generation primitives.

These builders produce the packet sequences of individual flows: TCP
handshakes with data, full HTTP request/response exchanges (with
controllable bodies so the IDS's md5 malware detection has something to
chew on), and port scans. Traces (:mod:`repro.traffic.traces`) compose
them into the workload mixes the paper's evaluation uses.

Packets are created lazily via :class:`PacketBlueprint` so a trace can be
replayed several times (each replay makes fresh :class:`Packet` objects
with fresh uids).

Trace content is held once: the filler bodies of bulk flows and the
segments of an HTTP reply stream are built once per distinct
``(char, size)`` / ``(body, reply_chunk)`` and shared by every flow that
carries them. That is safe because a payload is a ``str`` (immutable)
and a packet's payload is only ever rebound
(:meth:`~repro.net.packet.Packet.rewrite_payload`), never changed in place.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.flowspace.fivetuple import TCP, FiveTuple
from repro.net.packet import Packet

#: One frozenset per distinct flag tuple, shared by every blueprint —
#: and so every packet built from one — that carries those flags.
_FLAG_SETS: Dict[Tuple[str, ...], FrozenSet[str]] = {}


class PacketBlueprint:
    """A packet waiting to be instantiated at replay time.

    Immutable, and compared and hashed on its four fields as a frozen
    dataclass is. A trace holds one per packet, so it is slotted by
    hand (no per-instance ``__dict__``: about 72 B instead of 152 B);
    ``dataclass(slots=True)`` needs Python 3.10.
    """

    __slots__ = ("five_tuple", "tcp_flags", "seq", "payload", "_flag_set")

    five_tuple: FiveTuple
    tcp_flags: Tuple[str, ...]
    seq: int
    payload: str
    #: ``tcp_flags`` as the shared frozenset each built packet holds.
    _flag_set: FrozenSet[str]

    def __init__(
        self,
        five_tuple: FiveTuple,
        tcp_flags: Tuple[str, ...] = (),
        seq: int = 0,
        payload: str = "",
    ) -> None:
        flags = _FLAG_SETS.get(tcp_flags)
        if flags is None:
            flags = _FLAG_SETS[tcp_flags] = frozenset(tcp_flags)
        setattr_ = object.__setattr__
        setattr_(self, "five_tuple", five_tuple)
        setattr_(self, "tcp_flags", tcp_flags)
        setattr_(self, "seq", seq)
        setattr_(self, "payload", payload)
        setattr_(self, "_flag_set", flags)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError("cannot delete field %r" % name)

    def _fields(self) -> Tuple[FiveTuple, Tuple[str, ...], int, str]:
        return (self.five_tuple, self.tcp_flags, self.seq, self.payload)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            "PacketBlueprint(five_tuple=%r, tcp_flags=%r, seq=%r, payload=%r)"
            % self._fields()
        )

    def __reduce__(self):
        return (PacketBlueprint, self._fields())

    def build(self, created_at: float, uid: Optional[int] = None) -> Packet:
        """A packet of this blueprint: a fresh uid, or ``uid`` to rebuild
        one already injected (:class:`~repro.traffic.replay.InjectedPackets`)."""
        return Packet(
            self.five_tuple, self._flag_set, self.seq, self.payload,
            created_at, None, uid,
        )


@lru_cache(maxsize=64)
def _filler(char: str, size: int) -> str:
    """A bulk-data body of ``size`` copies of ``char``, built once."""
    return char * size


@lru_cache(maxsize=64)
def _reply_segments(body: str, chunk: int) -> Tuple[str, ...]:
    """An HTTP reply (status line, ``Content-Length`` and ``body``) cut
    into ``chunk``-byte data segments, built once per distinct reply."""
    stream = "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body
    return tuple(
        stream[offset : offset + chunk] for offset in range(0, len(stream), chunk)
    )


@dataclass
class FlowBlueprint:
    """An ordered packet sequence belonging to one flow."""

    five_tuple: FiveTuple
    packets: List[PacketBlueprint] = field(default_factory=list)
    kind: str = "generic"
    #: Reverse-direction tuple, built once and shared by every reply
    #: packet of the flow. Sharing matters beyond allocation: per-flow
    #: caches (flow keys, flow ids) memoize on the tuple
    #: object, so one instance per direction keeps them O(flows).
    _reversed: Optional[FiveTuple] = field(
        default=None, repr=False, compare=False
    )

    def add(
        self,
        flags: Iterable[str] = (),
        seq: int = 0,
        payload: str = "",
        reverse: bool = False,
    ) -> None:
        if reverse:
            tuple_ = self._reversed
            if tuple_ is None:
                tuple_ = self._reversed = self.five_tuple.reversed()
        else:
            tuple_ = self.five_tuple
        self.packets.append(
            PacketBlueprint(tuple_, tuple(flags), seq, payload)
        )

    def __len__(self) -> int:
        return len(self.packets)


def tcp_flow(
    five_tuple: FiveTuple,
    data_packets: int = 8,
    payload_size: int = 512,
    bidirectional: bool = True,
    close: bool = True,
) -> FlowBlueprint:
    """A plain TCP connection: handshake, data both ways, FIN."""
    flow = FlowBlueprint(five_tuple, kind="tcp")
    flow.add(flags=("SYN",))
    if bidirectional:
        flow.add(flags=("SYN", "ACK"), reverse=True)
    flow.add(flags=("ACK",))
    up = _filler("u", payload_size)
    down = _filler("d", payload_size)
    seq_fwd = 0
    seq_rev = 0
    for index in range(data_packets):
        if bidirectional and index % 3 == 2:
            flow.add(flags=("ACK",), seq=seq_rev, payload=down, reverse=True)
            seq_rev += len(down)
        else:
            flow.add(flags=("ACK",), seq=seq_fwd, payload=up)
            seq_fwd += len(up)
    if close:
        flow.add(flags=("FIN", "ACK"), seq=seq_fwd)
        if bidirectional:
            flow.add(flags=("FIN", "ACK"), seq=seq_rev, reverse=True)
    return flow


def http_exchange(
    client_ip: str,
    client_port: int,
    server_ip: str,
    url: str = "/index.html",
    host: str = "example.com",
    user_agent: str = "Mozilla/5.0 (modern)",
    reply_body: str = "",
    reply_chunk: int = 1200,
    server_port: int = 80,
    close: bool = True,
) -> FlowBlueprint:
    """A full HTTP/1.1 request/response over one TCP connection.

    The reply body is segmented into ``reply_chunk``-byte data packets
    with correct sequence offsets, so an IDS downstream can reassemble it
    and hash it — or notice a gap if any packet was lost in a state move.
    """
    five_tuple = FiveTuple(client_ip, client_port, server_ip, server_port, TCP)
    flow = FlowBlueprint(five_tuple, kind="http")
    flow.add(flags=("SYN",))
    flow.add(flags=("SYN", "ACK"), reverse=True)
    flow.add(flags=("ACK",))

    request = (
        "GET %s HTTP/1.1\r\nHost: %s\r\nUser-Agent: %s\r\n\r\n"
        % (url, host, user_agent)
    )
    flow.add(flags=("ACK", "PSH"), seq=0, payload=request)

    offset = 0
    for chunk in _reply_segments(reply_body, reply_chunk):
        flow.add(flags=("ACK",), seq=offset, payload=chunk, reverse=True)
        offset += len(chunk)

    if close:
        flow.add(flags=("FIN", "ACK"), seq=len(request))
        flow.add(flags=("FIN", "ACK"), seq=offset, reverse=True)
    return flow


def port_scan(
    scanner_ip: str,
    target_ips: Iterable[str],
    ports: Iterable[int],
    src_port: int = 40000,
) -> List[FlowBlueprint]:
    """SYN probes from one scanner to many (host, port) targets.

    Each probe is its own one-packet flow; a scan detector counts the
    distinct targets per scanner (multi-flow state).
    """
    flows: List[FlowBlueprint] = []
    offset = 0
    for target in target_ips:
        for port in ports:
            five_tuple = FiveTuple(scanner_ip, src_port + offset, target, port, TCP)
            probe = FlowBlueprint(five_tuple, kind="scan")
            probe.add(flags=("SYN",))
            flows.append(probe)
            offset += 1
    return flows


def ftp_session(
    client_ip: str,
    server_ip: str,
    filename: str = "dump.tar",
    control_port: int = 50100,
    data_port: int = 50200,
    data_packets: int = 4,
    payload_size: int = 800,
) -> List[FlowBlueprint]:
    """An FTP retrieval: a control connection issuing ``RETR`` followed
    by the server-initiated data connection (active mode, src port 20).

    Returns ``[control_flow, data_flow]``; interleave them so the RETR
    precedes the data SYN — the ordering §5.1.2's example depends on.
    """
    control = FlowBlueprint(
        FiveTuple(client_ip, control_port, server_ip, 21, TCP), kind="ftp-ctl"
    )
    control.add(flags=("SYN",))
    control.add(flags=("SYN", "ACK"), reverse=True)
    control.add(flags=("ACK",))
    command = "RETR %s\r\n" % filename
    control.add(flags=("ACK", "PSH"), seq=0, payload=command)

    data = FlowBlueprint(
        FiveTuple(server_ip, 20, client_ip, data_port, TCP), kind="ftp-data"
    )
    data.add(flags=("SYN",))
    data.add(flags=("SYN", "ACK"), reverse=True)
    body = _filler("f", payload_size)
    offset = 0
    for _ in range(data_packets):
        data.add(flags=("ACK",), seq=offset, payload=body)
        offset += payload_size
    data.add(flags=("FIN", "ACK"), seq=offset)
    return [control, data]
