"""Connection objects: the IDS's per-flow state.

Mirrors Figure 1 of the paper: for each active flow the IDS keeps a
``Connection`` with endpoints and status plus the analyzer objects it
references (two TCP reassemblers and, for HTTP flows, an HTTP analyzer
holding partially reassembled payloads). The whole object graph
serializes into a single per-flow state chunk.

Also implements "weird activity" checks after Bro's policy scripts:

* ``SYN_inside_connection`` — a SYN processed after the connection has
  carried data: the false alert re-ordering causes (§5.1.2);
* ``data_before_established`` — payload with no handshake observed: what
  an instance reports when flows are rerouted to it *without* their
  state (the §8.4 failure modes produce storms of these);
* ``RST_with_data`` — a reset carrying payload;
* ``spontaneous_FIN`` — a FIN on a connection that never handshook or
  carried data.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional

from repro.flowspace.fivetuple import FiveTuple
from repro.net.packet import Packet
from repro.nf.record import Convert, Field, Record, nested
from repro.nfs.ids.ftp import FTP_CONTROL_PORT, FtpControlAnalyzer
from repro.nfs.ids.http import HttpAnalyzer
from repro.nfs.ids.tcp import TcpReassembler

#: Connection states, loosely after Bro's conn.log vocabulary.
S0 = "S0"  # SYN seen, no reply
S1 = "S1"  # handshake complete(ing)
EST = "EST"  # carrying data
SF = "SF"  # normal close
RST = "RST"  # reset
OTH = "OTH"  # mid-stream pickup, no handshake observed

#: The originator's five-tuple travels as a dict of its fields.
_FIVE_TUPLE = Convert(dataclasses.asdict, lambda data: FiveTuple(**data))


class Connection(Record):
    """Per-flow IDS state: status, counters, history, and analyzers."""

    FIELDS = (
        Field("orig_tuple", _FIVE_TUPLE, "orig"), "start_time", "last_time",
        "state", "history", "orig_packets", "orig_bytes", "resp_packets",
        "resp_bytes", "data_seen", "closed", "weirds", "service",
        Field("orig_reasm", nested(TcpReassembler)),
        Field("resp_reasm", nested(TcpReassembler)),
        Field("http", nested(HttpAnalyzer)),
        Field("ftp", nested(FtpControlAnalyzer)),
    )

    def __init__(self, five_tuple: FiveTuple, now: float) -> None:
        #: Orientation: the originator is the side of the first packet seen.
        self.orig_tuple = five_tuple
        self.start_time = now
        self.last_time = now
        self.state = OTH
        self.history = ""
        self.orig_packets = 0
        self.orig_bytes = 0
        self.resp_packets = 0
        self.resp_bytes = 0
        self.data_seen = False
        self.closed = False
        self.weirds: List[str] = []
        if five_tuple.dst_port == 80:
            self.service = "http"
        elif five_tuple.dst_port == FTP_CONTROL_PORT:
            self.service = "ftp"
        else:
            self.service = ""
        self.orig_reasm = TcpReassembler()
        self.resp_reasm = TcpReassembler()
        self.http: Optional[HttpAnalyzer] = (
            HttpAnalyzer() if self.service == "http" else None
        )
        self.ftp: Optional[FtpControlAnalyzer] = (
            FtpControlAnalyzer() if self.service == "ftp" else None
        )
        self._rebuild()

    def _rebuild(self) -> None:
        """The state off the wire: flags, hooks and the analyzers' feeds."""
        #: Set by delPerflow so the NF does not log an error-style entry
        #: for a flow whose processing continued elsewhere (§7, Bro).
        self.moved = False
        #: ``on_weird(name, packet)``: the detector's alert hook, wired by
        #: the NF once per (new or imported) connection; not state.
        self.on_weird: Optional[Callable[[str, Packet], None]] = None
        if self.http is not None:
            self.orig_reasm.set_sink(self.http.request_data)
            self.resp_reasm.set_sink(self.http.reply_data)
        if self.ftp is not None:
            self.orig_reasm.set_sink(self.ftp.feed)

    # ------------------------------------------------------------- processing

    def on_packet(self, packet: Packet, now: float) -> None:
        """Fold one packet into the connection."""
        self.last_time = now
        five_tuple = packet.five_tuple
        orig_tuple = self.orig_tuple
        from_orig = (
            five_tuple is orig_tuple
            or five_tuple == orig_tuple
            or (
                five_tuple.src_ip == orig_tuple.src_ip
                and five_tuple.src_port == orig_tuple.src_port
            )
        )
        if from_orig:
            self.orig_packets += 1
            self.orig_bytes += packet.size_bytes
        else:
            self.resp_packets += 1
            self.resp_bytes += packet.size_bytes

        flags = packet.tcp_flags
        history = self.history
        handshake_seen = (
            "S" in history or "s" in history or "h" in history or "H" in history
        )
        if "SYN" in flags and "ACK" not in flags:
            if self.data_seen:
                self._weird("SYN_inside_connection", packet)
            else:
                self.state = S0
                self._history("S" if from_orig else "s")
        elif "SYN" in flags and "ACK" in flags:
            if self.state == S0:
                self.state = S1
            self._history("h" if from_orig else "H")
        if "RST" in flags:
            if packet.payload:
                self._weird("RST_with_data", packet)
            self.state = RST
            self.closed = True
            self._history("R" if from_orig else "r")
        elif "FIN" in flags:
            if not handshake_seen and not self.data_seen:
                self._weird("spontaneous_FIN", packet)
            self._history("F" if from_orig else "f")
            if ("F" in self.history) and ("f" in self.history):
                self.state = SF
                self.closed = True

        if packet.payload and "RST" not in flags:
            if not handshake_seen and not self.data_seen:
                self._weird("data_before_established", packet)
            self.data_seen = True
            if self.state in (S0, S1):
                self.state = EST
            self._history("D" if from_orig else "d")
            reasm = self.orig_reasm if from_orig else self.resp_reasm
            reasm.segment(packet.seq, packet.payload)

    def _weird(self, name: str, packet: Packet) -> None:
        self.weirds.append(name)
        if self.on_weird is not None:
            self.on_weird(name, packet)

    def _history(self, letter: str) -> None:
        if not self.history.endswith(letter):
            self.history += letter

    # ------------------------------------------------------------- inspection

    def has_content_gap(self) -> bool:
        """Whether either direction skipped or is stuck behind a hole."""
        return (
            self.orig_reasm.gaps > 0
            or self.resp_reasm.gaps > 0
            or self.orig_reasm.has_hole()
            or self.resp_reasm.has_hole()
        )

    def log_entry(self, finalized_at: float) -> Dict[str, Any]:
        """A conn.log record for this connection.

        ``abnormal`` marks entries Bro would log as errors: traffic that
        stopped mid-flow without a proper close (and was not moved) — the
        "incorrect entries" §8.4 counts under VM replication.
        """
        return {
            "ts": self.start_time,
            "last": self.last_time,
            "finalized": finalized_at,
            "id": str(self.orig_tuple),
            "proto": self.orig_tuple.proto_name,
            "service": self.service,
            "state": self.state,
            "history": self.history,
            "orig_bytes": self.orig_bytes,
            "resp_bytes": self.resp_bytes,
            "moved": self.moved,
            "abnormal": (not self.closed) and (not self.moved) and self.data_seen,
        }
