"""The Bro-like intrusion detection system.

State inventory (Figure 1 / §7 of the paper):

* **per-flow** — :class:`~repro.nfs.ids.connection.Connection` objects,
  each dragging along its analyzer graph (TCP reassemblers, HTTP
  analyzer with partially reassembled payloads);
* **multi-flow** — per-source-host :class:`~repro.nfs.ids.scan.ScanRecord`
  connection counters;
* **all-flows** — global packet statistics.

Detections (alerts accumulate in :attr:`alerts`):

* ``malware`` — md5 of a completed HTTP reply body matches the
  signature database (skipped when the stream had a content gap: the
  md5 would be incorrect, so the attack is *missed* — the paper's
  motivating failure under lossy moves);
* ``port_scan`` — a host's distinct-target count crosses the threshold;
* ``outdated_browser`` — an HTTP request with an ancient User-Agent;
* ``weird:SYN_inside_connection`` — handshake packets processed after
  connection data (the false alarm caused by re-ordering).

``delPerflow`` sets each connection's ``moved`` flag before removal, so
finalization does not log the spurious "abruptly terminated" entries
that §8.4 counts against VM replication.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.costs import BRO_COSTS, NFCostModel
from repro.flowspace.filter import FlowId
from repro.flowspace.index import FlowKeyedStore
from repro.nf.base import NetworkFunction
from repro.nf.state import ADD, HOST_FIELDS, MERGE, POP, REPLACE, Scope, StateSpec
from repro.net.packet import Packet
from repro.nfs.ids.connection import Connection
from repro.nfs.ids.ftp import FTP_DATA_PORT, FtpExpectation
from repro.nfs.ids.scan import DEFAULT_SCAN_THRESHOLD, ScanRecord
from repro.nfs.ids.signatures import SignatureDB, is_outdated_browser
from repro.sim.core import Simulator


class Alert:
    """One detection event."""

    __slots__ = ("time", "kind", "subject", "detail", "flow")

    def __init__(
        self, time: float, kind: str, subject: str, detail: str = "", flow=None
    ):
        self.time = time
        self.kind = kind
        self.subject = subject
        self.detail = detail
        #: FiveTuple of the triggering connection, when one exists.
        self.flow = flow

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Alert %.1f %s %s %s>" % (self.time, self.kind, self.subject,
                                          self.detail)


class IntrusionDetector(NetworkFunction):
    """The Bro-like NF."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        signatures: Optional[SignatureDB] = None,
        scan_threshold: int = DEFAULT_SCAN_THRESHOLD,
        detect_malware: bool = True,
        costs: Optional[NFCostModel] = None,
    ) -> None:
        super().__init__(sim, name, costs or BRO_COSTS)
        self.signatures = signatures or SignatureDB()
        self.scan_threshold = scan_threshold
        #: Figure 7: only the cloud instances run the malware analysis.
        self.detect_malware = detect_malware
        self.conns: FlowKeyedStore = FlowKeyedStore()
        self.scans: FlowKeyedStore = FlowKeyedStore()
        #: Multi-flow FTP expectations, keyed by host pair.
        self.ftp_expectations: FlowKeyedStore = FlowKeyedStore()
        self.stats: Dict[str, int] = {"packets": 0, "bytes": 0, "flows": 0}
        self.alerts: List[Alert] = []
        self.conn_log: List[Dict[str, Any]] = []

    # ------------------------------------------------------------- processing

    def process_packet(self, packet: Packet) -> None:
        now = self.sim.now
        self.stats["packets"] += 1
        self.stats["bytes"] += packet.size_bytes

        conn_id = FlowId.for_flow(packet.five_tuple.canonical())
        conn = self.conns.get(conn_id)
        if conn is None:
            conn = Connection(packet.five_tuple, now)
            self._wire_analyzers(conn)
            self.conns[conn_id] = conn
            self.stats["flows"] += 1
        if packet.is_syn():
            self._scan_attempt(packet, now)
            self._ftp_data_check(packet, conn)
        conn.on_packet(packet, now)
        if conn.closed:
            self._finalize_conn(conn_id, conn)

    def _scan_attempt(self, packet: Packet, now: float) -> None:
        """Count a SYN towards its source's scan record."""
        source = packet.five_tuple.src_ip
        record_id = FlowId.for_host(source)
        record = self.scans.get(record_id)
        if record is None:
            record = ScanRecord(source, now)
            self.scans[record_id] = record
        record.attempt(packet.five_tuple.dst_ip, packet.five_tuple.dst_port, now)
        if record.should_alert(self.scan_threshold):
            record.alerted = True
            self._alert("port_scan", source, "%d targets" % record.attempt_count)

    @staticmethod
    def _pair_id(client_ip: str, server_ip: str) -> FlowId:
        return FlowId({"nw_src": client_ip, "nw_dst": server_ip},
                      symmetric=True)

    def _ftp_data_check(self, packet: Packet, conn: Connection) -> None:
        """A data-connection SYN must follow its RETR (§5.1.2's example)."""
        ft = packet.five_tuple
        if FTP_DATA_PORT not in (ft.src_port, ft.dst_port):
            return
        client = ft.dst_ip if ft.src_port == FTP_DATA_PORT else ft.src_ip
        server = ft.src_ip if ft.src_port == FTP_DATA_PORT else ft.dst_ip
        record = self.ftp_expectations.get(self._pair_id(client, server))
        if record is not None and record.consume() is not None:
            conn.service = "ftp-data"
            return
        self._alert("weird:ftp_data_without_command", str(ft), flow=ft)

    def _on_retr(self, conn: Connection, filename: str) -> None:
        client = conn.orig_tuple.src_ip
        server = conn.orig_tuple.dst_ip
        pair = self._pair_id(client, server)
        record = self.ftp_expectations.get(pair)
        if record is None:
            record = FtpExpectation(client, server, self.sim.now)
            self.ftp_expectations[pair] = record
        record.expect(filename)

    def _wire_analyzers(self, conn: Connection) -> None:
        """Attach detection callbacks to a (new or imported) connection."""
        conn.on_weird = self._weird_alert
        if conn.ftp is not None:
            conn.ftp.on_retr = lambda filename: self._on_retr(conn, filename)
        if conn.http is None:
            return

        def on_request(request) -> None:
            if is_outdated_browser(request.user_agent):
                self._alert(
                    "outdated_browser",
                    conn.orig_tuple.src_ip,
                    request.user_agent,
                    flow=conn.orig_tuple,
                )

        conn.http.on_request = on_request
        conn.http.on_body = self._make_body_checker(conn)

    def _make_body_checker(self, conn: Connection):
        def check(digest: str, size: int) -> None:
            if not self.detect_malware:
                return
            if conn.has_content_gap():
                # The md5 is computed over an incomplete stream; Bro's
                # malware script would produce a wrong digest — no alert.
                return
            if self.signatures.matches(digest):
                self._alert(
                    "malware", str(conn.orig_tuple), digest, flow=conn.orig_tuple
                )

        return check

    def _weird_alert(self, name: str, packet: Packet) -> None:
        # Named after the packet's direction, not the connection's.
        five_tuple = packet.five_tuple
        self._alert("weird:%s" % name, str(five_tuple), flow=five_tuple)

    def _alert(self, kind: str, subject: str, detail: str = "", flow=None) -> None:
        self.alerts.append(Alert(self.sim.now, kind, subject, detail, flow=flow))

    def _finalize_conn(self, conn_id: FlowId, conn: Connection) -> None:
        self.conn_log.append(conn.log_entry(self.sim.now))
        del self.conns[conn_id]

    def finalize_logs(self) -> None:
        """Flush still-open connections to conn.log (end of run / shutdown)."""
        for conn_id in list(self.conns):
            self._finalize_conn(conn_id, self.conns[conn_id])

    # ------------------------------------------------------------ state export

    def _import_conn(self, spec, chunk):
        conn = REPLACE(self, spec, chunk)
        self._wire_analyzers(conn)
        return conn

    def _delete_conn(self, spec, flowid):
        conn = POP(self, spec, flowid)
        if conn is not None:
            conn.moved = True  # suppress the abnormal-termination entry
        return conn

    def _merge_scan(self, spec, chunk):
        # FTP expectations share the scope; each record carries its kind.
        if chunk.data["kind"] == ScanRecord.kind:
            return MERGE(self, spec, chunk)
        return None

    STATE = {
        Scope.PERFLOW: StateSpec("conns", Connection, _import_conn,
                                 on_delete=_delete_conn),
        Scope.MULTIFLOW: (
            StateSpec("scans", ScanRecord, _merge_scan, HOST_FIELDS),
            StateSpec("ftp_expectations", FtpExpectation, MERGE, HOST_FIELDS),
        ),
        Scope.ALLFLOWS: StateSpec("stats", on_import=ADD),
    }

    # --------------------------------------------------------------- inspection

    def conn_count(self) -> int:
        return len(self.conns)

    def alerts_of(self, kind: str) -> List[Alert]:
        return [alert for alert in self.alerts if alert.kind == kind]

    def incorrect_log_entries(self) -> List[Dict[str, Any]]:
        """conn.log records Bro would have logged erroneously (§8.4)."""
        return [entry for entry in self.conn_log if entry["abnormal"]]
