"""FTP control-channel analysis: the §5.1.2 cross-flow ordering witness.

The paper's order-preserving property spans flows "for moves including
multi-flow state (e.g. process an FTP get command before the SYN for
the new transfer connection)". The IDS models exactly that: the
control connection's ``RETR`` command registers an *expected data
connection* — multi-flow state keyed by the host pair — and a data-
connection SYN either consumes a pending expectation or raises the
``ftp_data_without_command`` weird. Re-ordering the command and the
SYN across a state move produces the false alarm; an order-preserving
move (with the multi-flow expectations moved alongside) does not.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.nf.record import Record, Tag, earliest, keep, ordered_union

FTP_CONTROL_PORT = 21
FTP_DATA_PORT = 20


class FtpControlAnalyzer(Record):
    """Incremental parser for one FTP control connection (client side)."""

    FIELDS = ("_buffer", "commands", "retrievals")

    def __init__(
        self, on_retr: Optional[Callable[[str], None]] = None
    ) -> None:
        self.on_retr = on_retr
        self._buffer = ""
        self.commands: List[str] = []
        self.retrievals: List[str] = []

    def feed(self, data: str) -> None:
        """Consume reassembled client-side bytes."""
        self._buffer += data
        while "\r\n" in self._buffer:
            line, self._buffer = self._buffer.split("\r\n", 1)
            line = line.strip()
            if not line:
                continue
            self.commands.append(line)
            verb, _, argument = line.partition(" ")
            if verb.upper() == "RETR":
                self.retrievals.append(argument)
                if self.on_retr is not None:
                    self.on_retr(argument)

    def _rebuild(self) -> None:
        self.on_retr = None


class FtpExpectation(Record):
    """Multi-flow state: pending data connections for one host pair."""

    __slots__ = ("client_ip", "server_ip", "pending", "consumed", "created_at")
    FIELDS = (Tag("kind", "ftp"),) + __slots__
    #: Pending files take the union (idempotent), the counter the max.
    MERGE = dict(client_ip=keep, server_ip=keep, pending=ordered_union,
                 consumed=max, created_at=earliest)

    def __init__(self, client_ip: str, server_ip: str, now: float) -> None:
        self.client_ip = client_ip
        self.server_ip = server_ip
        #: Filenames whose data connections have not yet appeared.
        self.pending: List[str] = []
        self.consumed = 0
        self.created_at = now

    def expect(self, filename: str) -> None:
        self.pending.append(filename)

    def consume(self) -> Optional[str]:
        """A data connection appeared; pop its expectation (FIFO)."""
        if not self.pending:
            return None
        self.consumed += 1
        return self.pending.pop(0)
