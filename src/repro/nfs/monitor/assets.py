"""Asset records for the PRADS-like monitor.

PRADS passively identifies hosts and the services they run. An
:class:`AssetRecord` is the multi-flow state for one host: every flow
touching that host updates it, so when flows for the same host are
balanced across monitor instances, both need (a copy of) the record —
exactly the situation §2.1 and §5.2 of the paper discuss.
"""

from __future__ import annotations

from typing import List

from repro.nf.record import Record, earliest, first_non_empty, keep, latest, union

#: Payload prefixes used for rudimentary passive service fingerprinting.
_SERVICE_SIGNATURES = (
    ("HTTP/", "http-server"),
    ("GET ", "http-client"),
    ("POST ", "http-client"),
    ("SSH-", "ssh"),
    ("220 ", "smtp"),
    ("EHLO", "smtp-client"),
)
#: Every signature prefix, so a payload none of them starts (nearly all
#: data packets) is rejected by one ``str.startswith`` call.
_SIGNATURE_PREFIXES = tuple(prefix for prefix, _ in _SERVICE_SIGNATURES)


def sniff_service(payload: str) -> str:
    """Guess a service from the start of a payload ('' if unknown)."""
    if not payload or not payload.startswith(_SIGNATURE_PREFIXES):
        return ""
    for prefix, service in _SERVICE_SIGNATURES:
        if payload.startswith(prefix):
            return service
    return ""


class AssetRecord(Record):
    """Everything the monitor has learned about one host."""

    __slots__ = FIELDS = ("ip", "first_seen", "last_seen", "services",
                          "connections", "os_guess")
    #: Idempotent under the repeated re-copying of eventual consistency
    #: (Fig. 8): the connection count takes the max, not the sum.
    MERGE = dict(ip=keep, first_seen=earliest, last_seen=latest,
                 services=union, connections=max, os_guess=first_non_empty)

    def __init__(self, ip: str, now: float) -> None:
        self.ip = ip
        self.first_seen = now
        self.last_seen = now
        self.services: List[str] = []
        self.connections = 0
        self.os_guess = ""

    def observe(self, now: float, service: str = "", new_connection: bool = False):
        """Fold one packet observation into the record."""
        if now > self.last_seen:
            self.last_seen = now
        if service and service not in self.services:
            self.services.append(service)
            self.services.sort()
        if new_connection:
            self.connections += 1
