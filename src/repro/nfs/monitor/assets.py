"""Asset records for the PRADS-like monitor.

PRADS passively identifies hosts and the services they run. An
:class:`AssetRecord` is the multi-flow state for one host: every flow
touching that host updates it, so when flows for the same host are
balanced across monitor instances, both need (a copy of) the record —
exactly the situation §2.1 and §5.2 of the paper discuss.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.nf import merge

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


class AssetRecord:
    """Everything the monitor has learned about one host."""

    __slots__ = ("ip", "first_seen", "last_seen", "services", "connections",
                 "os_guess")

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

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ip": self.ip,
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
            "services": list(self.services),
            "connections": self.connections,
            "os_guess": self.os_guess,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AssetRecord":
        record = cls(data["ip"], data["first_seen"])
        record.last_seen = data["last_seen"]
        record.services = sorted(data.get("services", []))
        record.connections = data.get("connections", 0)
        record.os_guess = data.get("os_guess", "")
        return record

    def merge_from(self, data: Dict[str, Any]) -> None:
        """Combine an incoming serialized record into this one (§4.2 merge).

        Timestamps take earliest/latest, services take the union, and the
        connection count takes the max — idempotent under the repeated
        re-copying the eventual-consistency pattern performs (Fig. 8).
        """
        self.first_seen = merge.earliest(self.first_seen, data["first_seen"])
        self.last_seen = merge.latest(self.last_seen, data["last_seen"])
        self.services = merge.union(self.services, data.get("services", []))
        self.connections = max(self.connections, data.get("connections", 0))
        if not self.os_guess:
            self.os_guess = data.get("os_guess", "")
