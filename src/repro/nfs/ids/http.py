"""HTTP protocol analysis over the reassembled streams.

Parses requests from the originator direction (method, URL, Host,
User-Agent) and replies from the responder direction (status line,
Content-Length, then exactly that many body bytes). The accumulated
body is retained in the analyzer state — these "partially reassembled
HTTP payloads" are what make Bro's per-flow chunks bulky (Figure 1 of
the paper) — and is hashed when complete for malware matching.
"""

from __future__ import annotations

import hashlib
from typing import Callable, List, Optional

from repro.nf.record import Field, Record, nested_list

_HEADER_END = "\r\n\r\n"


class HttpRequest(Record):
    """One parsed client request."""

    __slots__ = FIELDS = ("method", "url", "host", "user_agent")

    def __init__(self, method: str, url: str, host: str, user_agent: str) -> None:
        self.method = method
        self.url = url
        self.host = host
        self.user_agent = user_agent


class HttpAnalyzer(Record):
    """Incremental request/reply parser for one connection.

    ``on_request(request)`` fires when a request's headers complete;
    ``on_body(md5_hex, size)`` fires when a reply body completes.
    """

    FIELDS = ("_req_buffer", Field("requests", nested_list(HttpRequest)),
              "_resp_buffer", "_awaiting_body", "_content_length", "_body",
              "replies_completed", "status_codes")

    def __init__(
        self,
        on_request: Optional[Callable[[HttpRequest], None]] = None,
        on_body: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        self.on_request = on_request
        self.on_body = on_body
        # Request-direction parser state.
        self._req_buffer = ""
        self.requests: List[HttpRequest] = []
        # Reply-direction parser state.
        self._resp_buffer = ""
        self._awaiting_body = False
        self._content_length = 0
        self._body = ""
        self.replies_completed = 0
        self.status_codes: List[int] = []

    # ------------------------------------------------------------ stream input

    def request_data(self, data: str) -> None:
        """Bytes from the originator (client) direction."""
        self._req_buffer += data
        while _HEADER_END in self._req_buffer:
            head, self._req_buffer = self._req_buffer.split(_HEADER_END, 1)
            request = self._parse_request(head)
            if request is not None:
                self.requests.append(request)
                if self.on_request is not None:
                    self.on_request(request)

    def reply_data(self, data: str) -> None:
        """Bytes from the responder (server) direction."""
        self._resp_buffer += data
        progressed = True
        while progressed:
            progressed = False
            if not self._awaiting_body and _HEADER_END in self._resp_buffer:
                head, self._resp_buffer = self._resp_buffer.split(_HEADER_END, 1)
                self._parse_reply_head(head)
                progressed = True
            if self._awaiting_body and len(self._resp_buffer) >= max(
                self._content_length - len(self._body), 0
            ):
                needed = self._content_length - len(self._body)
                self._body += self._resp_buffer[:needed]
                self._resp_buffer = self._resp_buffer[needed:]
                self._finish_body()
                progressed = True

    # ---------------------------------------------------------------- internals

    @staticmethod
    def _parse_request(head: str) -> Optional[HttpRequest]:
        lines = head.split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) < 3 or not parts[2].startswith("HTTP/"):
            return None
        headers = {}
        for line in lines[1:]:
            if ": " in line:
                key, value = line.split(": ", 1)
                headers[key.lower()] = value
        return HttpRequest(
            parts[0], parts[1], headers.get("host", ""), headers.get("user-agent", "")
        )

    def _parse_reply_head(self, head: str) -> None:
        lines = head.split("\r\n")
        parts = lines[0].split(" ")
        status = 0
        if len(parts) >= 2 and parts[0].startswith("HTTP/"):
            try:
                status = int(parts[1])
            except ValueError:
                status = 0
        self.status_codes.append(status)
        length = 0
        for line in lines[1:]:
            if line.lower().startswith("content-length: "):
                try:
                    length = int(line.split(": ", 1)[1])
                except ValueError:
                    length = 0
        self._content_length = length
        self._body = ""
        self._awaiting_body = True
        if length == 0:
            self._finish_body()

    def _finish_body(self) -> None:
        digest = hashlib.md5(self._body.encode("utf-8")).hexdigest()
        size = len(self._body)
        self.replies_completed += 1
        self._awaiting_body = False
        body_callback = self.on_body
        self._body = ""
        if body_callback is not None:
            body_callback(digest, size)

    def _rebuild(self) -> None:
        self.on_request = self.on_body = None
