"""Detection policy: malware signatures and browser classification.

Stands in for Bro's policy scripts: an md5 signature database for the
malware-in-HTTP-replies detector (§6's cloud instances) and a
User-Agent classifier for the outdated-browser detector (Figure 7's
local instances). Both are *configuration* state — read but never
updated by the NF — which §4.1 (footnote) excludes from state
transfer, so they live outside the state taxonomy.
"""

from __future__ import annotations

from typing import Iterable, Set

#: User-Agent substrings considered outdated (ancient IE, Netscape, etc.).
OUTDATED_MARKERS = ("MSIE 6", "MSIE 5", "Netscape/4", "Firefox/2.")


class SignatureDB:
    """A set of known-malicious md5 digests."""

    def __init__(self, digests: Iterable[str] = ()) -> None:
        self._digests: Set[str] = {d.lower() for d in digests}

    def matches(self, digest: str) -> bool:
        """Whether ``digest`` identifies known malware."""
        return digest.lower() in self._digests

    def __len__(self) -> int:
        return len(self._digests)


def is_outdated_browser(user_agent: str) -> bool:
    """Whether the User-Agent belongs to an outdated browser."""
    return any(marker in user_agent for marker in OUTDATED_MARKERS)
