"""Seeded random-number helpers.

Every stochastic component in the reproduction (link jitter, trace
generation, flow sizes) draws from an explicitly seeded
:class:`random.Random` so that experiments are reproducible. This module
provides a tiny factory that derives independent streams from a root seed,
so e.g. the traffic generator and the link jitter model never share a
stream (adding a component cannot perturb another component's draws).
"""

from __future__ import annotations

import random
import zlib


def derive_rng(root_seed: int, stream_name: str) -> random.Random:
    """Return an independent :class:`random.Random` for ``stream_name``.

    The stream seed is derived by hashing the stream name with CRC32 and
    mixing it into the root seed, which is stable across Python versions
    (unlike ``hash()``).
    """
    mixed = (root_seed * 2654435761 + zlib.crc32(stream_name.encode("utf-8"))) % (
        2**63
    )
    return random.Random(mixed)

