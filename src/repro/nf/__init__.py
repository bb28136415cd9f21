"""NF framework: state taxonomy, southbound API, events, and cost models.

This package is the southbound half of OpenNF (§4 of the paper): the
:class:`~repro.nf.base.NetworkFunction` base class NFs extend, the
:class:`~repro.nf.southbound.NFClient` the controller uses to reach them,
the event machinery, and per-NF timing models calibrated to the paper's
measurements.
"""

from repro.nf.base import NetworkFunction, NFCrash
from repro.nf.conformance import ConformanceReport, check_nf_conformance
from repro.nf.costs import (
    BRO_COSTS,
    DUMMY_COSTS,
    IPTABLES_COSTS,
    NFCostModel,
    PRADS_COSTS,
    REDUP_COSTS,
    SQUID_COSTS,
)
from repro.nf.events import (
    DO_NOT_BUFFER,
    DO_NOT_DROP,
    EventAction,
    EventRule,
    PacketEvent,
)
from repro.nf.southbound import NFClient
from repro.nf.state import (
    ALL,
    EVERYTHING,
    MULTI,
    PER,
    PER_AND_MULTI,
    Scope,
    StateChunk,
    normalize_scope,
)

__all__ = [
    "ALL",
    "ConformanceReport",
    "check_nf_conformance",
    "BRO_COSTS",
    "DO_NOT_BUFFER",
    "DO_NOT_DROP",
    "DUMMY_COSTS",
    "EVERYTHING",
    "EventAction",
    "EventRule",
    "IPTABLES_COSTS",
    "MULTI",
    "NFClient",
    "NFCostModel",
    "NFCrash",
    "NetworkFunction",
    "PER",
    "PER_AND_MULTI",
    "PRADS_COSTS",
    "PacketEvent",
    "REDUP_COSTS",
    "SQUID_COSTS",
    "Scope",
    "StateChunk",
    "normalize_scope",
]
