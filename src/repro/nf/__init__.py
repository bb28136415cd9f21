"""NF framework: state taxonomy, southbound API and events.

This package is the southbound half of OpenNF (§4 of the paper): the
:class:`~repro.nf.base.NetworkFunction` base class NFs extend, the
:class:`~repro.nf.southbound.NFClient` the controller uses to reach them,
and the event machinery. The per-NF timing models live in
:mod:`repro.costs`.
"""

from repro.nf.base import NetworkFunction, NFCrash
from repro.nf.conformance import ConformanceReport, check_nf_conformance
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
    "DO_NOT_BUFFER",
    "DO_NOT_DROP",
    "EVERYTHING",
    "EventAction",
    "EventRule",
    "MULTI",
    "NFClient",
    "NFCrash",
    "NetworkFunction",
    "PER",
    "PER_AND_MULTI",
    "PacketEvent",
    "Scope",
    "StateChunk",
    "normalize_scope",
]
