"""Network substrate: packets, links, the SDN switch, and control channels."""

from repro.net.channel import ControlChannel
from repro.net.flowtable import (
    HIGH_PRIORITY,
    LOW_PRIORITY,
    MID_PRIORITY,
    FlowEntry,
    FlowTable,
)
from repro.net.link import Link
from repro.net.packet import HEADER_OVERHEAD_BYTES, Packet, reset_uid_counter
from repro.net.switch import CONTROLLER_PORT, Switch, TableFullError

__all__ = [
    "CONTROLLER_PORT",
    "ControlChannel",
    "FlowEntry",
    "FlowTable",
    "HEADER_OVERHEAD_BYTES",
    "HIGH_PRIORITY",
    "LOW_PRIORITY",
    "Link",
    "MID_PRIORITY",
    "Packet",
    "Switch",
    "TableFullError",
    "reset_uid_counter",
]
