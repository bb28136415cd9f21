"""The OpenNF controller: northbound API and its operations."""

from repro.controller.chain import Chain, ChainOperation, ChainSpec
from repro.controller.controller import OpenNFController
from repro.controller.copy import CopyOperation
from repro.controller.forwarding import SwitchClient
from repro.controller.move import Guarantee, MoveOperation
from repro.controller.operation import (
    DeferredOperation,
    Operation,
    OperationAborted,
)
from repro.controller.pipeline import WindowedPutPipeline
from repro.controller.reports import OperationReport
from repro.controller.share import ShareOperation
from repro.controller.sharding import CrossShardOperation, ShardMap

__all__ = [
    "Chain",
    "ChainOperation",
    "ChainSpec",
    "CopyOperation",
    "CrossShardOperation",
    "DeferredOperation",
    "Guarantee",
    "MoveOperation",
    "OpenNFController",
    "Operation",
    "OperationAborted",
    "OperationReport",
    "ShardMap",
    "ShareOperation",
    "SwitchClient",
    "WindowedPutPipeline",
]
