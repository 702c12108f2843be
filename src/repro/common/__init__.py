"""Shared low-level utilities used by every ParBlockchain subsystem.

This package intentionally has no dependencies on the rest of the library so
that any subsystem (simulation, network, consensus, ledger, ...) can import it
without creating cycles.
"""

from repro.common.errors import (
    ConfigurationError,
    DependencyGraphError,
    LedgerError,
    ParBlockchainError,
    ProtocolError,
    SignatureError,
    TransactionError,
)
from repro.common.identifiers import (
    ApplicationId,
    BlockId,
    NodeId,
    TransactionId,
)
from repro.common.config import (
    CostModel,
    SystemConfig,
)

__all__ = [
    "ApplicationId",
    "BlockId",
    "ConfigurationError",
    "CostModel",
    "DependencyGraphError",
    "LedgerError",
    "NodeId",
    "ParBlockchainError",
    "ProtocolError",
    "SignatureError",
    "SystemConfig",
    "TransactionError",
    "TransactionId",
]
