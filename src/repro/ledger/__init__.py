"""The blockchain ledger and state substrate.

Each executor peer maintains three components (Section III-B of the paper):
the append-only hash-chained ledger, the blockchain state (datastore) and its
smart contracts.  This package provides the first two:

* :class:`~repro.ledger.ledger.Ledger` — the append-only chain of blocks with
  hash-link verification.
* :class:`~repro.ledger.state.WorldState` — a versioned key-value datastore
  (the single-version store the default dependency-graph rules target).
"""

from repro.ledger.ledger import Ledger
from repro.ledger.state import StateSnapshot, VersionedValue, WorldState

__all__ = [
    "Ledger",
    "StateSnapshot",
    "VersionedValue",
    "WorldState",
]
