"""Block assembly with the paper's three cut conditions (Section IV-B).

Orderers accumulate ordered transactions into the next block and cut it when
the first of three conditions is met: the block reaches its maximal number of
transactions, its maximal serialised size, or the maximal time since the first
transaction of the block was received has elapsed.  The first two conditions
are deterministic given the transaction order; the timeout condition is made
deterministic across orderers by the primary's cut-block message, which the
consensus layer models by having every orderer cut on the agreed sequence
number.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence

from repro.common.config import BlockCutPolicy
from repro.core.block import Block
from repro.core.dependency_graph import (
    DependencyGraph,
    GraphMode,
    StreamingGraphBuilder,
    build_dependency_graph,
)
from repro.core.transaction import Transaction


class CutReason(str, Enum):
    """Which of the three conditions closed the block."""

    MAX_TRANSACTIONS = "max_transactions"
    MAX_BYTES = "max_bytes"
    TIMEOUT = "timeout"
    FORCED = "forced"


@dataclass(frozen=True)
class PendingBlock:
    """A cut block before it is sealed: transactions plus the cut reason.

    ``graph`` carries the dependency graph the orderer grew incrementally
    while the block filled (when graph generation is enabled); sealing reuses
    it instead of rebuilding from scratch.
    """

    transactions: Sequence[Transaction]
    reason: CutReason
    opened_at: float
    cut_at: float
    graph: Optional[DependencyGraph] = None

    def canonical_tuple(self) -> tuple:
        return (
            "pending_block",
            tuple(tx.digest() for tx in self.transactions),
            self.reason.value,
        )


class BlockBuilder:
    """Accumulates ordered transactions and cuts blocks deterministically."""

    def __init__(
        self,
        policy: BlockCutPolicy,
        tx_size_bytes: int = 256,
        generate_graphs: bool = True,
        graph_mode: GraphMode = GraphMode.SINGLE_VERSION,
    ) -> None:
        self.policy = policy
        self.tx_size_bytes = tx_size_bytes
        self.generate_graphs = generate_graphs
        self.graph_mode = graph_mode
        self._pending: List[Transaction] = []
        self._graph_builder: Optional[StreamingGraphBuilder] = (
            StreamingGraphBuilder(mode=graph_mode) if generate_graphs else None
        )
        self._opened_at: Optional[float] = None
        self._next_sequence = 1
        self._previous_hash = Block.genesis().digest()
        self._next_timestamp = 1
        self.blocks_cut = 0

    # ------------------------------------------------------------------ state
    @property
    def pending_count(self) -> int:
        """Number of transactions waiting in the open block."""
        return len(self._pending)

    @property
    def pending_bytes(self) -> int:
        """Serialised size of the open block."""
        return len(self._pending) * self.tx_size_bytes

    @property
    def next_sequence(self) -> int:
        """Sequence number the next cut block will receive."""
        return self._next_sequence

    def opened_at(self) -> Optional[float]:
        """Time the first transaction of the open block arrived, if any."""
        return self._opened_at

    # ------------------------------------------------------------------- adds
    def add(self, transaction: Transaction, now: float) -> Optional[PendingBlock]:
        """Append an ordered transaction; return a cut block if a limit is hit."""
        if self._opened_at is None:
            self._opened_at = now
        stamped = transaction.with_timestamp(self._next_timestamp)
        self._next_timestamp += 1
        self._pending.append(stamped)
        if self._graph_builder is not None:
            self._graph_builder.add(stamped)
        if self.pending_count >= self.policy.max_transactions:
            return self._cut(CutReason.MAX_TRANSACTIONS, now)
        if self.pending_bytes >= self.policy.max_bytes:
            return self._cut(CutReason.MAX_BYTES, now)
        return None

    def timeout_due(self, now: float) -> bool:
        """True if the open block has exceeded its maximal production time."""
        return (
            self._opened_at is not None
            and self._pending
            and now - self._opened_at >= self.policy.max_delay
        )

    def cut_on_timeout(self, now: float) -> Optional[PendingBlock]:
        """Cut the open block because the timeout condition fired."""
        if not self._pending:
            return None
        return self._cut(CutReason.TIMEOUT, now)

    def force_cut(self, now: float) -> Optional[PendingBlock]:
        """Cut whatever is pending (used at the end of an experiment)."""
        if not self._pending:
            return None
        return self._cut(CutReason.FORCED, now)

    def _cut(self, reason: CutReason, now: float) -> PendingBlock:
        graph: Optional[DependencyGraph] = None
        if self._graph_builder is not None:
            graph = self._graph_builder.take_graph()
        pending = PendingBlock(
            transactions=tuple(self._pending),
            reason=reason,
            opened_at=self._opened_at if self._opened_at is not None else now,
            cut_at=now,
            graph=graph,
        )
        self._pending = []
        self._opened_at = None
        self.blocks_cut += 1
        return pending

    # ---------------------------------------------------------------- sealing
    def seal(self, pending: PendingBlock, now: float) -> Block:
        """Turn a cut block into a sealed, hash-chained :class:`Block`.

        When ``generate_graphs`` is set (the OXII paradigm) the dependency
        graph the orderer grew while the block filled is attached here; a
        foreign :class:`PendingBlock` without one falls back to a batch
        rebuild.  (The *simulated* cost charged for this step stays quadratic
        — see :meth:`repro.common.config.CostModel.dependency_graph_cost` —
        which is what shapes Figure 5.)
        """
        graph = None
        if self.generate_graphs:
            graph = pending.graph
            if graph is None or graph.mode is not self.graph_mode:
                graph = build_dependency_graph(pending.transactions, mode=self.graph_mode)
        block = Block.create(
            sequence=self._next_sequence,
            transactions=pending.transactions,
            previous_hash=self._previous_hash,
            created_at=now,
            dependency_graph=graph,
        )
        self._next_sequence += 1
        self._previous_hash = block.digest()
        return block
