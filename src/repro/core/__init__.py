"""The paper's primary contribution: dependency-graph based transaction parallelism.

This package contains everything that is specific to the OXII paradigm's core
idea, independent of any particular deployment:

* :class:`~repro.core.transaction.Transaction` — a request with pre-declared
  read and write sets and a total-order timestamp.
* :class:`~repro.core.dependency_graph.DependencyGraph` — the partial order
  over a block's transactions induced by ordering dependencies (Section III-A),
  including the multi-version (MVCC) variant.
* :class:`~repro.core.block.Block` and
  :class:`~repro.core.block_builder.BlockBuilder` — blocks with the three
  block-cut conditions of Section IV-B.
* :mod:`~repro.core.execution` — Algorithms 1–3: dependency-graph-driven
  execution scheduling, commit-message batching on cross-application cut
  edges, and the τ(A)-matching state update rule.
"""

from repro.core.transaction import ReadWriteSet, Transaction, TransactionResult
from repro.core.dependency_graph import (
    ConflictType,
    DependencyEdge,
    DependencyGraph,
    GraphMode,
    StreamingGraphBuilder,
    build_dependency_graph,
    conflicts,
    has_ordering_dependency,
)
from repro.core.graph_core import AdjacencyDAG, UnionFind
from repro.core.block import Block, BlockHeader
from repro.core.block_builder import BlockBuilder, CutReason
from repro.core.execution import (
    CommitBatcher,
    CountdownScheduler,
    ExecutionEngine,
    GraphScheduler,
    StateUpdater,
)

__all__ = [
    "AdjacencyDAG",
    "Block",
    "BlockBuilder",
    "BlockHeader",
    "CommitBatcher",
    "ConflictType",
    "CountdownScheduler",
    "CutReason",
    "DependencyEdge",
    "DependencyGraph",
    "ExecutionEngine",
    "GraphMode",
    "GraphScheduler",
    "ReadWriteSet",
    "StateUpdater",
    "StreamingGraphBuilder",
    "Transaction",
    "TransactionResult",
    "UnionFind",
    "build_dependency_graph",
    "conflicts",
    "has_ordering_dependency",
]
