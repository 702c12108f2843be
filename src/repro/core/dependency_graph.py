"""Dependency graph construction (Section III-A of the paper).

Two transactions conflict if they access the same record and at least one of
the accesses is a write.  Given a block ``[T1 .. Tn]`` ordered by timestamp,
an *ordering dependency* ``Ti ~> Tj`` exists iff ``ts(Ti) < ts(Tj)`` and the
transactions conflict.  The dependency graph of a block is the directed graph
whose nodes are the block's transactions and whose edges are the ordering
dependencies.  Because every edge points from an earlier to a later
transaction, the graph is acyclic by construction.

Two datastore semantics are provided, both discussed in the paper:

* ``single_version`` (default) — the definition above: read-write,
  write-read and write-write conflicts all order transactions.
* ``multi_version`` — for an MVCC datastore, writes create new versions, so
  write-write pairs and read-then-write pairs need no edge; only
  write-then-read pairs (the reader needs the writer's version) are ordered.

Single-version graphs are built *sparse*: per record only the current
frontier (the last writer, or the readers seen since it) is linked, so a
block has O(accesses) edges instead of one per conflicting pair, with the
same transitive closure and hence the same execution waves (see
:class:`StreamingGraphBuilder`).

The graphs are backed by the dense integer-indexed adjacency core in
:mod:`repro.core.graph_core` — nodes are block positions, edges are plain
Python lists and every structural query (roots, components, critical path,
topological order) runs on arrays rather than dict-of-dict storage.  Orderers
that fill a block transaction-by-transaction should use
:class:`StreamingGraphBuilder`, which maintains per-record indices so each
arriving transaction only pays for the records it touches instead of
rebuilding the graph from scratch.  ``networkx`` is *not* required at
runtime; :meth:`DependencyGraph.to_networkx` imports it lazily for
debugging/plotting only (install the ``debug`` extra).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.common.errors import DependencyGraphError
from repro.core._accel import np as _np
from repro.core.graph_core import AdjacencyDAG, depth_histogram
from repro.core.transaction import Transaction


class ConflictType(str, Enum):
    """Why two transactions are ordered."""

    READ_WRITE = "rw"    # earlier reads a record the later writes
    WRITE_READ = "wr"    # earlier writes a record the later reads
    WRITE_WRITE = "ww"   # both write the same record


class GraphMode(str, Enum):
    """Which datastore semantics the graph is generated for."""

    SINGLE_VERSION = "single_version"
    MULTI_VERSION = "multi_version"


# Conflict kinds as bit flags for the hot construction path; tuples of
# ConflictType are only materialised when edges are inspected.
_RW = 1
_WR = 2
_WW = 4
_MASK_TO_KINDS: Tuple[Tuple[ConflictType, ...], ...] = tuple(
    tuple(
        kind
        for kind, flag in (
            (ConflictType.READ_WRITE, _RW),
            (ConflictType.WRITE_READ, _WR),
            (ConflictType.WRITE_WRITE, _WW),
        )
        if mask & flag
    )
    for mask in range(8)
)


def conflicts(earlier: Transaction, later: Transaction) -> List[ConflictType]:
    """Return every conflict type between an earlier and a later transaction."""
    found: List[ConflictType] = []
    if earlier.read_set & later.write_set:
        found.append(ConflictType.READ_WRITE)
    if earlier.write_set & later.read_set:
        found.append(ConflictType.WRITE_READ)
    if earlier.write_set & later.write_set:
        found.append(ConflictType.WRITE_WRITE)
    return found


def has_ordering_dependency(
    earlier: Transaction, later: Transaction, mode: GraphMode = GraphMode.SINGLE_VERSION
) -> bool:
    """True iff ``earlier ~> later`` under the chosen datastore semantics."""
    if earlier.timestamp >= later.timestamp:
        return False
    kinds = conflicts(earlier, later)
    if not kinds:
        return False
    if mode is GraphMode.SINGLE_VERSION:
        return True
    # Multi-version: only write-then-read forces an ordering — concurrent
    # writes create distinct versions and a read before a later write can be
    # served from the older version.
    return ConflictType.WRITE_READ in kinds


@dataclass(frozen=True)
class DependencyEdge:
    """A directed ordering dependency with the conflict kinds that caused it."""

    source: str
    target: str
    kinds: Tuple[ConflictType, ...]

    def canonical_tuple(self) -> tuple:
        return ("edge", self.source, self.target, tuple(k.value for k in self.kinds))


class DependencyGraph:
    """The dependency graph of one block.

    Nodes are transaction ids; each node stores its :class:`Transaction`.
    The class exposes the notation of the paper — ``pre(x)`` and ``suc(x)`` —
    plus the structural queries the execution engine, the commit batcher and
    the benchmarks need (components, critical path, chain detection).

    Internally transactions are indexed ``0 .. n-1`` in block (timestamp)
    order and edges live in adjacency lists; every edge points from a lower
    to a higher index, so the graph is acyclic by construction and block
    order is a valid topological order.  The graph is immutable once built,
    which lets structural results (critical-path depths, predecessor sets)
    be computed once and cached.
    """

    def __init__(
        self,
        transactions: Sequence[Transaction],
        incoming: Sequence[Iterable[int]],
        mode: GraphMode = GraphMode.SINGLE_VERSION,
        index: Optional[Dict[str, int]] = None,
    ) -> None:
        """Wrap block-ordered ``transactions`` and their predecessor indices.

        ``incoming[v]`` holds the block positions of ``v``'s predecessors,
        each smaller than ``v``.  ``index`` (tx id → position) may be handed
        over by a builder that already maintains it; otherwise it is built
        here and duplicate ids are rejected.
        """
        self._mode = mode
        self._txs = list(transactions)
        self._ids: List[str] = [tx.tx_id for tx in self._txs]
        if index is None:
            index = {tx_id: i for i, tx_id in enumerate(self._ids)}
            if len(index) != len(self._ids):
                seen: Set[str] = set()
                for tx_id in self._ids:
                    if tx_id in seen:
                        raise DependencyGraphError(f"duplicate transaction id {tx_id!r}")
                    seen.add(tx_id)
        self._index = index
        if len(incoming) != len(self._ids):
            raise DependencyGraphError(
                f"{len(incoming)} predecessor lists for {len(self._ids)} transactions"
            )
        try:
            self._dag = AdjacencyDAG.from_incoming(incoming)
        except ValueError as exc:
            raise DependencyGraphError(str(exc)) from None
        # Lazily computed caches (the graph is immutable after construction).
        self._depths: Optional[List[int]] = None
        self._edge_cache: Optional[List[DependencyEdge]] = None
        self._pred_sets: List[Optional[FrozenSet[str]]] = [None] * len(self._ids)
        self._succ_sets: List[Optional[FrozenSet[str]]] = [None] * len(self._ids)
        self._cross_app_succ: Optional[Tuple[bool, ...]] = None

    def _mask_for(self, u: int, v: int) -> int:
        """The conflict kinds of the edge ``u -> v``, recomputed from the
        read/write sets (construction does not store them)."""
        if self._mode is GraphMode.MULTI_VERSION:
            return _WR  # the only conflict that creates MVCC edges
        earlier, later = self._txs[u], self._txs[v]
        mask = 0
        if earlier.read_set & later.write_set:
            mask |= _RW
        if earlier.write_set & later.read_set:
            mask |= _WR
        if earlier.write_set & later.write_set:
            mask |= _WW
        return mask

    # ------------------------------------------------------------- basic info
    @property
    def mode(self) -> GraphMode:
        """Datastore semantics the graph was generated for."""
        return self._mode

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    @property
    def transaction_ids(self) -> List[str]:
        """Transaction ids in block (timestamp) order."""
        return list(self._ids)

    def transaction(self, tx_id: str) -> Transaction:
        """The transaction stored under ``tx_id``."""
        index = self._index.get(tx_id)
        if index is None:
            raise DependencyGraphError(f"unknown transaction {tx_id!r}")
        return self._txs[index]

    def transactions(self) -> List[Transaction]:
        """All transactions in block order."""
        return list(self._txs)

    @property
    def edge_count(self) -> int:
        """Number of ordering dependencies."""
        return self._dag.edge_count

    # ----------------------------------------------------------- index surface
    # The execution hot path (countdown scheduling, commit batching) works on
    # the dense integer index space 0 .. n-1 shared with the adjacency core:
    # index == block position == timestamp order.  These accessors avoid the
    # string-keyed dict lookups and the set/list copies of the paper-notation
    # API above.

    @property
    def dag(self) -> AdjacencyDAG:
        """The dense integer-indexed adjacency core (read-only by convention)."""
        return self._dag

    def index_of(self, tx_id: str) -> int:
        """Block position of ``tx_id`` (the node index in the adjacency core)."""
        index = self._index.get(tx_id)
        if index is None:
            raise DependencyGraphError(f"unknown transaction {tx_id!r}")
        return index

    def id_at(self, index: int) -> str:
        """Transaction id at block position ``index``."""
        return self._ids[index]

    def transaction_at(self, index: int) -> Transaction:
        """Transaction at block position ``index``."""
        return self._txs[index]

    def cross_application_successor_flags(self) -> Sequence[bool]:
        """``flags[u]`` — True iff ``u`` has a successor of another application.

        Computed once per graph with a single pass over the edges; the commit
        batcher (Algorithm 2) consults this per executed result, so loading
        successor Transaction objects there would pay per-result what this
        bitmap pays per-block.  Returned as a tuple: the cache is shared by
        every batcher built on this graph, so it must be immutable.
        """
        if self._cross_app_succ is None:
            txs = self._txs
            dag = self._dag
            arrays = dag.edge_index_arrays() if dag.edge_count else None
            if arrays is not None:
                # Vectorised: compare application codes across both endpoint
                # arrays at once instead of walking adjacency lists per node.
                codes: Dict[str, int] = {}
                node_codes = [codes.setdefault(tx.application, len(codes)) for tx in txs]
                code_arr = _np.asarray(node_codes, dtype=_np.int64)
                sources, targets = arrays
                flags_arr = _np.zeros(len(txs), dtype=bool)
                flags_arr[sources[code_arr[sources] != code_arr[targets]]] = True
                self._cross_app_succ = tuple(flags_arr.tolist())
            else:
                flags = [False] * len(txs)
                for u in range(dag.n):
                    app = txs[u].application
                    for v in dag.successors(u):
                        if txs[v].application != app:
                            flags[u] = True
                            break
                self._cross_app_succ = tuple(flags)
        return self._cross_app_succ

    def edges(self) -> List[DependencyEdge]:
        """All edges with their conflict kinds, ordered by block position."""
        if self._edge_cache is None:
            ids = self._ids
            self._edge_cache = [
                DependencyEdge(
                    source=ids[u], target=ids[v], kinds=_MASK_TO_KINDS[self._mask_for(u, v)]
                )
                for (u, v) in sorted(self._dag.edges())
            ]
        return list(self._edge_cache)

    # -------------------------------------------------------- paper notation
    def _require(self, tx_id: str) -> int:
        index = self._index.get(tx_id)
        if index is None:
            raise DependencyGraphError(f"unknown transaction {tx_id!r}")
        return index

    def predecessors(self, tx_id: str) -> Set[str]:
        """``Pre(x)`` — transactions that must commit/execute before ``x``."""
        v = self._require(tx_id)
        cached = self._pred_sets[v]
        if cached is None:
            ids = self._ids
            cached = frozenset(ids[u] for u in self._dag.predecessors(v))
            self._pred_sets[v] = cached
        return set(cached)

    def successors(self, tx_id: str) -> Set[str]:
        """``Suc(x)`` — transactions that depend on ``x``."""
        u = self._require(tx_id)
        cached = self._succ_sets[u]
        if cached is None:
            ids = self._ids
            cached = frozenset(ids[v] for v in self._dag.successors(u))
            self._succ_sets[u] = cached
        return set(cached)

    def roots(self) -> List[str]:
        """Transactions with no predecessors (immediately executable)."""
        ids = self._ids
        return [ids[v] for v in self._dag.roots()]

    # ------------------------------------------------------------- structure
    def is_chain(self) -> bool:
        """True if the graph is a single path covering every transaction.

        A full-contention workload (Figure 6(d)) produces a chain: every
        consecutive pair of transactions conflicts.
        """
        n = len(self)
        if n <= 1:
            return True
        path_edges = n - 1
        if self.edge_count < path_edges:
            return False
        # A covering chain exists iff the longest path visits every node.
        return self.critical_path_length() == n

    def has_edges(self) -> bool:
        """True if any ordering dependency exists (contention present)."""
        return self.edge_count > 0

    def components(self) -> List[Set[str]]:
        """Weakly connected components, each a set of transaction ids.

        Components are the unit of independent execution across applications:
        if no component mixes applications, agents never need to exchange
        intermediate commit messages (Figure 4(b) in the paper).
        """
        ids = self._ids
        return [{ids[v] for v in group} for group in self._dag.components()]

    def has_cross_application_dependency(self) -> bool:
        """True if any edge connects transactions of different applications."""
        txs = self._txs
        return any(
            txs[u].application != txs[v].application for (u, v) in self._dag.edges()
        )

    def cross_application_edges(self) -> List[DependencyEdge]:
        """Edges whose endpoints belong to different applications."""
        index, txs = self._index, self._txs
        return [
            edge
            for edge in self.edges()
            if txs[index[edge.source]].application != txs[index[edge.target]].application
        ]

    def topological_order(self) -> List[str]:
        """A deterministic topological order (ties broken by timestamp).

        Block order *is* the lexicographic-by-timestamp topological order:
        nodes are indexed by timestamp and every edge points forward, so at
        each Kahn step the lowest-timestamp available node is exactly the
        next block position.
        """
        return list(self._ids)

    def _depth_array(self) -> List[int]:
        if self._depths is None:
            self._depths = self._dag.longest_path_depths()
        return self._depths

    def critical_path_length(self) -> int:
        """Number of transactions on the longest dependency chain.

        With unlimited executor cores, executing the block takes
        ``critical_path_length()`` sequential transaction executions; a value
        of 1 means the whole block is embarrassingly parallel and a value of
        ``len(graph)`` means execution is fully sequential.
        """
        if len(self) == 0:
            return 0
        return max(self._depth_array()) + 1

    def parallelism_profile(self) -> List[int]:
        """Number of transactions executable at each dependency depth.

        Entry ``i`` is the number of transactions whose longest incoming
        dependency chain has length ``i``; the profile describes how much
        parallelism an executor with enough cores can extract wave by wave.
        """
        return depth_histogram(self._depth_array())

    def degree_of_contention(self) -> float:
        """Fraction of transactions involved in at least one dependency."""
        n = len(self)
        if n == 0:
            return 0.0
        dag = self._dag
        involved = sum(1 for v in range(n) if dag.in_degree(v) or dag.out_degree(v))
        return involved / n

    def canonical_tuple(self) -> tuple:
        return (
            "depgraph",
            tuple(t.digest() for t in self.transactions()),
            tuple(sorted(e.canonical_tuple() for e in self.edges())),
            self._mode.value,
        )

    def to_networkx(self):
        """A ``networkx.DiGraph`` copy for analysis/plotting (debug only).

        ``networkx`` is an optional dependency — install the ``debug`` extra
        (``pip install parblockchain-repro[debug]``); the runtime graph core
        never touches it.
        """
        try:
            import networkx as nx
        except ImportError as exc:  # pragma: no cover - depends on environment
            raise DependencyGraphError(
                "networkx is required for to_networkx(); install the 'debug' extra"
            ) from exc
        graph = nx.DiGraph()
        graph.add_nodes_from(self._ids)
        for edge in self.edges():
            graph.add_edge(edge.source, edge.target, kinds=edge.kinds)
        return graph


class StreamingGraphBuilder:
    """Incrementally build a block's dependency graph as transactions arrive.

    Orderers fill a block one ordered transaction at a time; rebuilding the
    dependency graph from scratch at every cut re-pays the whole construction
    cost.  This builder maintains per-record position indices, so adding a
    transaction only inspects the records it actually touches.

    Transactions must be added in block order (strictly increasing
    timestamps).  :meth:`graph` snapshots the current graph without
    invalidating the builder, so an orderer can inspect the partial graph
    (e.g. for contention-aware block cutting) and keep appending.

    Single-version graphs are sparse: per key the builder keeps only the
    *frontier* — the position of the last writer and the readers seen since
    it.  An arriving reader links to the last writer; an arriving writer
    links to the frontier readers (or, if none, to the last writer) and
    resets the frontier.  Every sparse edge is a genuine pairwise conflict,
    and every other conflicting pair stays reachable through the chain —
    writer→writer through the per-key writer chain, writer→reader through the
    chain plus the last-writer edge, reader→writer through the first
    subsequent writer — so the transitive closure (and with it the
    longest-path depth of every node, i.e. the execution waves) equals that
    of the one-edge-per-conflicting-pair graph of Section III-A.  A key in
    both the read and write set of one transaction is handled by the write
    rule alone (linking it as a reader too would self-loop).  Edge count is
    O(accesses) instead of O(hot-key popularity²).

    ``multi_version`` graphs keep one edge per writer→reader pair: writers
    are mutually unordered there, so no chain can stand in for a dropped
    edge.
    """

    def __init__(self, mode: GraphMode = GraphMode.SINGLE_VERSION) -> None:
        self._mode = mode
        self._txs: List[Transaction] = []
        self._index: Dict[str, int] = {}
        #: Multi-version rule: every writer position per key.
        self._writers: Dict[str, List[int]] = {}
        #: Sparse frontier: last writer position per key, and the reader
        #: positions seen since that write.
        self._last_writer: Dict[str, int] = {}
        self._frontier_readers: Dict[str, List[int]] = {}
        #: ``_incoming[v]`` — predecessor indices of transaction ``v`` (a set,
        #: or the shared empty tuple for conflict-free transactions).
        self._incoming: List[object] = []
        self._edge_count = 0
        self._last_timestamp: Optional[int] = None

    def __len__(self) -> int:
        return len(self._txs)

    @property
    def mode(self) -> GraphMode:
        """Datastore semantics the graph is generated for."""
        return self._mode

    @property
    def edge_count(self) -> int:
        """Number of ordering dependencies accumulated so far."""
        return self._edge_count

    def add(self, tx: Transaction) -> int:
        """Append the next transaction; return how many dependencies it added.

        Only the record indices of the keys ``tx`` touches are consulted, and
        predecessor indices are merged with bulk set updates — the hot loop
        does no per-edge Python-level bookkeeping (conflict *kinds* are
        recomputed lazily from the read/write sets when edges are inspected).
        Use :meth:`predecessors_of` for the ``Pre`` set of a queued
        transaction (e.g. for contention-aware block cutting).
        """
        idx = len(self._txs)
        if self._index.setdefault(tx.tx_id, idx) != idx:
            raise DependencyGraphError(f"duplicate transaction id {tx.tx_id!r}")
        timestamp = tx.timestamp
        if self._last_timestamp is not None and timestamp <= self._last_timestamp:
            del self._index[tx.tx_id]
            raise DependencyGraphError(
                "timestamps must be strictly increasing: "
                f"{self._txs[-1].tx_id} and {tx.tx_id}"
            )
        rw_set = tx.rw_set
        if self._mode is GraphMode.MULTI_VERSION:
            preds = self._multi_version_predecessors(idx, rw_set.reads, rw_set.writes)
        else:
            preds = self._sparse_predecessors(idx, rw_set.reads, rw_set.writes)
        if preds is None:
            self._incoming.append(())
            added = 0
        else:
            self._incoming.append(preds)
            added = len(preds)
            self._edge_count += added
        self._txs.append(tx)
        self._last_timestamp = timestamp
        return added

    def _multi_version_predecessors(
        self, idx: int, read_set: FrozenSet[str], write_set: FrozenSet[str]
    ) -> Optional[Set[int]]:
        """Write-then-read edges: a reader needs every earlier writer's version."""
        writers = self._writers
        # ``preds`` is only allocated once a conflict is found; the bulk
        # ``set.update`` over the per-record index lists is the entire
        # per-edge cost of construction.
        preds: Optional[Set[int]] = None
        for key in read_set:
            earlier_writers = writers.get(key)
            if earlier_writers:
                if preds is None:
                    preds = set(earlier_writers)
                else:
                    preds.update(earlier_writers)
        for key in write_set:
            earlier_writers = writers.get(key)
            if earlier_writers is None:
                writers[key] = [idx]
            else:
                earlier_writers.append(idx)
        return preds

    def _sparse_predecessors(
        self, idx: int, read_set: FrozenSet[str], write_set: FrozenSet[str]
    ) -> Optional[Set[int]]:
        """Frontier-chain edges: link only to each key's current frontier.

        A reader depends on the key's last writer (and joins the frontier);
        a writer depends on the frontier readers — every one of them must
        precede it, and each already reaches the last writer — or directly on
        the last writer when no reads intervened, then becomes the new
        frontier.  All transitively implied conflict pairs stay reachable
        through these chains, so the closure equals the pairwise graph's.
        """
        last_writer = self._last_writer
        frontier_readers = self._frontier_readers
        preds: Optional[Set[int]] = None
        for key in read_set:
            if key in write_set:
                continue  # the write rule below orders it (and avoids a self-loop)
            writer = last_writer.get(key)
            if writer is not None:
                if preds is None:
                    preds = {writer}
                else:
                    preds.add(writer)
            readers = frontier_readers.get(key)
            if readers is None:
                frontier_readers[key] = [idx]
            else:
                readers.append(idx)
        for key in write_set:
            readers = frontier_readers.get(key)
            if readers:
                if preds is None:
                    preds = set(readers)
                else:
                    preds.update(readers)
                readers.clear()
            else:
                writer = last_writer.get(key)
                if writer is not None:
                    if preds is None:
                        preds = {writer}
                    else:
                        preds.add(writer)
            last_writer[key] = idx
        return preds

    def extend(self, transactions: Iterable[Transaction]) -> None:
        """Add several transactions in order."""
        for tx in transactions:
            self.add(tx)

    def predecessors_of(self, tx_id: str) -> Set[str]:
        """``Pre(x)`` of an already-added transaction, as transaction ids."""
        index = self._index.get(tx_id)
        if index is None:
            raise DependencyGraphError(f"unknown transaction {tx_id!r}")
        txs = self._txs
        return {txs[u].tx_id for u in self._incoming[index]}

    def graph(self) -> DependencyGraph:
        """Snapshot the dependency graph built so far (builder stays usable)."""
        return DependencyGraph(
            self._txs,
            [set(preds) if preds else () for preds in self._incoming],
            self._mode,
            index=dict(self._index),
        )

    def take_graph(self) -> DependencyGraph:
        """Hand the accumulated state to a graph without copying and reset.

        This is what an orderer calls when it cuts a block: the graph takes
        ownership of the builder's arrays and the builder starts the next
        block empty.
        """
        graph = DependencyGraph(self._txs, self._incoming, self._mode, index=self._index)
        self.reset()
        return graph

    def reset(self) -> None:
        """Forget everything (the orderer cut the block)."""
        self._txs = []
        self._index = {}
        self._writers = {}
        self._last_writer = {}
        self._frontier_readers = {}
        self._incoming = []
        self._edge_count = 0
        self._last_timestamp = None


def build_dependency_graph(
    transactions: Sequence[Transaction],
    mode: GraphMode = GraphMode.SINGLE_VERSION,
) -> DependencyGraph:
    """Construct the dependency graph of a block of transactions.

    Transactions must carry strictly increasing timestamps in block order
    (the orderers stamp them).  Construction is per record via
    :class:`StreamingGraphBuilder`: only transactions that touch a common
    record can conflict, so the work is proportional to the accesses rather
    than quadratic in block size.  (The *simulated* cost charged to orderers
    stays quadratic — see
    :meth:`repro.common.config.CostModel.dependency_graph_cost` — because
    that is the cost the paper's implementation pays.)
    """
    builder = StreamingGraphBuilder(mode=mode)
    for tx in sorted(transactions, key=lambda t: t.timestamp):
        builder.add(tx)
    return builder.take_graph()


def contention_statistics(graph: DependencyGraph) -> Mapping[str, float]:
    """Summary statistics used by the benchmark reports."""
    size = len(graph)
    return {
        "transactions": float(size),
        "edges": float(graph.edge_count),
        "degree_of_contention": graph.degree_of_contention(),
        "critical_path": float(graph.critical_path_length()),
        "components": float(len(graph.components())),
        "cross_application_edges": float(len(graph.cross_application_edges())),
    }
