"""Faithful copies of the seed graph construction and execution hot path.

Two consumers share each copy.  The equivalence tests
(:mod:`tests.test_scheduler_equivalence`, :mod:`tests.test_graph_properties`
and friends) prove the production code matches it, and the scaling
benchmarks (:mod:`benchmarks.test_execution_scaling`,
:mod:`benchmarks.test_graph_scaling`) measure against it — one copy, so the
equivalence proof and the perf baseline can never desynchronise.  Nothing
here is collected as a test.

Kept outside ``src/`` on purpose: this is the *pre-overhaul* implementation
(one edge per conflicting pair, poll-by-rescan scheduling, rebuild of
``X_e ∪ C_e`` per poll) preserved as a reference, exactly like the networkx
copy in :mod:`benchmarks.test_graph_scaling`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set

from repro.core.dependency_graph import DependencyGraph, GraphMode
from repro.core.transaction import Transaction, TransactionResult


def all_pairs_graph(
    transactions: Sequence[Transaction], mode: GraphMode = GraphMode.SINGLE_VERSION
) -> DependencyGraph:
    """The seed's construction: one edge per conflicting ordered pair.

    Section III-A verbatim — every earlier transaction a later one conflicts
    with becomes a predecessor, so a hot key touched by ``k`` transactions
    contributes up to ``k·(k-1)/2`` edges.  Production graphs are sparse
    (frontier chains) with the same transitive closure; this is the graph
    they are checked against.  Built per record, like the seed, and handed
    to the one :class:`DependencyGraph` constructor.
    """
    ordered = sorted(transactions, key=lambda t: t.timestamp)
    writers: Dict[str, List[int]] = {}
    readers: Dict[str, List[int]] = {}
    incoming: List[Set[int]] = []
    for idx, tx in enumerate(ordered):
        preds: Set[int] = set()
        for key in tx.read_set:
            preds.update(writers.get(key, ()))
        if mode is GraphMode.SINGLE_VERSION:
            for key in tx.write_set:
                preds.update(writers.get(key, ()))
                preds.update(readers.get(key, ()))
        for key in tx.read_set:
            readers.setdefault(key, []).append(idx)
        for key in tx.write_set:
            writers.setdefault(key, []).append(idx)
        incoming.append(preds)
    return DependencyGraph(ordered, incoming, mode)


def ancestor_bitmasks(dag) -> List[int]:
    """reach[v] = bitmask of every node with a path to v (transitive closure).

    Valid because all edges point forward in index order, so the identity is a
    topological order and predecessors are fully resolved when v is visited.
    Equal lists mean two graphs order exactly the same pairs.
    """
    reach = [0] * dag.n
    for v in range(dag.n):
        mask = 0
        for u in dag.predecessors(v):
            mask |= reach[u] | (1 << u)
        reach[v] = mask
    return reach


class SeedGraphScheduler:
    """The seed's Algorithm 1: rescan the waiting list on every poll."""

    def __init__(self, graph: DependencyGraph, assigned: Iterable[str]) -> None:
        self._graph = graph
        assigned_set = set(assigned)
        self._waiting: List[str] = [t for t in graph.transaction_ids if t in assigned_set]
        self._executed: Set[str] = set()
        self._committed: Set[str] = set()
        self._dispatched: Set[str] = set()

    def is_done(self) -> bool:
        return not self._waiting

    def ready_transactions(self) -> List[Transaction]:
        done = self._executed | self._committed
        ready = []
        for tx_id in self._waiting:
            if tx_id in self._dispatched:
                continue
            if self._graph.predecessors(tx_id) <= done:
                ready.append(self._graph.transaction(tx_id))
        for tx in ready:
            self._dispatched.add(tx.tx_id)
        return ready

    def mark_executed(self, tx_id: str) -> None:
        self._executed.add(tx_id)
        if tx_id in self._waiting:
            self._waiting.remove(tx_id)

    def mark_committed(self, tx_id: str) -> None:
        if tx_id not in self._graph:
            return
        self._committed.add(tx_id)

    def blocked_on(self, tx_id: str) -> Set[str]:
        return self._graph.predecessors(tx_id) - (self._executed | self._committed)


def seed_execute_with_graph(
    graph: DependencyGraph, contract_runner, state: Dict[str, object]
) -> List[TransactionResult]:
    """The seed ``ExecutionEngine.execute_with_graph`` loop, verbatim."""
    scheduler = SeedGraphScheduler(graph, assigned=graph.transaction_ids)
    results: Dict[str, TransactionResult] = {}
    while not scheduler.is_done():
        wave = scheduler.ready_transactions()
        if not wave:
            raise AssertionError("seed engine deadlocked")
        wave_results = [contract_runner(tx, state) for tx in wave]
        for result in wave_results:
            if not result.is_abort:
                state.update(result.updates)
            results[result.tx_id] = result
            scheduler.mark_executed(result.tx_id)
            scheduler.mark_committed(result.tx_id)
    return [results[tx_id] for tx_id in graph.transaction_ids]
