"""Equivalence proofs for the countdown scheduler against the seed semantics.

The seed repository scheduled Algorithm 1 by rescanning the waiting list and
rebuilding ``X_e ∪ C_e`` on every poll; this PR replaced that with the
O(V+E) indegree-countdown scheduler (:class:`repro.core.execution
.CountdownScheduler`).  These tests drive both implementations through
randomized dependency graphs, partial agent assignments and interleaved
remote commits, asserting identical wave partitions, dispatch orders, final
states and result lists — including through the sequential reference engine
the three paradigms are validated against.  The faithful seed copy lives in
:mod:`benchmarks.seed_reference`, shared with the scaling benchmark so the
equivalence proof and the perf baseline measure the same code.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest

from benchmarks.seed_reference import (
    SeedGraphScheduler,
    all_pairs_graph,
    seed_execute_with_graph,
)
from repro.core.dependency_graph import build_dependency_graph
from repro.core.execution import ExecutionEngine, GraphScheduler
from repro.core.transaction import ReadWriteSet, Transaction, TransactionResult

SEEDS = list(range(12))


def random_block(seed: int, size: int = 40) -> List[Transaction]:
    """A block with random contention (population shrinks with the seed)."""
    rng = random.Random(seed)
    population = rng.choice([4, 8, 16, 64, 400])
    apps = [f"app-{i}" for i in range(rng.choice([1, 2, 4]))]
    txs = []
    for i in range(size):
        reads = {f"r{rng.randrange(population)}" for _ in range(rng.randint(0, 3))}
        writes = {f"r{rng.randrange(population)}" for _ in range(rng.randint(0, 2))}
        txs.append(
            Transaction(
                tx_id=f"tx{i}",
                application=rng.choice(apps),
                rw_set=ReadWriteSet.build(reads=reads, writes=writes),
                timestamp=i + 1,
            )
        )
    return txs


def counter_runner(tx: Transaction, state) -> TransactionResult:
    """Deterministic contract: bump every written key by 1 + reads' sum."""
    read_sum = sum(state.get(k, 0) for k in sorted(tx.read_set))
    updates = {k: state.get(k, 0) + 1 + read_sum for k in sorted(tx.write_set)}
    return TransactionResult(tx_id=tx.tx_id, application=tx.application, updates=updates)


@pytest.mark.parametrize("seed", SEEDS)
class TestWaveEquivalence:
    def test_full_assignment_wave_partition_matches_seed(self, seed: int) -> None:
        """Executing wave by wave dispatches identical waves in identical order."""
        graph = build_dependency_graph(random_block(seed))
        ids = graph.transaction_ids
        seed_sched = SeedGraphScheduler(graph, assigned=ids)
        new_sched = GraphScheduler(graph, assigned=ids)
        waves = 0
        while not (seed_sched.is_done() and new_sched.is_done()):
            seed_wave = [t.tx_id for t in seed_sched.ready_transactions()]
            new_wave = [t.tx_id for t in new_sched.ready_transactions()]
            assert new_wave == seed_wave, f"wave {waves} diverged"
            assert seed_wave, "both schedulers deadlocked"
            for tx_id in seed_wave:
                seed_sched.mark_executed(tx_id)
                seed_sched.mark_committed(tx_id)
                new_sched.mark_executed(tx_id)
                new_sched.mark_committed(tx_id)
            waves += 1
        assert seed_sched.is_done() and new_sched.is_done()

    def test_partial_assignment_with_remote_commits(self, seed: int) -> None:
        """Two agents splitting the block release work in the same order."""
        graph = build_dependency_graph(random_block(seed))
        rng = random.Random(seed * 31 + 7)
        ids = graph.transaction_ids
        assignment = {tx_id: rng.randrange(2) for tx_id in ids}
        mine = [t for t in ids if assignment[t] == 0]
        seed_sched = SeedGraphScheduler(graph, assigned=mine)
        new_sched = GraphScheduler(graph, assigned=mine)
        remaining = list(ids)
        dispatch_log_seed: List[str] = []
        dispatch_log_new: List[str] = []
        while remaining:
            seed_ready = [t.tx_id for t in seed_sched.ready_transactions()]
            new_ready = [t.tx_id for t in new_sched.ready_transactions()]
            assert new_ready == seed_ready
            dispatch_log_seed.extend(seed_ready)
            dispatch_log_new.extend(new_ready)
            # The "other agent" commits the earliest remaining foreign tx once
            # our queue runs dry, mimicking COMMIT messages arriving.
            progressed = False
            for tx_id in seed_ready:
                seed_sched.mark_executed(tx_id)
                new_sched.mark_executed(tx_id)
                seed_sched.mark_committed(tx_id)
                new_sched.mark_committed(tx_id)
                remaining.remove(tx_id)
                progressed = True
            if not progressed:
                foreign = next(t for t in remaining if assignment[t] == 1)
                seed_sched.mark_committed(foreign)
                new_sched.mark_committed(foreign)
                remaining.remove(foreign)
            assert set(new_sched.committed) == seed_sched._committed
            assert set(new_sched.executed) == seed_sched._executed
        assert dispatch_log_new == dispatch_log_seed
        assert seed_sched.is_done() == new_sched.is_done()

    def test_blocked_on_matches_seed(self, seed: int) -> None:
        graph = build_dependency_graph(random_block(seed))
        ids = graph.transaction_ids
        seed_sched = SeedGraphScheduler(graph, assigned=ids)
        new_sched = GraphScheduler(graph, assigned=ids)
        rng = random.Random(seed)
        settled = rng.sample(ids, k=len(ids) // 3)
        for tx_id in settled:
            seed_sched.mark_committed(tx_id)
            new_sched.mark_committed(tx_id)
        for tx_id in ids:
            assert new_sched.blocked_on(tx_id) == seed_sched.blocked_on(tx_id)


@pytest.mark.parametrize("seed", SEEDS)
class TestEngineEquivalence:
    def test_results_and_state_bit_identical_to_seed_engine(self, seed: int) -> None:
        """OXII graph execution: identical result list and final state."""
        txs = random_block(seed)
        graph = build_dependency_graph(txs)
        seed_state: Dict[str, object] = {}
        new_engine = ExecutionEngine(counter_runner, state={})
        seed_results = seed_execute_with_graph(graph, counter_runner, seed_state)
        new_results = new_engine.execute_with_graph(graph)
        assert [r.canonical_tuple() for r in new_results] == [
            r.canonical_tuple() for r in seed_results
        ]
        assert new_engine.state == seed_state

    def test_graph_execution_matches_sequential_reference(self, seed: int) -> None:
        """OX (sequential) and OXII (graph) semantics agree on the final state."""
        txs = random_block(seed)
        sequential = ExecutionEngine(counter_runner, state={})
        sequential.execute_sequentially(txs)
        graphed = ExecutionEngine(counter_runner, state={})
        graphed.execute_with_graph(build_dependency_graph(txs))
        assert graphed.state == sequential.state

    def test_all_pairs_graph_execution_matches_sequential_reference(self, seed: int) -> None:
        """The seed's all-pairs graph executes to the sequential state too,
        with the same results as the sparse production graph."""
        txs = random_block(seed)
        sequential = ExecutionEngine(counter_runner, state={})
        sequential.execute_sequentially(txs)
        dense = ExecutionEngine(counter_runner, state={})
        dense_results = dense.execute_with_graph(all_pairs_graph(txs))
        sparse = ExecutionEngine(counter_runner, state={})
        sparse_results = sparse.execute_with_graph(build_dependency_graph(txs))
        assert dense.state == sparse.state == sequential.state
        assert dense_results == sparse_results
        assert len(dense_results) == len(txs)


class TestMultiVersionWaveBatching:
    def test_same_wave_writers_commit_in_block_order(self) -> None:
        """MVCC graphs put WW pairs in one wave; the batch must keep the
        later writer's value, as the seed's per-result application did."""
        from repro.core.dependency_graph import GraphMode

        txs = [
            Transaction(tx_id="w1", application="app-0",
                        rw_set=ReadWriteSet.build(writes=["k"]), timestamp=1,
                        payload={"value": "first"}),
            Transaction(tx_id="w2", application="app-0",
                        rw_set=ReadWriteSet.build(writes=["k"]), timestamp=2,
                        payload={"value": "second"}),
        ]

        def writer(tx, state):
            return TransactionResult(
                tx_id=tx.tx_id, application=tx.application,
                updates={"k": tx.payload["value"]},
            )

        graph = build_dependency_graph(txs, mode=GraphMode.MULTI_VERSION)
        assert graph.edge_count == 0  # both writers share the first wave
        seed_state: Dict[str, object] = {}
        seed_execute_with_graph(graph, writer, seed_state)
        engine = ExecutionEngine(writer, state={})
        engine.execute_with_graph(graph)
        assert engine.state == seed_state == {"k": "second"}

    def test_negative_and_out_of_range_indices_rejected(self) -> None:
        """bytearray would silently wrap -1 to the last tx; must raise instead."""
        from repro.core.execution import CountdownScheduler

        graph = build_dependency_graph(random_block(1, size=4))
        with pytest.raises(IndexError):
            CountdownScheduler(graph, [-1])
        scheduler = CountdownScheduler(graph, range(len(graph)))
        for bad in (-1, len(graph)):
            with pytest.raises(IndexError):
                scheduler.mark_executed(bad)
            with pytest.raises(IndexError):
                scheduler.mark_committed(bad)
            with pytest.raises(IndexError):
                scheduler.is_executed(bad)


class TestFacadeViews:
    """The read-only views keep the seed API's observable behaviour."""

    def test_views_are_live_and_set_like(self) -> None:
        txs = random_block(3, size=6)
        graph = build_dependency_graph(txs)
        scheduler = GraphScheduler(graph, assigned=graph.transaction_ids)
        executed_view = scheduler.executed
        committed_view = scheduler.committed
        assert executed_view == set() and committed_view == set()
        first = scheduler.ready_transactions()[0]
        scheduler.mark_executed(first.tx_id)
        scheduler.mark_committed(first.tx_id)
        # Same objects, updated in place — no per-access copies.
        assert first.tx_id in executed_view
        assert committed_view | set() == {first.tx_id}

    def test_waiting_preserves_block_order(self) -> None:
        txs = random_block(5, size=10)
        graph = build_dependency_graph(txs)
        scheduler = GraphScheduler(graph, assigned=graph.transaction_ids)
        assert list(scheduler.waiting) == graph.transaction_ids
        for tx in scheduler.ready_transactions():
            scheduler.mark_executed(tx.tx_id)
        remaining = list(scheduler.waiting)
        assert remaining == [t for t in graph.transaction_ids if t in set(remaining)]
