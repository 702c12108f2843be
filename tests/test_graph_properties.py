"""Property-based tests for the dependency-graph core and scheduler.

Hypothesis drives seeded random workloads through ``build_dependency_graph``
and ``CountdownScheduler`` and asserts the structural invariants the whole
execution layer relies on:

* the graph is a DAG whose edges all point forward in block order;
* the all-pairs reference graph (:func:`benchmarks.seed_reference.all_pairs_graph`)
  has an edge *iff* the pairwise conflict definition of Section III-A says so
  (rw/wr/ww under single-version, wr only under multi-version);
* the production (sparse) graph keeps only genuine conflict edges and has
  the reference's transitive closure and waves;
* the countdown scheduler's waves are a valid topological stratification:
  wave k is exactly the set of transactions at dependency depth k, every
  predecessor settles in an earlier wave, and the waves partition the block.

Extends the seed-equivalence suite in ``test_scheduler_equivalence.py`` with
generative coverage (arbitrary seeds instead of a fixed dozen).
"""

from __future__ import annotations

import random
from typing import List

from hypothesis import given, settings, strategies as st

from benchmarks.seed_reference import all_pairs_graph, ancestor_bitmasks
from repro.core.dependency_graph import (
    GraphMode,
    StreamingGraphBuilder,
    build_dependency_graph,
    has_ordering_dependency,
)
from repro.core.execution import CountdownScheduler
from repro.core.transaction import ReadWriteSet, Transaction

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def random_block(seed: int, size: int) -> List[Transaction]:
    """A block whose contention level varies with the drawn key population."""
    rng = random.Random(seed)
    population = rng.choice([3, 6, 12, 40, 300])
    apps = [f"app-{i}" for i in range(rng.choice([1, 2, 3]))]
    txs = []
    for i in range(size):
        reads = {f"k{rng.randrange(population)}" for _ in range(rng.randint(0, 3))}
        writes = {f"k{rng.randrange(population)}" for _ in range(rng.randint(0, 2))}
        txs.append(
            Transaction(
                tx_id=f"tx{i}",
                application=rng.choice(apps),
                rw_set=ReadWriteSet.build(reads=reads, writes=writes),
                timestamp=i + 1,
            )
        )
    return txs


block_strategy = st.tuples(st.integers(0, 2**20), st.integers(2, 48))


@given(block_strategy)
@SETTINGS
def test_graph_is_a_forward_dag(params):
    seed, size = params
    graph = build_dependency_graph(random_block(seed, size))
    for u, v in graph.dag.edges():
        assert u < v, "every dependency edge must point forward in block order"
    # Kahn's algorithm completes without detecting a cycle and visits all nodes.
    order = graph.dag.kahn_order()
    assert sorted(order) == list(range(len(graph)))
    # For timestamp-indexed graphs the identity is the canonical topo order.
    assert order == list(range(len(graph)))


@given(block_strategy, st.sampled_from([GraphMode.SINGLE_VERSION, GraphMode.MULTI_VERSION]))
@SETTINGS
def test_every_pairwise_conflict_induces_exactly_its_edge(params, mode):
    """The all-pairs reference == the paper's every-ordered-pair definition."""
    seed, size = params
    txs = random_block(seed, size)
    graph = all_pairs_graph(txs, mode=mode)
    edges = {(u, v) for u, v in graph.dag.edges()}
    for i in range(len(txs)):
        for j in range(i + 1, len(txs)):
            expected = has_ordering_dependency(txs[i], txs[j], mode=mode)
            assert ((i, j) in edges) == expected, (
                f"pair ({txs[i].tx_id}, {txs[j].tx_id}) conflict={expected} "
                f"but edge={'present' if (i, j) in edges else 'absent'}"
            )


@given(block_strategy, st.sampled_from([GraphMode.SINGLE_VERSION, GraphMode.MULTI_VERSION]))
@SETTINGS
def test_sparse_construction_preserves_closure_and_waves(params, mode):
    """Frontier-chain sparse graphs: same transitive closure, same waves.

    The sparse construction may only drop transitively *redundant* edges —
    every pair ordered by the all-pairs graph must stay ordered (identical
    ancestor sets), every surviving edge must be a genuine pairwise conflict,
    and the wave stratification the execution engine runs (longest-path
    depths) must be unchanged.  Under MULTI_VERSION only w→r edges exist and
    writers are mutually unreachable, so no edge is ever redundant: sparse
    must equal all-pairs edge-for-edge there.
    """
    seed, size = params
    txs = random_block(seed, size)
    dense = all_pairs_graph(txs, mode=mode)
    sparse = build_dependency_graph(txs, mode=mode)
    dense_edges = set(dense.dag.edges())
    sparse_edges = set(sparse.dag.edges())
    assert sparse_edges <= dense_edges, "sparse construction invented a non-conflict edge"
    for u, v in sparse_edges:
        assert has_ordering_dependency(txs[u], txs[v], mode=mode)
    assert ancestor_bitmasks(sparse.dag) == ancestor_bitmasks(dense.dag)
    assert sparse.dag.longest_path_depths() == dense.dag.longest_path_depths()
    assert sparse.parallelism_profile() == dense.parallelism_profile()
    assert sparse.components() == dense.components()
    if mode is GraphMode.MULTI_VERSION:
        assert sparse_edges == dense_edges


@given(block_strategy, st.sampled_from([GraphMode.SINGLE_VERSION, GraphMode.MULTI_VERSION]))
@SETTINGS
def test_streaming_builder_equals_batch_build(params, mode):
    """Incremental (orderer-side) construction == batch build, per mode."""
    seed, size = params
    txs = random_block(seed, size)
    builder = StreamingGraphBuilder(mode=mode)
    for tx in txs:
        builder.add(tx)
    batch = build_dependency_graph(txs, mode=mode)
    assert builder.graph().canonical_tuple() == batch.canonical_tuple()


@given(block_strategy, st.sampled_from([all_pairs_graph, build_dependency_graph]))
@SETTINGS
def test_wave_partition_is_the_depth_stratification(params, build):
    """dag.wave_partition() buckets nodes exactly by longest-path depth."""
    seed, size = params
    graph = build(random_block(seed, size))
    depths = graph.dag.longest_path_depths()
    waves = graph.dag.wave_partition()
    assert sorted(v for wave in waves for v in wave) == list(range(len(graph)))
    for k, wave in enumerate(waves):
        assert wave == sorted(wave), "waves must preserve block order"
        assert all(depths[v] == k for v in wave)


@given(block_strategy)
@SETTINGS
def test_countdown_waves_are_a_topological_stratification(params):
    seed, size = params
    graph = build_dependency_graph(random_block(seed, size))
    n = len(graph)
    scheduler = CountdownScheduler(graph, range(n))
    depths = graph.dag.longest_path_depths()
    wave_of = {}
    wave_index = 0
    while not scheduler.is_done():
        wave = scheduler.ready_indices()
        assert wave, "scheduler deadlocked on an acyclic graph"
        for v in wave:
            assert v not in wave_of, f"node {v} dispatched twice"
            wave_of[v] = wave_index
            # Every predecessor settled in a strictly earlier wave.
            for u in graph.dag.predecessors(v):
                assert wave_of[u] < wave_index
            # Waves are exactly the dependency-depth levels.
            assert depths[v] == wave_index
        for v in wave:
            scheduler.mark_executed(v)
            scheduler.mark_committed(v)
        wave_index += 1
    # The waves partition the whole block.
    assert sorted(wave_of) == list(range(n))
    assert wave_index == graph.critical_path_length() or n == 0


@given(block_strategy)
@SETTINGS
def test_partial_assignment_never_dispatches_foreign_transactions(params):
    """Only assigned indices are dispatched, and all of them eventually are."""
    seed, size = params
    graph = build_dependency_graph(random_block(seed, size))
    n = len(graph)
    rng = random.Random(seed ^ 0x5EED)
    assigned = sorted(rng.sample(range(n), k=n // 2)) if n >= 2 else []
    scheduler = CountdownScheduler(graph, assigned)
    assigned_set = set(assigned)
    dispatched = set()
    # Settle foreign transactions in block order, as remote COMMITs would.
    for v in range(n):
        for w in scheduler.ready_indices():
            assert w in assigned_set
            dispatched.add(w)
            scheduler.mark_executed(w)
        if v not in assigned_set:
            scheduler.mark_committed(v)
    for w in scheduler.ready_indices():
        assert w in assigned_set
        dispatched.add(w)
        scheduler.mark_executed(w)
    assert dispatched == assigned_set
    assert scheduler.is_done()
