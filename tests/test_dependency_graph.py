"""Tests for dependency-graph construction — the paper's core data structure."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.seed_reference import all_pairs_graph, ancestor_bitmasks
from repro.common.errors import DependencyGraphError
from repro.core.dependency_graph import (
    ConflictType,
    DependencyGraph,
    GraphMode,
    StreamingGraphBuilder,
    build_dependency_graph,
    conflicts,
    contention_statistics,
    has_ordering_dependency,
)
from tests.conftest import make_tx


def paper_example_block():
    """The block of Figure 2: [T1, T5, T4, T3, T2] with the paper's conflicts.

    T1 writes b; T4 reads b (T1 ~> T4).  T5 writes d and reads e; T2 writes d
    (T5 ~> T2); T3 writes e (T5 ~> T3).
    """
    t1 = make_tx("T1", reads=["a"], writes=["b"], application="app-1", timestamp=1)
    t5 = make_tx("T5", reads=["e"], writes=["d"], application="app-2", timestamp=2)
    t4 = make_tx("T4", reads=["b"], writes=["f"], application="app-2", timestamp=3)
    t3 = make_tx("T3", reads=["g"], writes=["e"], application="app-1", timestamp=4)
    t2 = make_tx("T2", reads=["h"], writes=["d"], application="app-2", timestamp=5)
    return [t1, t5, t4, t3, t2]


class TestConflictDetection:
    def test_read_write_conflict(self):
        earlier = make_tx("a", reads=["x"], timestamp=1)
        later = make_tx("b", writes=["x"], timestamp=2)
        assert conflicts(earlier, later) == [ConflictType.READ_WRITE]
        assert has_ordering_dependency(earlier, later)

    def test_write_read_conflict(self):
        earlier = make_tx("a", writes=["x"], timestamp=1)
        later = make_tx("b", reads=["x"], timestamp=2)
        assert ConflictType.WRITE_READ in conflicts(earlier, later)

    def test_write_write_conflict(self):
        earlier = make_tx("a", writes=["x"], timestamp=1)
        later = make_tx("b", writes=["x"], timestamp=2)
        assert ConflictType.WRITE_WRITE in conflicts(earlier, later)

    def test_read_read_is_not_a_conflict(self):
        earlier = make_tx("a", reads=["x"], timestamp=1)
        later = make_tx("b", reads=["x"], timestamp=2)
        assert conflicts(earlier, later) == []
        assert not has_ordering_dependency(earlier, later)

    def test_no_dependency_against_timestamp_order(self):
        earlier = make_tx("a", writes=["x"], timestamp=2)
        later = make_tx("b", writes=["x"], timestamp=1)
        assert not has_ordering_dependency(earlier, later)

    def test_multi_version_only_write_read_orders(self):
        w = make_tx("w", writes=["x"], timestamp=1)
        r = make_tx("r", reads=["x"], timestamp=2)
        w2 = make_tx("w2", writes=["x"], timestamp=2)
        assert has_ordering_dependency(w, r, GraphMode.MULTI_VERSION)
        assert not has_ordering_dependency(w, w2, GraphMode.MULTI_VERSION)
        r1 = make_tx("r1", reads=["x"], timestamp=1)
        assert not has_ordering_dependency(r1, w2, GraphMode.MULTI_VERSION)


class TestPaperExample:
    def test_figure2_edges(self):
        graph = build_dependency_graph(paper_example_block())
        edge_pairs = {(e.source, e.target) for e in graph.edges()}
        assert edge_pairs == {("T1", "T4"), ("T5", "T2"), ("T5", "T3")}

    def test_figure2_concurrency(self):
        graph = build_dependency_graph(paper_example_block())
        # T1 and T2 are not connected and can be processed concurrently.
        assert "T2" not in graph.successors("T1")
        assert "T1" not in graph.predecessors("T2")
        assert graph.predecessors("T4") == {"T1"}
        assert graph.successors("T5") == {"T2", "T3"}
        assert set(graph.roots()) == {"T1", "T5"}

    def test_figure2_cross_application_edges(self):
        graph = build_dependency_graph(paper_example_block())
        cross = {(e.source, e.target) for e in graph.cross_application_edges()}
        assert ("T1", "T4") in cross  # app-1 -> app-2
        assert ("T5", "T3") in cross  # app-2 -> app-1
        assert graph.has_cross_application_dependency()


class TestGraphStructure:
    def test_no_contention_has_no_edges(self):
        txs = [make_tx(f"t{i}", reads=[f"r{i}"], writes=[f"w{i}"], timestamp=i + 1) for i in range(10)]
        graph = build_dependency_graph(txs)
        assert graph.edge_count == 0
        assert graph.critical_path_length() == 1
        assert not graph.is_chain()
        assert len(graph.components()) == 10
        assert graph.degree_of_contention() == 0.0

    def test_full_contention_is_a_chain(self):
        txs = [make_tx(f"t{i}", reads=["hot"], writes=["hot"], timestamp=i + 1) for i in range(8)]
        graph = build_dependency_graph(txs)
        assert graph.is_chain()
        assert graph.critical_path_length() == 8
        assert graph.degree_of_contention() == 1.0

    def test_partial_contention_profile(self):
        hot = [make_tx(f"h{i}", writes=["hot"], timestamp=i + 1) for i in range(3)]
        cold = [make_tx(f"c{i}", writes=[f"cold{i}"], timestamp=10 + i) for i in range(3)]
        graph = build_dependency_graph(hot + cold)
        assert graph.critical_path_length() == 3
        profile = graph.parallelism_profile()
        assert profile[0] == 4  # the three cold transactions plus the first hot one
        assert sum(profile) == 6

    def test_topological_order_respects_edges(self):
        graph = build_dependency_graph(paper_example_block())
        order = graph.topological_order()
        assert order.index("T1") < order.index("T4")
        assert order.index("T5") < order.index("T2")
        assert order.index("T5") < order.index("T3")

    def test_single_transaction_is_trivially_a_chain(self):
        graph = build_dependency_graph([make_tx("only", writes=["x"], timestamp=1)])
        assert graph.is_chain()
        assert graph.critical_path_length() == 1

    def test_contention_statistics(self):
        stats = contention_statistics(build_dependency_graph(paper_example_block()))
        assert stats["transactions"] == 5.0
        assert stats["edges"] == 3.0
        assert stats["cross_application_edges"] == 2.0


class TestGraphEdgeCases:
    def test_empty_block(self):
        graph = build_dependency_graph([])
        assert len(graph) == 0
        assert graph.edge_count == 0
        assert graph.critical_path_length() == 0
        assert graph.topological_order() == []
        assert graph.components() == []
        assert graph.parallelism_profile() == []
        assert graph.roots() == []
        assert graph.degree_of_contention() == 0.0
        assert graph.is_chain()

    def test_single_transaction(self):
        graph = build_dependency_graph([make_tx("only", reads=["x"], writes=["x"], timestamp=1)])
        assert graph.roots() == ["only"]
        assert graph.predecessors("only") == set()
        assert graph.successors("only") == set()
        assert graph.components() == [{"only"}]
        assert graph.parallelism_profile() == [1]

    def test_figure6d_full_contention_chain(self):
        """Figure 6(d): 100% contention makes the whole block one chain."""
        n = 64
        txs = [make_tx(f"t{i}", reads=["hot"], writes=["hot"], timestamp=i + 1) for i in range(n)]
        graph = build_dependency_graph(txs)
        assert graph.is_chain()
        assert graph.critical_path_length() == n
        # Every ordered pair conflicts; the sparse graph keeps only the chain
        # itself, the all-pairs reference carries every transitive edge.
        assert graph.edge_count == n - 1
        assert all_pairs_graph(txs).edge_count == n * (n - 1) // 2
        assert graph.parallelism_profile() == [1] * n
        assert len(graph.components()) == 1

    def test_multi_version_prunes_ww_and_rw_edges(self):
        txs = [
            make_tx("w1", writes=["x"], timestamp=1),
            make_tx("r1", reads=["x"], timestamp=2),
            make_tx("w2", writes=["x"], timestamp=3),
            make_tx("r2", reads=["x"], timestamp=4),
        ]
        single = all_pairs_graph(txs, mode=GraphMode.SINGLE_VERSION)
        multi = build_dependency_graph(txs, mode=GraphMode.MULTI_VERSION)
        single_pairs = {(e.source, e.target) for e in single.edges()}
        multi_pairs = {(e.source, e.target) for e in multi.edges()}
        # Single-version orders every conflicting pair; multi-version keeps
        # only write-then-read (the reader needs the writer's version).
        assert ("w1", "w2") in single_pairs and ("r1", "w2") in single_pairs
        assert multi_pairs == {("w1", "r1"), ("w1", "r2"), ("w2", "r2")}
        assert all(e.kinds == (ConflictType.WRITE_READ,) for e in multi.edges())

    def test_edge_kinds_accumulate(self):
        txs = [
            make_tx("a", reads=["x"], writes=["x"], timestamp=1),
            make_tx("b", reads=["x"], writes=["x"], timestamp=2),
        ]
        graph = build_dependency_graph(txs)
        (edge,) = graph.edges()
        assert set(edge.kinds) == {
            ConflictType.READ_WRITE,
            ConflictType.WRITE_READ,
            ConflictType.WRITE_WRITE,
        }


class TestStreamingGraphBuilder:
    def test_incremental_equals_batch(self):
        txs = paper_example_block()
        builder = StreamingGraphBuilder()
        for tx in sorted(txs, key=lambda t: t.timestamp):
            builder.add(tx)
        streamed = builder.graph()
        batch = build_dependency_graph(txs)
        assert streamed.canonical_tuple() == batch.canonical_tuple()

    def test_add_returns_new_dependency_count(self):
        builder = StreamingGraphBuilder()
        assert builder.add(make_tx("a", writes=["x"], timestamp=1)) == 0
        assert builder.add(make_tx("b", reads=["x"], timestamp=2)) == 1
        assert builder.predecessors_of("b") == {"a"}
        assert builder.edge_count == 1
        (edge,) = builder.graph().edges()
        assert (edge.source, edge.target) == ("a", "b")
        assert edge.kinds == (ConflictType.WRITE_READ,)

    def test_snapshot_does_not_invalidate_builder(self):
        builder = StreamingGraphBuilder()
        builder.add(make_tx("a", writes=["x"], timestamp=1))
        first = builder.graph()
        builder.add(make_tx("b", writes=["x"], timestamp=2))
        second = builder.graph()
        assert len(first) == 1 and first.edge_count == 0
        assert len(second) == 2 and second.edge_count == 1

    def test_reset_forgets_record_indices(self):
        builder = StreamingGraphBuilder()
        builder.add(make_tx("a", writes=["x"], timestamp=1))
        builder.reset()
        assert len(builder) == 0
        # "a"'s write of x must not leak an edge into the next block.
        assert builder.add(make_tx("b", reads=["x"], timestamp=1)) == 0

    def test_rejects_duplicate_ids_and_stale_timestamps(self):
        builder = StreamingGraphBuilder()
        builder.add(make_tx("a", writes=["x"], timestamp=2))
        with pytest.raises(DependencyGraphError):
            builder.add(make_tx("a", writes=["y"], timestamp=3))
        with pytest.raises(DependencyGraphError):
            builder.add(make_tx("b", writes=["y"], timestamp=2))

    def test_multi_version_mode(self):
        builder = StreamingGraphBuilder(mode=GraphMode.MULTI_VERSION)
        builder.add(make_tx("w1", writes=["x"], timestamp=1))
        assert builder.add(make_tx("w2", writes=["x"], timestamp=2)) == 0
        assert builder.add(make_tx("r", reads=["x"], timestamp=3)) == 2
        assert builder.predecessors_of("r") == {"w1", "w2"}

    def test_take_graph_resets_builder(self):
        builder = StreamingGraphBuilder()
        builder.add(make_tx("a", writes=["x"], timestamp=1))
        builder.add(make_tx("b", reads=["x"], timestamp=2))
        graph = builder.take_graph()
        assert len(graph) == 2 and graph.edge_count == 1
        assert len(builder) == 0 and builder.edge_count == 0
        # The next block starts clean.
        assert builder.add(make_tx("c", reads=["x"], timestamp=1)) == 0


class TestSparseConstruction:
    """Frontier-chain construction: transitively redundant edges never exist.

    Per key the sparse builder keeps the last writer and the readers since
    that write; a new writer depends on the reader frontier (or the last
    writer when no reads intervened), a new reader depends on the last
    writer.  Waves, reachability and committed state are identical to the
    all-pairs reference graph — pinned generatively in
    ``test_graph_properties.py``; these tests pin the exact edge sets on
    hand-built shapes.
    """

    def _sparse(self, txs, mode=GraphMode.SINGLE_VERSION):
        return build_dependency_graph(txs, mode=mode)

    def test_writer_chain_keeps_only_adjacent_edges(self):
        txs = [make_tx(f"w{i}", writes=["x"], timestamp=i + 1) for i in range(4)]
        sparse = self._sparse(txs)
        assert set(sparse.dag.edges()) == {(0, 1), (1, 2), (2, 3)}
        all_pairs = all_pairs_graph(txs)
        assert all_pairs.edge_count == 6  # every ordered pair
        assert sparse.critical_path_length() == all_pairs.critical_path_length() == 4

    def test_reader_diamond(self):
        txs = [
            make_tx("w0", writes=["x"], timestamp=1),
            make_tx("r1", reads=["x"], timestamp=2),
            make_tx("r2", reads=["x"], timestamp=3),
            make_tx("w3", writes=["x"], timestamp=4),
        ]
        sparse = self._sparse(txs)
        # w3 depends on the reader frontier {r1, r2}, not on w0 directly —
        # w0 ~> w3 is transitively implied through either reader.
        assert set(sparse.dag.edges()) == {(0, 1), (0, 2), (1, 3), (2, 3)}
        assert all_pairs_graph(txs).edge_count == 5
        assert sparse.dag.longest_path_depths() == [0, 1, 1, 2]

    def test_write_after_frontier_clears_readers(self):
        txs = [
            make_tx("r0", reads=["x"], timestamp=1),
            make_tx("w1", writes=["x"], timestamp=2),
            make_tx("r2", reads=["x"], timestamp=3),
        ]
        sparse = self._sparse(txs)
        # r2 reads the version w1 wrote; its only edge is from w1 (the r0
        # frontier was consumed by w1's write).
        assert set(sparse.dag.edges()) == {(0, 1), (1, 2)}

    def test_read_and_write_of_same_key_takes_write_rule_once(self):
        txs = [
            make_tx("w0", writes=["x"], timestamp=1),
            make_tx("rw1", reads=["x"], writes=["x"], timestamp=2),
        ]
        sparse = self._sparse(txs)
        # One edge, no self-loop, no duplicate from the read rule.
        assert set(sparse.dag.edges()) == {(0, 1)}
        assert sparse.edge_count == 1

    def test_multi_version_mode_is_never_sparsified(self):
        txs = [
            make_tx("w0", writes=["x"], timestamp=1),
            make_tx("w1", writes=["x"], timestamp=2),
            make_tx("r2", reads=["x"], timestamp=3),
        ]
        sparse = self._sparse(txs, mode=GraphMode.MULTI_VERSION)
        dense = all_pairs_graph(txs, mode=GraphMode.MULTI_VERSION)
        # Only w->r edges exist under MVCC; writers are mutually unreachable,
        # so no edge is transitively redundant and sparse == all-pairs.
        assert set(sparse.dag.edges()) == set(dense.dag.edges()) == {(0, 2), (1, 2)}

    def test_streaming_sparse_reset_clears_frontiers(self):
        builder = StreamingGraphBuilder()
        builder.add(make_tx("w", writes=["x"], timestamp=1))
        builder.add(make_tx("r", reads=["x"], timestamp=2))
        builder.reset()
        # Neither the last writer nor the reader frontier may leak into the
        # next block.
        assert builder.add(make_tx("r2", reads=["x"], timestamp=1)) == 0
        assert builder.add(make_tx("w2", writes=["x"], timestamp=2)) == 1  # from r2 only

    def test_execution_on_sparse_graph_matches_all_pairs(self):
        from repro.core.execution import ExecutionEngine
        from repro.core.transaction import TransactionResult

        txs = [
            make_tx(f"t{i}", reads=[f"k{i % 3}"], writes=[f"k{(i + 1) % 3}"], timestamp=i + 1)
            for i in range(12)
        ]

        def runner(tx, state):
            updates = {k: str(state.get(k, 0)) + tx.tx_id for k in tx.write_set}
            return TransactionResult(tx_id=tx.tx_id, application=tx.application, updates=updates)

        sparse_state, dense_state = {}, {}
        sparse_results = ExecutionEngine(runner, sparse_state).execute_with_graph(self._sparse(txs))
        dense_results = ExecutionEngine(runner, dense_state).execute_with_graph(
            all_pairs_graph(txs)
        )
        assert sparse_state == dense_state
        assert sparse_results == dense_results


class TestNetworkxEquivalence:
    """The native adjacency core must match the seed's networkx results.

    networkx builds the pairwise graph; the all-pairs reference must equal it
    edge for edge, and the sparse production graph must keep a subset of its
    edges with the same closure-derived answers (critical path, components,
    topological order).
    """

    @staticmethod
    def _random_blocks(count=25, max_size=40, keys=8):
        import random

        rng = random.Random(1234)
        blocks = []
        for b in range(count):
            size = rng.randint(0, max_size)
            txs = []
            for i in range(size):
                reads = frozenset(
                    f"k{rng.randrange(keys)}" for _ in range(rng.randint(0, 3))
                )
                writes = frozenset(
                    f"k{rng.randrange(keys)}" for _ in range(rng.randint(0, 3))
                )
                txs.append(
                    make_tx(
                        f"b{b}t{i}",
                        reads=reads,
                        writes=writes,
                        application=f"app-{rng.randrange(3)}",
                        timestamp=i + 1,
                    )
                )
            blocks.append(txs)
        return blocks

    def test_matches_networkx_on_randomized_blocks(self):
        nx = pytest.importorskip("networkx")
        for txs in self._random_blocks():
            for mode in (GraphMode.SINGLE_VERSION, GraphMode.MULTI_VERSION):
                graph = build_dependency_graph(txs, mode=mode)
                reference = nx.DiGraph()
                reference.add_nodes_from(tx.tx_id for tx in txs)
                for i, earlier in enumerate(txs):
                    for later in txs[i + 1 :]:
                        if has_ordering_dependency(earlier, later, mode):
                            reference.add_edge(earlier.tx_id, later.tx_id)
                pairwise = set(reference.edges())
                assert {(e.source, e.target) for e in all_pairs_graph(txs, mode).edges()} == pairwise
                assert {(e.source, e.target) for e in graph.edges()} <= pairwise
                assert graph.critical_path_length() == (
                    nx.dag_longest_path_length(reference) + 1 if txs else 0
                )
                assert sorted(map(sorted, graph.components())) == sorted(
                    sorted(c) for c in nx.weakly_connected_components(reference)
                )
                expected_order = list(
                    nx.lexicographical_topological_sort(
                        reference, key=lambda t, _ts={tx.tx_id: tx.timestamp for tx in txs}: _ts[t]
                    )
                )
                assert graph.topological_order() == expected_order

    def test_to_networkx_debug_export(self):
        nx = pytest.importorskip("networkx")
        graph = build_dependency_graph(paper_example_block())
        exported = graph.to_networkx()
        assert isinstance(exported, nx.DiGraph)
        assert set(exported.nodes()) == set(graph.transaction_ids)
        assert {(u, v) for u, v in exported.edges()} == {
            (e.source, e.target) for e in graph.edges()
        }
        assert exported.edges["T1", "T4"]["kinds"] == (ConflictType.WRITE_READ,)


class TestGraphValidation:
    def test_duplicate_transaction_ids_rejected(self):
        txs = [make_tx("dup", timestamp=1), make_tx("dup", timestamp=2)]
        with pytest.raises(DependencyGraphError, match="duplicate transaction id 'dup'"):
            DependencyGraph(txs, [(), ()])

    def test_edge_against_timestamp_order_rejected(self):
        txs = [make_tx("a", timestamp=1), make_tx("b", timestamp=2)]
        # "b" (position 1) listed as a predecessor of "a" (position 0).
        with pytest.raises(DependencyGraphError):
            DependencyGraph(txs, [{1}, ()])

    def test_edge_with_unknown_transaction_rejected(self):
        txs = [make_tx("a", timestamp=1)]
        with pytest.raises(DependencyGraphError):
            DependencyGraph(txs, [{-1}])
        # One predecessor list per transaction, no more and no fewer.
        with pytest.raises(DependencyGraphError):
            DependencyGraph(txs, [(), ()])

    def test_unknown_lookup_rejected(self):
        graph = build_dependency_graph([make_tx("a", timestamp=1)])
        with pytest.raises(DependencyGraphError):
            graph.predecessors("ghost")

    def test_duplicate_timestamps_rejected(self):
        txs = [make_tx("a", writes=["x"], timestamp=1), make_tx("b", writes=["x"], timestamp=1)]
        with pytest.raises(DependencyGraphError):
            build_dependency_graph(txs)


# ----------------------------------------------------------- property tests
_keys = st.sampled_from(["k0", "k1", "k2", "k3", "k4", "k5"])


@st.composite
def _random_block(draw):
    size = draw(st.integers(min_value=1, max_value=12))
    txs = []
    for i in range(size):
        reads = draw(st.frozensets(_keys, max_size=3))
        writes = draw(st.frozensets(_keys, max_size=3))
        txs.append(make_tx(f"t{i}", reads=reads, writes=writes, timestamp=i + 1))
    return txs


class TestDependencyGraphProperties:
    @given(_random_block())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_pairwise_definition(self, txs):
        """The sparse construction orders exactly the pairs the paper's
        pairwise definition orders: its edges are pairwise conflicts and its
        transitive closure is the pairwise graph's."""
        graph = build_dependency_graph(txs)
        expected = set()
        for i, earlier in enumerate(txs):
            for later in txs[i + 1 :]:
                if has_ordering_dependency(earlier, later):
                    expected.add((earlier.tx_id, later.tx_id))
        assert {(e.source, e.target) for e in graph.edges()} <= expected
        # The reference has exactly the ``expected`` edges (pinned in
        # test_graph_properties.py), so equal ancestor sets mean the sparse
        # graph orders exactly the pairs the definition orders.
        assert ancestor_bitmasks(graph.dag) == ancestor_bitmasks(all_pairs_graph(txs).dag)

    @given(_random_block())
    @settings(max_examples=60, deadline=None)
    def test_graph_is_acyclic_and_edges_follow_timestamps(self, txs):
        graph = build_dependency_graph(txs)
        by_id = {tx.tx_id: tx for tx in txs}
        for edge in graph.edges():
            assert by_id[edge.source].timestamp < by_id[edge.target].timestamp
        order = graph.topological_order()
        assert len(order) == len(txs)

    @given(_random_block())
    @settings(max_examples=60, deadline=None)
    def test_multi_version_graph_is_subgraph_of_single_version(self, txs):
        single = all_pairs_graph(txs, mode=GraphMode.SINGLE_VERSION)
        multi = build_dependency_graph(txs, mode=GraphMode.MULTI_VERSION)
        single_edges = {(e.source, e.target) for e in single.edges()}
        multi_edges = {(e.source, e.target) for e in multi.edges()}
        assert multi_edges <= single_edges

    @given(_random_block())
    @settings(max_examples=40, deadline=None)
    def test_critical_path_bounded_by_block_size(self, txs):
        graph = build_dependency_graph(txs)
        assert 1 <= graph.critical_path_length() <= len(txs)
