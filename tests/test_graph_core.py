"""Tests for the dense integer-indexed DAG primitives behind DependencyGraph."""

from __future__ import annotations

import random

import pytest

from repro.core.dependency_graph import build_dependency_graph
from repro.core.graph_core import AdjacencyDAG, UnionFind, depth_histogram
from tests.conftest import make_tx


class TestUnionFind:
    def test_singletons(self):
        uf = UnionFind(4)
        assert uf.groups() == [[0], [1], [2], [3]]

    def test_union_merges_and_reports(self):
        uf = UnionFind(5)
        assert uf.union(0, 3)
        assert uf.union(3, 4)
        assert not uf.union(0, 4)  # already together
        assert uf.find(0) == uf.find(4)
        assert uf.groups() == [[0, 3, 4], [1], [2]]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)


def _dag(n, edges):
    """An AdjacencyDAG over ``n`` nodes holding ``edges`` (each ``u < v``)."""
    incoming = [[] for _ in range(n)]
    for u, v in edges:
        incoming[v].append(u)
    return AdjacencyDAG.from_incoming(incoming)


class TestAdjacencyDAG:
    def test_from_incoming_builds_both_directions(self):
        dag = AdjacencyDAG.from_incoming([(), (), {0, 1}, [2]])
        assert dag.edge_count == 3
        assert dag.roots() == [0, 1]
        assert dag.predecessors(2) == [0, 1]
        assert dag.successors(0) == [2] and dag.successors(2) == [3]
        assert dag.longest_path_depths() == [0, 0, 1, 2]

    def test_from_incoming_rejects_forward_references(self):
        with pytest.raises(ValueError):
            AdjacencyDAG.from_incoming([(), {1}])  # 1 is not < 1
        with pytest.raises(ValueError):
            AdjacencyDAG.from_incoming([(), {-1}])
        with pytest.raises(ValueError):
            AdjacencyDAG.from_incoming([{1}, ()])  # must point forward

    def test_structure_queries(self):
        dag = _dag(5, [(0, 1), (1, 4), (2, 3)])
        assert dag.critical_path_length() == 3  # 0 -> 1 -> 4
        assert dag.components() == [[0, 1, 4], [2, 3]]
        assert sorted(dag.edges()) == [(0, 1), (1, 4), (2, 3)]
        assert dag.in_degree(4) == 1 and dag.out_degree(0) == 1
        assert AdjacencyDAG(0).critical_path_length() == 0

    def test_kahn_matches_identity_order(self):
        """The documented invariant: with forward-only edges, releasing the
        lowest available index at each Kahn step is exactly the identity."""
        rng = random.Random(42)
        for _ in range(20):
            n = rng.randint(1, 30)
            dag = AdjacencyDAG.from_incoming(
                [rng.sample(range(v), min(v, rng.randint(0, 3))) for v in range(n)]
            )
            assert dag.kahn_order() == list(range(n))
            assert dag.topological_order() == list(range(n))

    def test_kahn_priority_breaks_ties(self):
        dag = _dag(4, [(0, 3)])
        # 1 and 2 are free; a reversed priority releases them before 0's chain.
        order = dag.kahn_order(priority=lambda v: -v)
        assert order.index(2) < order.index(1)
        assert order.index(0) < order.index(3)
        assert sorted(order) == [0, 1, 2, 3]

    def test_kahn_validates_dependency_graph_topology(self):
        """Cross-check: the lexicographic Kahn order of a real dependency
        graph equals block order (what DependencyGraph.topological_order
        returns without running Kahn at all)."""
        rng = random.Random(7)
        keys = [f"k{i}" for i in range(6)]
        txs = [
            make_tx(
                f"t{i}",
                reads=rng.sample(keys, 2),
                writes=rng.sample(keys, 2),
                timestamp=i + 1,
            )
            for i in range(25)
        ]
        graph = build_dependency_graph(txs)
        dag = AdjacencyDAG.from_incoming(
            [
                [graph.transaction_ids.index(p) for p in graph.predecessors(tx_id)]
                for tx_id in graph.transaction_ids
            ]
        )
        assert [graph.transaction_ids[v] for v in dag.kahn_order()] == graph.topological_order()


def test_depth_histogram():
    assert depth_histogram([]) == []
    assert depth_histogram([0, 0, 1, 2, 2, 2]) == [2, 1, 3]
