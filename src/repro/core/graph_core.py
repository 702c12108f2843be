"""Dense integer-indexed DAG primitives for the dependency-graph hot path.

The orderer builds a dependency graph for every block and the executors
schedule off it (Section III-A), so graph construction and traversal sit on
the hottest loop of the whole system.  This module provides the purpose-built
core that :mod:`repro.core.dependency_graph` is layered on: nodes are dense
integers ``0 .. n-1``, adjacency is plain Python lists, in-degrees are
precomputed arrays, topological sorting is an iterative Kahn's algorithm,
the critical path is a single dynamic-programming pass and weak components
come from a union-find with path halving.

Dependency graphs have a structural invariant the core exploits: every edge
points from an earlier to a later timestamp, and nodes are indexed in
timestamp order, so every edge satisfies ``u < v``.  That makes the graph
acyclic *by construction* (no cycle check needed) and makes the identity
ordering ``0, 1, .., n-1`` a valid topological order.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core._accel import HAVE_NUMPY, np


class UnionFind:
    """Disjoint sets over ``0 .. n-1`` with path halving and union by size."""

    __slots__ = ("_parent", "_size")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("size must be non-negative")
        self._parent = list(range(n))
        self._size = [1] * n

    def find(self, x: int) -> int:
        """Representative of ``x``'s set."""
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return True

    def groups(self) -> List[List[int]]:
        """The sets, each sorted, ordered by their smallest member."""
        members: dict = {}
        for x in range(len(self._parent)):
            members.setdefault(self.find(x), []).append(x)
        return sorted(members.values(), key=lambda group: group[0])


class AdjacencyDAG:
    """A forward-only DAG over dense integer nodes.

    Every edge must satisfy ``u < v`` (dependency edges always point from an
    earlier to a later timestamp), which guarantees acyclicity without a
    cycle check and makes ``range(n)`` a valid topological order.
    """

    __slots__ = (
        "_n",
        "_succ",
        "_pred",
        "_in_degree",
        "_out_degree",
        "_edge_count",
        "_edge_arrays",
    )

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("node count must be non-negative")
        self._n = n
        self._succ: List[List[int]] = [[] for _ in range(n)]
        self._pred: List[List[int]] = [[] for _ in range(n)]
        self._in_degree = [0] * n
        self._out_degree = [0] * n
        self._edge_count = 0
        self._edge_arrays: Optional[Tuple[object, object]] = None

    # ------------------------------------------------------------------ build
    @classmethod
    def from_incoming(cls, incoming: Sequence[Iterable[int]]) -> "AdjacencyDAG":
        """Bulk-build from per-node predecessor collections (the fast path).

        ``incoming[v]`` holds the in-neighbours of ``v``; all must be smaller
        than ``v`` (checked once per node on the sorted list, not per edge).
        """
        dag = cls(len(incoming))
        succ, pred = dag._succ, dag._pred
        in_degree, out_degree = dag._in_degree, dag._out_degree
        edge_count = 0
        for v, collection in enumerate(incoming):
            if not collection:
                continue
            preds = sorted(collection) if len(collection) > 1 else list(collection)
            if preds[0] < 0 or preds[-1] >= v:
                raise ValueError(f"predecessors of {v} must lie in [0, {v})")
            pred[v] = preds
            in_degree[v] = len(preds)
            edge_count += len(preds)
            for u in preds:
                succ[u].append(v)
                out_degree[u] += 1
        dag._edge_count = edge_count
        return dag

    # ------------------------------------------------------------------ shape
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return self._edge_count

    def successors(self, u: int) -> List[int]:
        """Out-neighbours of ``u`` (the internal list — do not mutate)."""
        return self._succ[u]

    def predecessors(self, v: int) -> List[int]:
        """In-neighbours of ``v`` (the internal list — do not mutate)."""
        return self._pred[v]

    def in_degree(self, v: int) -> int:
        """Number of incoming edges of ``v``."""
        return self._in_degree[v]

    def in_degrees(self) -> List[int]:
        """A fresh copy of the in-degree array (countdown schedulers own it)."""
        return list(self._in_degree)

    def out_degree(self, u: int) -> int:
        """Number of outgoing edges of ``u``."""
        return self._out_degree[u]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Every edge ``(u, v)`` in node-then-insertion order."""
        for u, targets in enumerate(self._succ):
            for v in targets:
                yield (u, v)

    def roots(self) -> List[int]:
        """Nodes with no incoming edge, in index order."""
        in_degree = self._in_degree
        return [v for v in range(self._n) if in_degree[v] == 0]

    # -------------------------------------------------------------- traversal
    def topological_order(self) -> List[int]:
        """A valid topological order — the identity, by the ``u < v`` invariant."""
        return list(range(self._n))

    def kahn_order(self, priority: Optional[Callable[[int], object]] = None) -> List[int]:
        """Iterative Kahn's algorithm with an optional tie-breaking priority.

        With ``priority=None`` nodes are released in index order (a min-heap
        on the node index), which for timestamp-indexed dependency graphs is
        exactly the lexicographic-by-timestamp order.  Provided mostly for
        validation and for graphs built through other frontends.
        """
        remaining = list(self._in_degree)
        if priority is None:
            heap: List = [v for v in range(self._n) if remaining[v] == 0]
        else:
            heap = [(priority(v), v) for v in range(self._n) if remaining[v] == 0]
        heapq.heapify(heap)
        order: List[int] = []
        while heap:
            item = heapq.heappop(heap)
            v = item if priority is None else item[1]
            order.append(v)
            for w in self._succ[v]:
                remaining[w] -= 1
                if remaining[w] == 0:
                    heapq.heappush(heap, w if priority is None else (priority(w), w))
        if len(order) != self._n:
            raise ValueError("graph contains a cycle")
        return order

    def longest_path_depths(self) -> List[int]:
        """``depths[v]`` — edges on the longest path ending at ``v``.

        A single DP pass in index order (valid because edges point forward):
        ``depths[v] = 1 + max(depths[u] for u in pred(v))`` with roots at 0.
        """
        depths = [0] * self._n
        pred = self._pred
        for v in range(self._n):
            incoming = pred[v]
            if incoming:
                depths[v] = 1 + max(depths[u] for u in incoming)
        return depths

    def critical_path_length(self) -> int:
        """Nodes on the longest path (0 for the empty graph)."""
        if self._n == 0:
            return 0
        return max(self.longest_path_depths()) + 1

    def wave_partition(self, depths: Optional[Sequence[int]] = None) -> List[List[int]]:
        """Nodes grouped by dependency depth, block order inside each wave.

        Wave ``k`` is exactly the set of nodes whose longest incoming chain
        has ``k`` edges — the same stratification the countdown scheduler
        produces when every node settles as soon as it executes (proven by
        ``test_countdown_waves_are_a_topological_stratification``), so a
        whole-block executor can dispatch wave by wave without paying the
        per-edge settle bookkeeping.  Pass precomputed ``depths`` to avoid
        recomputing the longest-path DP.

        The bucketing is vectorised with numpy when available: a stable
        argsort on the depth array yields every wave already in block order.
        """
        if depths is None:
            depths = self.longest_path_depths()
        n = self._n
        if n == 0:
            return []
        if HAVE_NUMPY:
            arr = np.asarray(depths, dtype=np.int64)
            counts = np.bincount(arr)
            order = np.argsort(arr, kind="stable")
            waves: List[List[int]] = []
            start = 0
            for count in counts.tolist():
                waves.append(order[start : start + count].tolist())
                start += count
            return waves
        waves = [[] for _ in range(max(depths) + 1)]
        for v, d in enumerate(depths):
            waves[d].append(v)
        return waves

    def edge_index_arrays(self) -> Optional[Tuple[object, object]]:
        """The edges as parallel ``(sources, targets)`` numpy arrays, cached.

        Returns ``None`` when numpy is unavailable — callers fall back to the
        per-edge Python loop.  Built once per graph (graphs are immutable)
        so every vectorised whole-block pass over the edges shares the
        arrays.
        """
        if not HAVE_NUMPY:
            return None
        if self._edge_arrays is None:
            m = self._edge_count
            sources = np.empty(m, dtype=np.int64)
            targets = np.empty(m, dtype=np.int64)
            offset = 0
            for u, succ in enumerate(self._succ):
                if not succ:
                    continue
                end = offset + len(succ)
                sources[offset:end] = u
                targets[offset:end] = succ
                offset = end
            self._edge_arrays = (sources, targets)
        return self._edge_arrays

    def components(self) -> List[List[int]]:
        """Weakly connected components via union-find, smallest member first."""
        uf = UnionFind(self._n)
        for u, targets in enumerate(self._succ):
            for v in targets:
                uf.union(u, v)
        return uf.groups()


def depth_histogram(depths: Sequence[int]) -> List[int]:
    """Entry ``i`` is how many nodes sit at dependency depth ``i``."""
    if not depths:
        return []
    if HAVE_NUMPY:
        return np.bincount(np.asarray(depths, dtype=np.int64)).tolist()
    histogram = [0] * (max(depths) + 1)
    for d in depths:
        histogram[d] += 1
    return histogram
