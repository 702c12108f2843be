#!/usr/bin/env python3
"""A tour of the OXII core: dependency graphs and graph-ordered execution.

Recreates the paper's Figure 2 example block, prints its dependency graph,
and then executes a larger accounting block two ways — sequentially and wave
by wave following the dependency graph (what OXII executors do) — to show
that the graph-ordered schedule produces exactly the same state while each
wave holds many mutually independent transactions.

Usage::

    python examples/dependency_graph_tour.py
"""

from __future__ import annotations

import time

from repro import AccountingContract, build_dependency_graph
from repro.core.execution import ExecutionEngine
from repro.core.transaction import ReadWriteSet, Transaction
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


def figure2_example() -> None:
    """The block of Figure 2: five transactions, two applications."""
    print("=== Figure 2 example ===")
    specs = [
        ("T1", "app-1", ["a"], ["b"]),
        ("T5", "app-2", ["e"], ["d"]),
        ("T4", "app-2", ["b"], ["f"]),
        ("T3", "app-1", ["g"], ["e"]),
        ("T2", "app-2", ["h"], ["d"]),
    ]
    txs = [
        Transaction(tx_id=name, application=app, rw_set=ReadWriteSet.build(reads, writes),
                    timestamp=i + 1)
        for i, (name, app, reads, writes) in enumerate(specs)
    ]
    graph = build_dependency_graph(txs)
    print(f"block order: {[t.tx_id for t in txs]}")
    print(f"ordering dependencies: {sorted((e.source, e.target) for e in graph.edges())}")
    print(f"roots (immediately executable): {graph.roots()}")
    print(f"critical path length: {graph.critical_path_length()} of {len(graph)} transactions")
    print(f"cross-application edges: {sorted((e.source, e.target) for e in graph.cross_application_edges())}")
    print()


def graph_order_equals_sequential() -> None:
    """Execute a 200-transaction block by graph waves and check the state matches."""
    print("=== Graph-ordered execution of a contended accounting block ===")
    generator = WorkloadGenerator(WorkloadConfig(contention=0.3, seed=42))
    txs = [tx.with_timestamp(i + 1) for i, tx in enumerate(generator.generate(200))]
    initial_state = generator.initial_state(txs)
    graph = build_dependency_graph(txs)
    print(f"block: {len(graph)} transactions, {graph.edge_count} dependencies, "
          f"critical path {graph.critical_path_length()}, "
          f"widest wave {max(graph.parallelism_profile())}")

    contract = AccountingContract("any", enforce_ownership=True)
    runner = lambda tx, state: contract.execute(tx, state)  # noqa: E731

    sequential = ExecutionEngine(runner, dict(initial_state))
    start = time.perf_counter()
    sequential.execute_sequentially(txs)
    sequential_wall = time.perf_counter() - start

    graphed = ExecutionEngine(runner, dict(initial_state))
    start = time.perf_counter()
    graphed.execute_with_graph(graph)
    graphed_wall = time.perf_counter() - start

    assert graphed.state == sequential.state, "graph-ordered state diverged from sequential"
    total = AccountingContract.total_balance(graphed.state)
    print("states identical: True")
    print(f"total balance conserved: {total == AccountingContract.total_balance(initial_state)}")
    print(f"wall clock: sequential {sequential_wall * 1000:.1f} ms, "
          f"graph waves {graphed_wall * 1000:.1f} ms "
          f"(one process; the simulator models the paper's parallel executors)")
    print()


def main() -> None:
    figure2_example()
    graph_order_equals_sequential()


if __name__ == "__main__":
    main()
