"""Micro-benchmarks of the hot code paths (real wall-clock measurements).

Unlike the figure benchmarks — which report *simulated* throughput — these
measure the Python implementation itself: dependency-graph construction,
block sealing and dependency-graph execution.
"""

from __future__ import annotations

import pytest

from repro.core.block import Block
from repro.core.dependency_graph import build_dependency_graph
from repro.core.execution import ExecutionEngine
from repro.core.transaction import TransactionResult
from repro.crypto.merkle import MerkleTree
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


def _block_txs(count: int, contention: float):
    generator = WorkloadGenerator(WorkloadConfig(contention=contention, seed=11))
    return [tx.with_timestamp(i + 1) for i, tx in enumerate(generator.generate(count))]


@pytest.mark.parametrize("block_size", [100, 400])
@pytest.mark.parametrize("contention", [0.0, 0.8])
def test_dependency_graph_construction(benchmark, block_size, contention):
    txs = _block_txs(block_size, contention)
    graph = benchmark(build_dependency_graph, txs)
    assert len(graph) == block_size


@pytest.mark.parametrize("block_size", [200])
def test_block_sealing_with_merkle_root(benchmark, block_size):
    txs = _block_txs(block_size, 0.0)

    def seal():
        return Block.create(sequence=1, transactions=txs, previous_hash="0" * 64)

    block = benchmark(seal)
    assert block.verify_merkle_root()


def test_merkle_proof_generation(benchmark):
    tree = MerkleTree([f"tx-{i}" for i in range(512)])
    proof = benchmark(tree.proof, 255)
    assert MerkleTree.verify_proof("tx-255", proof, tree.root)


def test_graph_execution(benchmark):
    txs = _block_txs(64, 0.2)
    graph = build_dependency_graph(txs)

    def runner(tx, state):
        return TransactionResult(tx_id=tx.tx_id, application=tx.application,
                                 updates={key: 1 for key in tx.write_set})

    def run():
        return ExecutionEngine(runner, state={}).execute_with_graph(graph)

    results = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(results) == 64
