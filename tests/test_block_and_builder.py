"""Tests for blocks, the hash chain linkage and the block-cut conditions."""

from __future__ import annotations

import pytest

from benchmarks.seed_reference import all_pairs_graph
from repro.common.config import BlockCutPolicy
from repro.common.errors import LedgerError
from repro.core.block import Block
from repro.core.block_builder import BlockBuilder, CutReason
from repro.core.dependency_graph import build_dependency_graph
from tests.conftest import make_tx


def _stamped(n, prefix="t"):
    return [make_tx(f"{prefix}{i}", writes=[f"k{i}"], timestamp=i + 1) for i in range(n)]


class TestBlock:
    def test_genesis_block(self):
        genesis = Block.genesis()
        assert genesis.sequence == 0
        assert len(genesis) == 0
        assert genesis.verify_merkle_root()

    def test_create_and_verify_chain_link(self):
        genesis = Block.genesis()
        block = Block.create(sequence=1, transactions=_stamped(3), previous_hash=genesis.digest())
        assert block.verify_links_to(genesis)
        assert block.verify_merkle_root()

    def test_header_count_must_match(self):
        block = Block.create(sequence=1, transactions=_stamped(2), previous_hash="00")
        with pytest.raises(LedgerError):
            Block(header=block.header, transactions=block.transactions[:1])

    def test_applications_and_filtering(self):
        txs = [
            make_tx("a", application="app-0", timestamp=1),
            make_tx("b", application="app-1", timestamp=2),
            make_tx("c", application="app-0", timestamp=3),
        ]
        block = Block.create(sequence=1, transactions=txs, previous_hash="00")
        assert block.applications() == {"app-0", "app-1"}
        assert [t.tx_id for t in block.transactions_for("app-0")] == ["a", "c"]

    def test_dependency_graph_must_cover_block(self):
        txs = _stamped(3)
        graph = build_dependency_graph(txs[:2])
        with pytest.raises(LedgerError):
            Block.create(sequence=1, transactions=txs, previous_hash="00", dependency_graph=graph)

    def test_with_dependency_graph(self):
        txs = _stamped(3)
        block = Block.create(sequence=1, transactions=txs, previous_hash="00")
        graph = build_dependency_graph(txs)
        assert block.with_dependency_graph(graph).dependency_graph is graph

    def test_digest_changes_with_content(self):
        a = Block.create(sequence=1, transactions=_stamped(2), previous_hash="00")
        b = Block.create(sequence=1, transactions=_stamped(3), previous_hash="00")
        assert a.digest() != b.digest()

    def test_canonical_bytes_memoised_and_consistent(self):
        from repro.crypto.hashing import canonical_bytes, content_hash

        block = Block.create(sequence=1, transactions=_stamped(2), previous_hash="00")
        first = block.canonical_bytes()
        assert block.canonical_bytes() is first  # computed once per sealed block
        # The memo must be byte-identical to the generic canonical_tuple()
        # encoding, so message hashes (NEWBLOCK bodies, consensus proposals)
        # agree whichever path encodes the block.
        assert canonical_bytes(block) == first
        # And two equal blocks hash identically through either path.
        same = Block.create(sequence=1, transactions=block.transactions, previous_hash="00")
        assert content_hash(same) == content_hash(block)


class TestBlockBuilderCutConditions:
    def test_cut_on_max_transactions(self):
        builder = BlockBuilder(BlockCutPolicy(max_transactions=3, max_bytes=10**9, max_delay=10))
        assert builder.add(make_tx("a"), now=0.0) is None
        assert builder.add(make_tx("b"), now=0.1) is None
        pending = builder.add(make_tx("c"), now=0.2)
        assert pending is not None
        assert pending.reason is CutReason.MAX_TRANSACTIONS
        assert len(pending.transactions) == 3
        assert builder.pending_count == 0

    def test_cut_on_max_bytes(self):
        builder = BlockBuilder(
            BlockCutPolicy(max_transactions=1000, max_bytes=512, max_delay=10), tx_size_bytes=256
        )
        assert builder.add(make_tx("a"), now=0.0) is None
        pending = builder.add(make_tx("b"), now=0.1)
        assert pending is not None
        assert pending.reason is CutReason.MAX_BYTES

    def test_cut_on_timeout(self):
        builder = BlockBuilder(BlockCutPolicy(max_transactions=100, max_bytes=10**9, max_delay=0.5))
        builder.add(make_tx("a"), now=0.0)
        assert not builder.timeout_due(0.3)
        assert builder.timeout_due(0.6)
        pending = builder.cut_on_timeout(0.6)
        assert pending is not None
        assert pending.reason is CutReason.TIMEOUT

    def test_timeout_with_empty_block_is_noop(self):
        builder = BlockBuilder(BlockCutPolicy(max_delay=0.1))
        assert not builder.timeout_due(5.0)
        assert builder.cut_on_timeout(5.0) is None

    def test_force_cut(self):
        builder = BlockBuilder(BlockCutPolicy())
        builder.add(make_tx("a"), now=0.0)
        pending = builder.force_cut(1.0)
        assert pending is not None
        assert pending.reason is CutReason.FORCED
        assert builder.force_cut(2.0) is None

    def test_timestamps_are_strictly_increasing_across_blocks(self):
        builder = BlockBuilder(BlockCutPolicy(max_transactions=2))
        first = builder.add(make_tx("a"), now=0.0) or builder.add(make_tx("b"), now=0.0)
        second = builder.add(make_tx("c"), now=0.0) or builder.add(make_tx("d"), now=0.0)
        stamps = [tx.timestamp for tx in first.transactions] + [
            tx.timestamp for tx in second.transactions
        ]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)


class TestBlockBuilderSealing:
    def test_seal_chains_blocks(self):
        builder = BlockBuilder(BlockCutPolicy(max_transactions=2), generate_graphs=False)
        pending1 = builder.add(make_tx("a"), 0.0) or builder.add(make_tx("b"), 0.0)
        block1 = builder.seal(pending1, now=0.1)
        pending2 = builder.add(make_tx("c"), 0.2) or builder.add(make_tx("d"), 0.2)
        block2 = builder.seal(pending2, now=0.3)
        assert block1.sequence == 1
        assert block2.sequence == 2
        assert block2.verify_links_to(block1)

    def test_seal_generates_dependency_graph_when_enabled(self):
        builder = BlockBuilder(BlockCutPolicy(max_transactions=2), generate_graphs=True)
        pending = builder.add(make_tx("a", writes=["x"]), 0.0) or builder.add(
            make_tx("b", writes=["x"]), 0.0
        )
        block = builder.seal(pending, now=0.1)
        assert block.dependency_graph is not None
        assert block.dependency_graph.edge_count == 1

    def test_cut_attaches_incrementally_grown_graph(self):
        """The orderer grows the graph as the block fills; seal reuses it."""
        builder = BlockBuilder(BlockCutPolicy(max_transactions=3), generate_graphs=True)
        pending = None
        for i in range(3):
            pending = builder.add(make_tx(f"t{i}", reads=["hot"], writes=["hot"]), 0.0) or pending
        assert pending.graph is not None
        assert len(pending.graph) == 3
        block = builder.seal(pending, now=0.1)
        assert block.dependency_graph is pending.graph
        # The incrementally grown graph equals the batch build (sparse: a
        # 3-writer chain keeps 2 edges, the t0->t2 edge is transitively
        # implied).
        batch = build_dependency_graph(pending.transactions)
        assert block.dependency_graph.canonical_tuple() == batch.canonical_tuple()
        assert block.dependency_graph.edge_count == 2
        all_pairs = all_pairs_graph(pending.transactions)
        assert all_pairs.edge_count == 3
        assert block.dependency_graph.critical_path_length() == all_pairs.critical_path_length()

    def test_seal_rebuilds_graph_on_mode_mismatch(self):
        """A pending graph of the wrong datastore mode is rebuilt, not reused."""
        from repro.core.block_builder import PendingBlock
        from repro.core.dependency_graph import GraphMode

        builder = BlockBuilder(BlockCutPolicy(max_transactions=10), generate_graphs=True)
        assert builder.graph_mode is GraphMode.SINGLE_VERSION
        txs = tuple(
            make_tx(f"t{i}", reads=["hot"], writes=["hot"], timestamp=i + 1) for i in range(3)
        )
        foreign = build_dependency_graph(txs, mode=GraphMode.MULTI_VERSION)
        pending = PendingBlock(
            transactions=txs, reason=CutReason.FORCED, opened_at=0.0, cut_at=0.0, graph=foreign
        )
        block = builder.seal(pending, now=0.1)
        assert block.dependency_graph is not foreign
        assert block.dependency_graph.mode is GraphMode.SINGLE_VERSION
        assert block.dependency_graph.edge_count == 2

    def test_incremental_graph_does_not_leak_across_blocks(self):
        builder = BlockBuilder(BlockCutPolicy(max_transactions=1), generate_graphs=True)
        first = builder.add(make_tx("a", writes=["hot"]), 0.0)
        second = builder.add(make_tx("b", reads=["hot"]), 0.1)
        # "b" reads what "a" wrote, but they sit in different blocks: no edge.
        assert first.graph.edge_count == 0
        assert second.graph.edge_count == 0
        assert len(second.graph) == 1

    def test_seal_rebuilds_graph_for_foreign_pending(self):
        from repro.core.block_builder import PendingBlock

        builder = BlockBuilder(BlockCutPolicy(max_transactions=10), generate_graphs=True)
        txs = tuple(make_tx(f"t{i}", writes=["hot"], timestamp=i + 1) for i in range(2))
        pending = PendingBlock(transactions=txs, reason=CutReason.FORCED, opened_at=0.0, cut_at=0.0)
        block = builder.seal(pending, now=0.1)
        assert block.dependency_graph is not None
        assert block.dependency_graph.edge_count == 1

    def test_seal_without_graphs(self):
        builder = BlockBuilder(BlockCutPolicy(max_transactions=1), generate_graphs=False)
        pending = builder.add(make_tx("a"), 0.0)
        assert builder.seal(pending, 0.0).dependency_graph is None

    def test_identical_inputs_produce_identical_blocks_on_two_builders(self):
        """Determinism across orderers: same order in, same sealed blocks out."""
        policy = BlockCutPolicy(max_transactions=3)
        builders = [BlockBuilder(policy), BlockBuilder(policy)]
        blocks = []
        for builder in builders:
            pending = None
            for i in range(3):
                pending = builder.add(make_tx(f"t{i}", writes=["hot"]), now=0.0) or pending
            blocks.append(builder.seal(pending, now=1.0))
        assert blocks[0].digest() == blocks[1].digest()
