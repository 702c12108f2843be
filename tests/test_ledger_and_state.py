"""Tests for the ledger hash chain and the world state."""

from __future__ import annotations

import pytest

from repro.common.errors import LedgerError
from repro.core.block import Block
from repro.ledger import Ledger, WorldState
from tests.conftest import make_tx


def _block_chain(lengths):
    """Build a valid chain of blocks with the given transaction counts."""
    blocks = []
    previous = Block.genesis()
    for index, count in enumerate(lengths, start=1):
        txs = [make_tx(f"b{index}-t{i}", writes=[f"k{i}"], timestamp=i + 1) for i in range(count)]
        block = Block.create(sequence=index, transactions=txs, previous_hash=previous.digest())
        blocks.append(block)
        previous = block
    return blocks


class TestLedger:
    def test_starts_with_genesis(self):
        ledger = Ledger()
        assert ledger.height == 0
        assert len(ledger) == 1

    def test_append_and_verify(self):
        ledger = Ledger()
        for block in _block_chain([2, 3, 1]):
            ledger.append(block)
        assert ledger.height == 3
        assert ledger.transaction_count() == 6
        assert ledger.verify_chain()
        assert ledger.contains_transaction("b2-t0")
        assert not ledger.contains_transaction("ghost")

    def test_rejects_wrong_sequence(self):
        ledger = Ledger()
        blocks = _block_chain([1, 1])
        with pytest.raises(LedgerError):
            ledger.append(blocks[1])  # skipping sequence 1

    def test_rejects_broken_hash_link(self):
        ledger = Ledger()
        good = _block_chain([1])[0]
        bad = Block.create(sequence=1, transactions=good.transactions, previous_hash="0" * 64)
        with pytest.raises(LedgerError):
            ledger.append(bad)

    def test_block_lookup(self):
        ledger = Ledger()
        blocks = _block_chain([1, 2])
        for block in blocks:
            ledger.append(block)
        assert ledger.block(2).sequence == 2
        with pytest.raises(LedgerError):
            ledger.block(9)

    def test_identical_appends_produce_identical_tips(self):
        """Replicas applying the same blocks end with the same tip digest."""
        blocks = _block_chain([2, 2])
        ledgers = [Ledger(), Ledger()]
        for ledger in ledgers:
            for block in blocks:
                ledger.append(block)
        assert ledgers[0].tip.digest() == ledgers[1].tip.digest()


class TestWorldState:
    def test_get_put_and_versions(self):
        state = WorldState({"a": 1})
        assert state.get("a") == 1
        assert state.version("a") == 0
        assert state.version("missing") == -1
        assert state.put("a", 2) == 1
        assert state.put("b", 10) == 0
        assert state.read("a") == (2, 1)

    def test_apply_updates_bumps_versions(self):
        state = WorldState()
        state.apply_updates({"x": 1, "y": 2})
        state.apply_updates({"x": 3})
        assert state.get("x") == 3
        assert state.version("x") == 1
        assert state.version("y") == 0

    def test_snapshot_is_immutable_view(self):
        state = WorldState({"a": 1})
        snapshot = state.snapshot()
        state.put("a", 99)
        assert snapshot["a"] == 1
        assert snapshot.version("a") == 0
        assert state.get("a") == 99
        assert snapshot.get_value("missing", "default") == "default"
        assert snapshot.read_versions(["a", "missing"]) == {"a": 0, "missing": -1}

    def test_copy_is_independent(self):
        state = WorldState({"a": 1})
        clone = state.copy()
        clone.put("a", 2)
        assert state.get("a") == 1

    def test_copy_is_independent_in_both_directions(self):
        state = WorldState({"a": 1})
        clone = state.copy()
        state.put("a", 99)
        assert clone.get("a") == 1
        assert state.get("a") == 99

    def test_successive_snapshots_freeze_distinct_states(self):
        """Copy-on-write: each snapshot keeps the state it was taken from."""
        state = WorldState({"a": 0})
        snapshots = []
        for value in (1, 2, 3):
            snapshots.append(state.snapshot())
            state.put("a", value)
        assert [s.get_value("a") for s in snapshots] == [0, 1, 2]
        assert [s.version("a") for s in snapshots] == [0, 1, 2]
        assert state.get("a") == 3

    def test_snapshot_after_batched_results(self):
        class _Result:
            def __init__(self, updates):
                self.updates = updates

        state = WorldState({"a": 1})
        before = state.snapshot()
        state.apply_results([_Result({"a": 2}), _Result({"b": 5}), _Result({})])
        assert before.get_value("a") == 1 and before.get_value("b") is None
        assert state.get("a") == 2 and state.version("a") == 1
        assert state.get("b") == 5 and state.version("b") == 0

    def test_public_snapshot_constructor_still_copies(self):
        from repro.ledger.state import StateSnapshot, VersionedValue

        data = {"a": VersionedValue(value=1, version=0)}
        snapshot = StateSnapshot(data)
        data["a"] = VersionedValue(value=9, version=1)
        assert snapshot["a"] == 1

    def test_mapping_protocol(self):
        state = WorldState({"a": 1, "b": 2})
        assert "a" in state
        assert len(state) == 2
        assert sorted(state) == ["a", "b"]
        assert state.as_dict() == {"a": 1, "b": 2}
