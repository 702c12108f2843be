"""Unit tests for transactions, read/write sets and results."""

from __future__ import annotations

import pytest

from repro.common.errors import TransactionError
from repro.core.transaction import (
    ReadWriteSet,
    Transaction,
    TransactionResult,
    summarize_applications,
    validate_block_timestamps,
)
from tests.conftest import make_tx


class TestReadWriteSet:
    def test_build_normalises_iterables(self):
        rw = ReadWriteSet.build(reads=["a", "a", "b"], writes=("b",))
        assert rw.reads == frozenset({"a", "b"})
        assert rw.writes == frozenset({"b"})
        assert rw.keys == frozenset({"a", "b"})

    def test_read_only(self):
        assert ReadWriteSet.build(reads=["x"]).is_read_only()
        assert not ReadWriteSet.build(writes=["x"]).is_read_only()

    def test_sorted_keys_is_memoised_and_sorted(self):
        rw = ReadWriteSet.build(reads=["b", "a"], writes=["c", "a"])
        first = rw.sorted_keys()
        assert first == ("a", "b", "c")
        assert rw.sorted_keys() is first  # memoised on the hot path


class TestTransaction:
    def test_requires_id_and_application(self):
        with pytest.raises(TransactionError):
            make_tx("", reads=["a"])
        with pytest.raises(TransactionError):
            Transaction(tx_id="t", application="", rw_set=ReadWriteSet())

    def test_paper_notation_properties(self):
        tx = make_tx("t1", reads=["1001"], writes=["1001", "1002"])
        assert tx.read_set == frozenset({"1001"})
        assert tx.write_set == frozenset({"1001", "1002"})

    def test_with_timestamp_preserves_everything_else(self):
        tx = make_tx("t1", reads=["a"], writes=["b"], client="alice")
        stamped = tx.with_timestamp(7)
        assert stamped.timestamp == 7
        assert stamped.tx_id == tx.tx_id
        assert stamped.client == "alice"
        assert stamped.rw_set == tx.rw_set

    def test_digest_is_stable_and_distinct(self):
        tx1 = make_tx("t1", reads=["a"])
        tx2 = make_tx("t2", reads=["a"])
        assert tx1.digest() == make_tx("t1", reads=["a"]).digest()
        assert tx1.digest() != tx2.digest()

    def test_digest_changes_with_timestamp(self):
        tx = make_tx("t1", reads=["a"])
        assert tx.digest() != tx.with_timestamp(5).digest()


class TestTransactionResult:
    def test_abort_helper(self):
        tx = make_tx("t1", writes=["x"])
        result = TransactionResult.abort(tx, executed_by="e1")
        assert result.is_abort
        assert result.updates == {}
        assert result.tx_id == "t1"

    def test_matches_ignores_executor(self):
        a = TransactionResult(tx_id="t", application="app-0", updates={"x": 1}, executed_by="e1")
        b = TransactionResult(tx_id="t", application="app-0", updates={"x": 1}, executed_by="e2")
        c = TransactionResult(tx_id="t", application="app-0", updates={"x": 2}, executed_by="e3")
        assert a.matches(b)
        assert not a.matches(c)

    def test_matches_requires_same_status(self):
        tx = make_tx("t1", writes=["x"])
        ok = TransactionResult(tx_id="t1", application="app-0", updates={})
        assert not ok.matches(TransactionResult.abort(tx))


class TestBlockHelpers:
    def test_validate_block_timestamps_accepts_increasing(self):
        txs = [make_tx(f"t{i}", timestamp=i + 1) for i in range(5)]
        validate_block_timestamps(txs)

    def test_validate_block_timestamps_rejects_duplicates(self):
        txs = [make_tx("t1", timestamp=1), make_tx("t2", timestamp=1)]
        with pytest.raises(TransactionError):
            validate_block_timestamps(txs)

    def test_summarize_applications(self):
        txs = [
            make_tx("t1", application="app-0"),
            make_tx("t2", application="app-1"),
            make_tx("t3", application="app-0"),
        ]
        assert summarize_applications(txs) == {"app-0": 2, "app-1": 1}
