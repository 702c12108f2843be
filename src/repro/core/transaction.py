"""Transactions with pre-declared read/write sets.

Section III-A of the paper assumes that each transaction's read-set ``rho(T)``
and write-set ``omega(T)`` are pre-declared (or obtainable by static
analysis), and that each transaction carries a timestamp ``ts(T)`` consistent
with its position in the block.  :class:`Transaction` captures exactly that,
plus the application the transaction belongs to and an opaque payload that the
application's smart contract interprets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

import hashlib

from repro.common.errors import TransactionError
from repro.crypto.hashing import content_hash, encode_object_tuple


@dataclass(frozen=True)
class ReadWriteSet:
    """The pre-declared read and write sets of a transaction."""

    reads: FrozenSet[str] = frozenset()
    writes: FrozenSet[str] = frozenset()

    @classmethod
    def build(cls, reads: Iterable[str] = (), writes: Iterable[str] = ()) -> "ReadWriteSet":
        """Normalise arbitrary iterables of keys into a ReadWriteSet."""
        return cls(reads=frozenset(reads), writes=frozenset(writes))

    @property
    def keys(self) -> FrozenSet[str]:
        """Every record the transaction touches."""
        return self.reads | self.writes

    def sorted_keys(self) -> Tuple[str, ...]:
        """Every touched record key in sorted order, computed once.

        The hot consumers — endorsement read-version collection and the
        contract replay cache — need a deterministic key order per
        transaction, and the set union + sort is worth not repeating per
        executing peer.
        """
        cached = self.__dict__.get("_sorted_keys")
        if cached is None:
            cached = tuple(sorted(self.reads | self.writes))
            object.__setattr__(self, "_sorted_keys", cached)
        return cached

    def is_read_only(self) -> bool:
        """True if the transaction writes nothing."""
        return not self.writes

    def canonical_tuple(self) -> tuple:
        return ("rwset", tuple(sorted(self.reads)), tuple(sorted(self.writes)))

    def canonical_bytes(self) -> bytes:
        """Canonical encoding, computed once (read/write sets are immutable).

        Transaction copies made by :meth:`Transaction.with_timestamp` and
        :meth:`Transaction.with_submitted_at` share the same ``ReadWriteSet``
        object, so the sorted-set encoding is paid once per logical
        transaction rather than once per copy per consumer.
        """
        cached = self.__dict__.get("_canonical_bytes")
        if cached is None:
            cached = encode_object_tuple(self.canonical_tuple())
            object.__setattr__(self, "_canonical_bytes", cached)
        return cached


@dataclass(frozen=True)
class Transaction:
    """A client request ordered into a block.

    Attributes mirror the paper's notation:

    * ``tx_id`` — unique identifier.
    * ``application`` — the application (smart contract) the transaction is for.
    * ``rw_set`` — ``rho(T)`` and ``omega(T)``.
    * ``timestamp`` — ``ts(T)``; within a block, earlier transactions have
      strictly smaller timestamps.
    * ``payload`` — contract-specific arguments (e.g. transfer amount).
    * ``client`` / ``client_timestamp`` — issuing client and its local
      timestamp, used for exactly-once semantics.
    """

    tx_id: str
    application: str
    rw_set: ReadWriteSet
    timestamp: int = 0
    payload: Mapping[str, Any] = field(default_factory=dict)
    client: str = ""
    client_timestamp: float = 0.0
    submitted_at: float = 0.0

    def __post_init__(self) -> None:
        if not self.tx_id:
            raise TransactionError("transaction id must be non-empty")
        if not self.application:
            raise TransactionError("transaction application must be non-empty")

    # --------------------------------------------------------------- notation
    @property
    def read_set(self) -> FrozenSet[str]:
        """``rho(T)`` — records read by this transaction."""
        return self.rw_set.reads

    @property
    def write_set(self) -> FrozenSet[str]:
        """``omega(T)`` — records written by this transaction."""
        return self.rw_set.writes

    def with_timestamp(self, timestamp: int) -> "Transaction":
        """Return a copy stamped with its position in the total order.

        Copies go through ``__dict__`` directly (one per ordered transaction,
        on the hot path): the original's fields are already validated, so
        re-running the constructor would only repeat work.  The payload object
        is shared, so its content hash carries over; the full canonical
        encoding does not (it covers the timestamp).
        """
        copy = object.__new__(Transaction)
        state = self.__dict__.copy()
        state["timestamp"] = timestamp
        state.pop("_canonical_bytes", None)
        state.pop("_digest", None)
        copy.__dict__.update(state)
        return copy

    def with_submitted_at(self, submitted_at: float) -> "Transaction":
        """Return a copy recording when the client submitted the transaction.

        Same direct ``__dict__`` copy as :meth:`with_timestamp` (one per
        submission).  ``submitted_at`` is excluded from canonical_tuple(), so
        every canonical memo transfers verbatim to the stamped copy.
        """
        copy = object.__new__(Transaction)
        state = self.__dict__.copy()
        state["submitted_at"] = submitted_at
        copy.__dict__.update(state)
        return copy

    def payload_hash(self) -> str:
        """Content hash of the payload mapping, computed once.

        The payload dict is shared between the copies made by
        :meth:`with_timestamp`/:meth:`with_submitted_at`, which forward the
        memo, so the payload is canonicalised once per logical transaction
        no matter how many stamped copies the pipeline creates.
        """
        cached = self.__dict__.get("_payload_hash")
        if cached is None:
            cached = content_hash(dict(self.payload))
            object.__setattr__(self, "_payload_hash", cached)
        return cached

    def canonical_tuple(self) -> tuple:
        return (
            "tx",
            self.tx_id,
            self.application,
            self.rw_set.canonical_tuple(),
            self.timestamp,
            self.payload_hash(),
            self.client,
            self.client_timestamp,
        )

    def canonical_bytes(self) -> bytes:
        """Canonical encoding of the transaction, computed once.

        The same bytes back the Merkle leaf, the block hash, signatures and
        COMMIT matching; memoising them here (transactions are immutable)
        means the canonical serialisation is paid once per transaction
        instead of once per consumer.
        """
        cached = self.__dict__.get("_canonical_bytes")
        if cached is None:
            cached = encode_object_tuple(self.canonical_tuple())
            object.__setattr__(self, "_canonical_bytes", cached)
        return cached

    def digest(self) -> str:
        """Content hash of the transaction (cached — transactions are immutable)."""
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = hashlib.sha256(self.canonical_bytes()).hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached


def _freeze_value(value: Any) -> Any:
    """A hashable stand-in for ``value`` that preserves ``==`` semantics.

    Containers are tagged by the equivalence class Python's ``==`` puts them
    in: lists never equal tuples, but sets equal frozensets and dicts compare
    by content, and numeric types compare across int/float/bool — so scalars
    pass through unchanged (their hashes already agree wherever ``==`` does).
    Raises ``TypeError`` for values that are neither plain data nor hashable;
    :meth:`TransactionResult.match_key` falls back to content hashing then.
    """
    if isinstance(value, dict):
        return ("dict", tuple(sorted((k, _freeze_value(v)) for k, v in value.items())))
    if isinstance(value, list):
        return ("list", tuple(_freeze_value(v) for v in value))
    if isinstance(value, tuple):
        return ("tuple", tuple(_freeze_value(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("set", frozenset(_freeze_value(v) for v in value))
    hash(value)  # propagate TypeError for unhashable leaves
    return value


ABORTED = "abort"


@dataclass(frozen=True)
class TransactionResult:
    """The outcome of executing a transaction on a smart contract.

    ``updates`` maps record keys to their new values; an aborted transaction
    (e.g. insufficient funds) carries the sentinel status ``"abort"`` and no
    updates, matching the paper's ``(x, "abort")`` pairs in commit messages.
    """

    tx_id: str
    application: str
    updates: Mapping[str, Any] = field(default_factory=dict)
    status: str = "ok"
    executed_by: str = ""
    read_versions: Mapping[str, int] = field(default_factory=dict)
    #: Diagnostic only — excluded from canonical_tuple() and matches() so that
    #: executors whose error messages differ still produce matching votes.
    abort_reason: str = ""

    @property
    def is_abort(self) -> bool:
        """True if the contract rejected the transaction."""
        return self.status == ABORTED

    @classmethod
    def abort(cls, tx: "Transaction", executed_by: str = "", reason: str = "") -> "TransactionResult":
        """Build an abort result for ``tx``."""
        return cls(
            tx_id=tx.tx_id,
            application=tx.application,
            updates={},
            status=ABORTED,
            executed_by=executed_by,
            abort_reason=reason,
        )

    def canonical_tuple(self) -> tuple:
        return (
            "result",
            self.tx_id,
            self.application,
            content_hash(dict(self.updates)),
            self.status,
        )

    def canonical_bytes(self) -> bytes:
        """Canonical encoding of the result, computed once (results are
        immutable); COMMIT messages embed many results, so signing and
        digesting them reuses this."""
        cached = self.__dict__.get("_canonical_bytes")
        if cached is None:
            cached = encode_object_tuple(self.canonical_tuple())
            object.__setattr__(self, "_canonical_bytes", cached)
        return cached

    def matches(self, other: "TransactionResult") -> bool:
        """Two results match if they agree on outcome and state updates.

        The executor identity is deliberately excluded: τ(A) counts *matching*
        results from distinct executors.
        """
        return (
            self.tx_id == other.tx_id
            and self.status == other.status
            and dict(self.updates) == dict(other.updates)
        )

    def match_key(self) -> tuple:
        """A hashable key equal between results iff :meth:`matches` is True.

        Lets Algorithm 3 tally votes in a single pass (dict keyed by this)
        instead of pairwise ``matches()`` comparisons.  Values are frozen by
        :func:`_freeze_value`, which preserves Python ``==`` semantics (so
        ``{"x": 5}`` and ``{"x": 5.0}`` still land in the same tally bucket,
        exactly as pairwise ``matches()`` counted them).

        Raises ``TypeError`` for updates whose values cannot be frozen
        ``==``-faithfully (unhashable leaves, dicts with incomparable mixed
        keys); the vote tally falls back to pairwise :meth:`matches` for
        those, so no approximate key can ever split or merge vote buckets
        differently than the seed's pairwise comparison did.
        """
        cached = self.__dict__.get("_match_key")
        if cached is None:
            cached = (self.tx_id, self.status, _freeze_value(dict(self.updates)))
            object.__setattr__(self, "_match_key", cached)
        return cached


def transaction_digests(transactions: Iterable[Transaction]) -> "list[str]":
    """Content hashes of a whole batch of transactions, one tight loop.

    Block assembly and Merkle verification hash every transaction of a block;
    calling :meth:`Transaction.digest` per leaf pays a ``__dict__`` probe,
    an attribute lookup and a method call each time.  This helper hoists the
    hash constructor and memo probe out of the call chain while writing back
    the same ``_digest`` memo, so individual ``digest()`` calls afterwards
    stay free.
    """
    sha256 = hashlib.sha256
    digests: list = []
    append = digests.append
    for tx in transactions:
        d = tx.__dict__
        cached = d.get("_digest")
        if cached is None:
            cached = sha256(tx.canonical_bytes()).hexdigest()
            object.__setattr__(tx, "_digest", cached)
        append(cached)
    return digests


def validate_block_timestamps(transactions: Iterable[Transaction]) -> None:
    """Check that transaction timestamps are strictly increasing.

    The paper requires ``ts(Ti) < ts(Tj)`` whenever ``Ti`` appears before
    ``Tj`` in a block; orderers stamp transactions accordingly and executors
    can re-validate with this helper.
    """
    previous: Optional[int] = None
    for tx in transactions:
        if previous is not None and tx.timestamp <= previous:
            raise TransactionError(
                f"non-increasing timestamp {tx.timestamp} after {previous} (tx {tx.tx_id})"
            )
        previous = tx.timestamp


def summarize_applications(transactions: Iterable[Transaction]) -> Dict[str, int]:
    """Count how many transactions each application contributes."""
    counts: Dict[str, int] = {}
    for tx in transactions:
        counts[tx.application] = counts.get(tx.application, 0) + 1
    return counts
