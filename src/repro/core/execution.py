"""Algorithms 1-3 of the paper: dependency-graph-driven execution.

The three procedures an OXII executor runs concurrently are factored into
plain, deployment-independent classes so the same logic drives the simulated
executor nodes, the whole-block engine and the unit tests:

* :class:`CountdownScheduler` — Algorithm 1 on the dense integer index space
  of :mod:`repro.core.graph_core`.  Keeps an array of remaining-predecessor
  counts and a FIFO of newly-ready indices, so scheduling a whole block costs
  O(V+E) total instead of rescanning the waiting list per poll.
* :class:`GraphScheduler` — the string-keyed compatibility facade over the
  countdown scheduler.  Tracks the waiting set ``W_e`` (the transactions this
  executor is an agent for), the executed set ``X_e`` and the committed set
  ``C_e``, and yields transactions whose predecessors are all in
  ``C_e ∪ X_e``.
* :class:`CommitBatcher` — Algorithm 2.  Accumulates execution results and
  decides when a COMMIT message must be multicast: as soon as an executed
  transaction has a successor belonging to a *different* application (a "cut"
  edge), the batch is flushed, which bounds the number of commit messages
  while preventing cross-application deadlock.
* :class:`StateUpdater` — Algorithm 3.  Collects COMMIT messages from
  executors and commits a transaction's updates to the blockchain state once
  ``τ(A)`` matching results from distinct agents have been received.
* :class:`ExecutionEngine` — a synchronous convenience engine that runs a
  whole block in-process (used by the OX paradigm's sequential execution and
  by correctness tests comparing parallel schedules against the sequential
  reference).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    KeysView,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.common.errors import DependencyGraphError
from repro.core.dependency_graph import DependencyGraph
from repro.core.transaction import Transaction, TransactionResult


class CountdownScheduler:
    """Algorithm 1 on dense indices: indegree countdown plus a ready FIFO.

    A transaction is ready once every predecessor has *settled* (entered
    ``X_e ∪ C_e``).  Instead of re-deriving that from sets on every poll, the
    scheduler counts down each node's remaining unsettled predecessors; the
    first settle event of a node decrements its successors, and any assigned
    successor that reaches zero is appended to the ready queue.  Every edge is
    therefore touched exactly once, so a whole block schedules in O(V+E).

    Indices are block positions — the same index space as
    :attr:`DependencyGraph.dag` — which keeps all bookkeeping in flat arrays.
    """

    __slots__ = (
        "_graph",
        "_dag",
        "_remaining",
        "_settled",
        "_assigned",
        "_dispatched",
        "_executed",
        "_ready",
        "_waiting_count",
    )

    def __init__(self, graph: DependencyGraph, assigned_indices: Iterable[int]) -> None:
        dag = graph.dag
        n = dag.n
        self._graph = graph
        self._dag = dag
        #: Unsettled-predecessor countdown per node (drives readiness).
        self._remaining = dag.in_degrees()
        #: Node flags, one byte each: settled = entered ``X_e ∪ C_e``.
        self._settled = bytearray(n)
        self._assigned = bytearray(n)
        self._dispatched = bytearray(n)
        self._executed = bytearray(n)
        for v in assigned_indices:
            self._assigned[self._check_index(v)] = 1
        self._waiting_count = sum(self._assigned)
        remaining = self._remaining
        assigned = self._assigned
        #: FIFO of assigned indices whose countdown reached zero (block order
        #: initially; settle order afterwards — drained sorted per poll).
        self._ready: Deque[int] = deque(
            v for v in range(n) if assigned[v] and remaining[v] == 0
        )

    # ------------------------------------------------------------------ state
    @property
    def graph(self) -> DependencyGraph:
        """The dependency graph being scheduled."""
        return self._graph

    def is_executed(self, index: int) -> bool:
        """True if ``index`` is in ``X_e``."""
        return bool(self._executed[self._check_index(index)])

    def waiting_count(self) -> int:
        """How many assigned transactions have not been executed yet."""
        return self._waiting_count

    def is_done(self) -> bool:
        """True once every assigned transaction has been executed."""
        return self._waiting_count == 0

    def waiting_indices(self) -> List[int]:
        """Assigned, not-yet-executed indices in block order (error paths)."""
        assigned, executed = self._assigned, self._executed
        return [v for v in range(self._dag.n) if assigned[v] and not executed[v]]

    # -------------------------------------------------------------- Algorithm 1
    def ready_indices(self) -> List[int]:
        """Newly-ready assigned indices, in block order, each returned once."""
        ready = self._ready
        if not ready:
            return []
        dispatched, executed = self._dispatched, self._executed
        out: List[int] = []
        while ready:
            v = ready.popleft()
            if dispatched[v] or executed[v]:
                continue
            dispatched[v] = 1
            out.append(v)
        if len(out) > 1:
            out.sort()
        return out

    def _settle(self, v: int) -> None:
        """First entry of ``v`` into ``X_e ∪ C_e``: count down its successors."""
        if self._settled[v]:
            return
        self._settled[v] = 1
        remaining = self._remaining
        assigned, dispatched, executed = self._assigned, self._dispatched, self._executed
        ready = self._ready
        for w in self._dag.successors(v):
            remaining[w] -= 1
            if remaining[w] == 0 and assigned[w] and not dispatched[w] and not executed[w]:
                ready.append(w)

    def _check_index(self, index: int) -> int:
        # bytearrays wrap negative indices to the end of the block, which
        # would silently mark the wrong transaction; fail fast instead.
        if not 0 <= index < self._dag.n:
            raise IndexError(f"index {index} out of range for {self._dag.n} transactions")
        return index

    def mark_executed(self, index: int) -> None:
        """Record that this executor finished executing ``index``."""
        self._check_index(index)
        if not self._executed[index]:
            self._executed[index] = 1
            self._dispatched[index] = 1
            if self._assigned[index]:
                self._waiting_count -= 1
        self._settle(index)

    def mark_committed(self, index: int) -> None:
        """Record that ``index`` is committed (its results are in the state)."""
        self._settle(self._check_index(index))

    def blocked_on_indices(self, index: int) -> List[int]:
        """Predecessors of ``index`` that are not yet executed or committed."""
        settled = self._settled
        return [u for u in self._dag.predecessors(self._check_index(index)) if not settled[u]]


class GraphScheduler:
    """Algorithm 1 — string-keyed facade over :class:`CountdownScheduler`.

    Kept as the drop-in surface the executor nodes program against; every
    call translates transaction ids to block positions once and delegates,
    so the facade inherits the countdown scheduler's O(V+E) total cost.  ``executed``/``committed`` are exposed as
    read-only dict-key views (set-like, always current) rather than per-access
    set copies.
    """

    def __init__(
        self,
        graph: DependencyGraph,
        assigned: Iterable[str],
    ) -> None:
        self._graph = graph
        indices: List[int] = []
        unknown: List[str] = []
        for tx_id in assigned:
            try:
                indices.append(graph.index_of(tx_id))
            except DependencyGraphError:
                unknown.append(tx_id)
        if unknown:
            raise DependencyGraphError(
                f"assigned transactions not in graph: {sorted(set(unknown))}"
            )
        self._core = CountdownScheduler(graph, indices)
        #: ``X_e`` / ``C_e`` as insertion-ordered dicts; ``.keys()`` gives the
        #: callers a live, read-only, set-like view without copying.
        self._executed: Dict[str, None] = {}
        self._committed: Dict[str, None] = {}

    # ------------------------------------------------------------------ state
    @property
    def core(self) -> CountdownScheduler:
        """The underlying index-based scheduler."""
        return self._core

    @property
    def waiting(self) -> Tuple[str, ...]:
        """``W_e`` — transactions still to be executed, in block order.

        Materialised on demand (an O(V) scan); only error reporting and tests
        read it, so the hot loop never pays for list maintenance.
        """
        graph = self._graph
        return tuple(graph.id_at(v) for v in self._core.waiting_indices())

    @property
    def executed(self) -> KeysView[str]:
        """``X_e`` — transactions executed locally (read-only live view)."""
        return self._executed.keys()

    @property
    def committed(self) -> KeysView[str]:
        """``C_e`` — transactions committed here or remotely (read-only live view)."""
        return self._committed.keys()

    def is_done(self) -> bool:
        """True once every assigned transaction has been executed."""
        return self._core.is_done()

    # -------------------------------------------------------------- Algorithm 1
    def ready_transactions(self) -> List[Transaction]:
        """Transactions in ``W_e`` whose predecessors are all in ``C_e ∪ X_e``.

        Already-dispatched transactions are not returned twice, so callers can
        poll this after every state change without double-executing.
        """
        graph = self._graph
        return [graph.transaction_at(v) for v in self._core.ready_indices()]

    def mark_executed(self, tx_id: str) -> None:
        """Record that this executor finished executing ``tx_id``."""
        self._core.mark_executed(self._graph.index_of(tx_id))
        self._executed[tx_id] = None

    def mark_committed(self, tx_id: str) -> None:
        """Record that ``tx_id`` is committed (its results are in the state)."""
        if tx_id not in self._graph:
            # Commit messages may mention transactions from other blocks; the
            # scheduler only tracks its own block.
            return
        self._core.mark_committed(self._graph.index_of(tx_id))
        self._committed[tx_id] = None

    def blocked_on(self, tx_id: str) -> Set[str]:
        """Predecessors of ``tx_id`` that are not yet executed or committed."""
        graph = self._graph
        blocked = self._core.blocked_on_indices(graph.index_of(tx_id))
        return {graph.id_at(u) for u in blocked}


@dataclass(frozen=True)
class CommitMessage:
    """The payload of a COMMIT multicast: executed results from one executor."""

    executor: str
    block_sequence: int
    results: Tuple[TransactionResult, ...]

    def canonical_tuple(self) -> tuple:
        return (
            "commit",
            self.executor,
            self.block_sequence,
            tuple(r.canonical_tuple() for r in self.results),
        )


class CommitBatcher:
    """Algorithm 2 — batch execution results and flush on cross-application cuts."""

    def __init__(self, graph: DependencyGraph, executor: str, block_sequence: int) -> None:
        self._graph = graph
        # One pass over the edges per block instead of loading successor
        # Transaction objects per executed result.
        self._cut_flags = graph.cross_application_successor_flags()
        self._executor = executor
        self._block_sequence = block_sequence
        self._batch: List[TransactionResult] = []
        self.flushes = 0

    @property
    def pending_results(self) -> List[TransactionResult]:
        """Results executed but not yet multicast."""
        return list(self._batch)

    def add_result(self, result: TransactionResult) -> Optional[CommitMessage]:
        """Record a finished execution; return a COMMIT message if a flush is due.

        A flush is due when the executed transaction has at least one
        successor that belongs to a different application — those agents need
        this result to make progress, so the accumulated batch is multicast.
        """
        self._batch.append(result)
        if self._cut_flags[self._graph.index_of(result.tx_id)]:
            return self.flush()
        return None

    def flush(self) -> Optional[CommitMessage]:
        """Multicast everything accumulated so far (no-op on an empty batch)."""
        if not self._batch:
            return None
        message = CommitMessage(
            executor=self._executor,
            block_sequence=self._block_sequence,
            results=tuple(self._batch),
        )
        self._batch = []
        self.flushes += 1
        return message


class _ResultVotes:
    """Bookkeeping for one transaction's received results (``R_e(x)``).

    Only built for a transaction whose first agent vote fell short of
    ``τ(A)``.  Votes are tallied in a single pass, keyed by each result's
    ``match_key()`` (outcome + updates frozen with ``==``-preserving
    semantics), so receiving a vote is O(1) instead of the O(votes²)
    pairwise ``matches()`` comparisons the naive tally pays.  Results whose
    updates cannot be frozen faithfully (``match_key()`` raises
    ``TypeError``) drop to a pairwise-``matches()`` bucket list — the seed
    semantics, exact by construction, and only ever paid for exotic update
    values.  The running best is only replaced by a strictly higher count,
    which commits the first result variant to reach ``τ(A)`` — the same
    result Algorithm 3 committed under pairwise matching (a variant that had
    reached the threshold earlier would already have committed).
    """

    __slots__ = ("_senders", "_tally", "_unkeyed", "_best")

    def __init__(self) -> None:
        self._senders: Set[str] = set()
        #: match key -> [first result with that key, matching-vote count]
        self._tally: Dict[object, list] = {}
        #: entries for results without a usable match key (pairwise-compared)
        self._unkeyed: List[list] = []
        self._best: Optional[list] = None

    def _entry_for(self, result: TransactionResult) -> Optional[list]:
        """The bucket ``result`` belongs to, or None.

        A bucket lives in ``_tally`` or ``_unkeyed`` depending on its *first*
        result's freezability, but Python allows ``==`` across the divide
        (``bytes == bytearray``), so the rare miss on one side falls through
        to a pairwise scan of the other — membership is always decided by
        ``matches()``, exactly like the seed's pairwise tally.
        """
        try:
            key = result.match_key()
        except TypeError:
            key = None
        if key is not None:
            entry = self._tally.get(key)
            if entry is not None:
                return entry
            candidates: Iterable[list] = self._unkeyed
        else:
            candidates = (*self._unkeyed, *self._tally.values())
        for entry in candidates:
            if entry[0].matches(result):
                return entry
        return None

    def add(self, result: TransactionResult, executor: str) -> Tuple[TransactionResult, int]:
        """Count ``result``'s vote; return the leading result and its count."""
        if executor not in self._senders:  # one vote per executor and transaction
            self._senders.add(executor)
            entry = self._entry_for(result)
            if entry is None:
                entry = [result, 1]
                try:
                    self._tally[result.match_key()] = entry
                except TypeError:
                    self._unkeyed.append(entry)
            else:
                entry[1] += 1
            if self._best is None or entry[1] > self._best[1]:
                self._best = entry
        best = self._best
        return best[0], best[1]


class StateUpdater:
    """Algorithm 3 — commit results once τ(A) matching votes have arrived.

    Nothing is allocated per transaction up front: a transaction whose first
    agent vote already reaches ``τ(A)`` commits that result directly, and a
    keyed :class:`_ResultVotes` tally is built only for one that still needs
    another vote.  ``tau`` is asked once per application and ``is_agent``
    once per (executor, application).
    """

    def __init__(
        self,
        block_transactions: Sequence[Transaction],
        tau: Callable[[str], int],
        is_agent: Callable[[str, str], bool],
        apply_update: Optional[Callable[[TransactionResult], None]] = None,
        *,
        apply_batch: Optional[Callable[[Sequence[TransactionResult]], None]] = None,
    ) -> None:
        """``tau(app)`` gives the required matching-vote count for ``app``;
        ``is_agent(executor, app)`` says whether ``executor`` is an agent of
        ``app`` (votes from non-agents are discarded).  Exactly one of the
        apply callbacks is used per committed transaction: ``apply_update`` is
        called once per winning result; ``apply_batch``, when provided, is
        instead called once per COMMIT message with every non-abort winner it
        committed (the batched path the world state applies in one pass).
        """
        if apply_update is None and apply_batch is None:
            raise ValueError("StateUpdater needs apply_update or apply_batch")
        #: Block position and application per transaction; the position is
        #: the dependency-graph order gate's clock (see :meth:`_gate_updates`).
        self._slots: Dict[str, Tuple[int, str]] = {
            tx.tx_id: (index, tx.application) for index, tx in enumerate(block_transactions)
        }
        self._tau = tau
        self._is_agent = is_agent
        self._apply_update = apply_update
        self._apply_batch = apply_batch
        self._tau_of: Dict[str, int] = {}
        #: executor -> application -> is_agent answer.
        self._agent_of: Dict[str, Dict[str, bool]] = {}
        #: Tallies of transactions whose votes have not reached τ(A) yet.
        self._votes: Dict[str, _ResultVotes] = {}
        self._committed: Dict[str, TransactionResult] = {}
        #: Per record, the position of the latest writer whose update has
        #: been applied.
        self._last_writer: Dict[str, int] = {}
        self._effective: Dict[str, Mapping[str, Any]] = {}

    # ------------------------------------------------------------------ state
    @property
    def committed_ids(self) -> Set[str]:
        """Transactions whose results have been applied to the state."""
        return set(self._committed)

    def committed_result(self, tx_id: str) -> Optional[TransactionResult]:
        """The winning result for a committed transaction, if any."""
        return self._committed.get(tx_id)

    def effective_updates(self, tx_id: str) -> Mapping[str, Any]:
        """The updates of ``tx_id`` that survived the block-order write gate.

        Empty until the transaction commits (and for committed aborts).
        """
        return self._effective.get(tx_id, {})

    def _gate_updates(self, position: int, tx_id: str, winning: TransactionResult) -> Mapping[str, Any]:
        """Filter a winner's updates to those not superseded in block order.

        COMMIT messages from different agents travel on independent links, so
        the votes of two transactions writing the same record can arrive out
        of dependency-graph order.  Applying them in arrival order would let
        the *earlier* writer overwrite the *later* one — a committed state no
        serial execution can produce (the bug the serializability oracle
        catches).  Each record therefore remembers the block position of the
        latest applied writer and drops updates from before it.
        """
        last = self._last_writer
        filtered: Dict[str, Any] = {}
        for key, value in winning.updates.items():
            if last.get(key, -1) < position:
                filtered[key] = value
                last[key] = position
        self._effective[tx_id] = filtered
        return filtered

    def is_complete(self) -> bool:
        """True once every transaction of the block has been committed."""
        return len(self._committed) == len(self._slots)

    def pending_ids(self) -> Set[str]:
        """Transactions still waiting for enough matching votes."""
        return set(self._slots) - set(self._committed)

    # -------------------------------------------------------------- Algorithm 3
    def receive(self, message: CommitMessage) -> List[str]:
        """Process a COMMIT message; return transactions committed by it."""
        newly_committed: List[str] = []
        winners: List[TransactionResult] = []
        slots, committed, tau_of = self._slots, self._committed, self._tau_of
        executor = message.executor
        agent_of = self._agent_of.get(executor)
        if agent_of is None:
            agent_of = self._agent_of[executor] = {}
        for result in message.results:
            tx_id = result.tx_id
            slot = slots.get(tx_id)
            if slot is None or tx_id in committed:
                continue  # outside this block, or already committed
            position, application = slot
            agent = agent_of.get(application)
            if agent is None:
                agent = agent_of[application] = bool(self._is_agent(executor, application))
            if not agent:
                continue  # only agents of the application may vote
            tau = tau_of.get(application)
            if tau is None:
                tau = tau_of[application] = self._tau(application)
            votes = self._votes.get(tx_id)
            if votes is None and tau <= 1:
                winning = result  # the first agent vote already reaches τ(A)
            else:
                if votes is None:
                    votes = self._votes[tx_id] = _ResultVotes()
                winning, count = votes.add(result, executor)
                if count < tau:
                    continue
                del self._votes[tx_id]
            committed[tx_id] = winning
            if not winning.is_abort:
                effective = self._gate_updates(position, tx_id, winning)
                # The common (in-order) case applies the result untouched;
                # a gated result is re-wrapped so both apply paths see
                # only the surviving updates.
                applied = (
                    winning
                    if len(effective) == len(winning.updates)
                    else replace(winning, updates=effective)
                )
                if self._apply_batch is not None:
                    winners.append(applied)
                else:
                    self._apply_update(applied)
            newly_committed.append(tx_id)
        if winners:
            self._apply_batch(winners)
        return newly_committed


class ExecutionEngine:
    """Synchronous reference engine: execute a block in a single process.

    ``contract_runner(tx, state_view)`` executes one transaction against a
    read view of the current state and returns its :class:`TransactionResult`.
    The engine applies committed updates to ``state`` (a mutable mapping) in
    dependency-graph order, which is the sequential-equivalent baseline every
    parallel schedule must match.
    """

    def __init__(
        self,
        contract_runner: Callable[[Transaction, Mapping[str, object]], TransactionResult],
        state: Dict[str, object],
    ) -> None:
        self._contract_runner = contract_runner
        self._state = state

    @property
    def state(self) -> Dict[str, object]:
        """The mutable world state the engine applies updates to."""
        return self._state

    def execute_sequentially(self, transactions: Sequence[Transaction]) -> List[TransactionResult]:
        """Execute ``transactions`` one by one in the given order (OX paradigm)."""
        results: List[TransactionResult] = []
        for tx in transactions:
            result = self._contract_runner(tx, self._state)
            if not result.is_abort:
                self._state.update(result.updates)
            results.append(result)
        return results

    def execute_with_graph(self, graph: DependencyGraph) -> List[TransactionResult]:
        """Execute a block following its dependency graph (OXII semantics).

        Transactions are executed wave by wave: every transaction whose
        predecessors have committed runs (conceptually in parallel), then their
        updates are applied, then the next wave runs.  The final state is
        guaranteed to equal the sequential execution of the block because the
        graph orders every conflicting pair that must observe each other.

        A whole wave's updates are applied in one batch.  That is safe
        because waves come out in block order and ``dict.update`` is
        last-writer-wins: under ``single_version`` semantics two writers of
        one record never share a wave (their WW edge separates them), and
        under ``multi_version`` semantics — where WW pairs carry no edge and
        *can* share a wave — the block-order merge commits exactly the later
        writer's value, the same record the seed's per-result application in
        wave order left behind.

        When every transaction executes locally the waves need no event-driven
        bookkeeping at all: they are exactly the dependency-depth levels of
        the DAG (``test_countdown_waves_are_a_topological_stratification``
        pins that the countdown scheduler dispatches the same waves in the
        same in-wave block order), so the engine stratifies the block once
        with :meth:`AdjacencyDAG.wave_partition` instead of paying the
        per-edge countdown the distributed executors need for remote COMMIT
        interleaving.
        """
        n = len(graph)
        results: List[Optional[TransactionResult]] = [None] * n
        runner = self._contract_runner
        state = self._state
        for wave in graph.dag.wave_partition():
            wave_updates: Dict[str, object] = {}
            for v in wave:
                result = runner(graph.transaction_at(v), state)
                if not result.is_abort:
                    wave_updates.update(result.updates)
                results[v] = result
            if wave_updates:
                state.update(wave_updates)
        return list(results)
