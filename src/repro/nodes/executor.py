"""The OXII executor node: Algorithms 1-3 over the simulated network.

An executor is an agent for the applications whose smart contracts are
installed on it.  For every valid block it runs the three concurrent
procedures of Section IV-C: execute the transactions it is an agent for
following the dependency graph (occupying CPU cores, so independent
transactions genuinely overlap), multicast COMMIT messages when a
cross-application cut edge requires it (or when its part of the block is
done), and update the blockchain state as τ(A) matching results arrive from
the agents of each application.

A node with no contracts installed is a *passive* (non-executor) peer: it only
runs the state-update procedure, which is why moving such nodes to a far data
center does not affect OXII's measured performance (Figure 7(d)).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.common.config import SystemConfig
from repro.contracts.base import ContractRegistry
from repro.core.block import Block
from repro.core.dependency_graph import DependencyGraph
from repro.core.execution import CommitBatcher, CommitMessage, GraphScheduler, StateUpdater
from repro.core.transaction import Transaction, TransactionResult
from repro.crypto.signatures import KeyRegistry
from repro.ledger.ledger import Ledger
from repro.ledger.state import WorldState
from repro.metrics.collector import MetricsCollector
from repro.network.message import Envelope
from repro.network.transport import Network
from repro.nodes import messages
from repro.nodes.base import BaseNode, BlockCatchupMixin
from repro.simulation import Environment, Store


class _SpeculativeView:
    """Read view layering locally executed (not yet committed) results over the state.

    Algorithm 1 lets a transaction execute as soon as its predecessors are in
    ``C_e ∪ X_e`` — i.e. possibly before their results reach the committed
    blockchain state.  The executing agent must therefore see its own executed
    results; this view overlays them on the committed world state.

    Each overlaid record remembers the block position of the transaction that
    wrote it and never moves back: with several agents per application, a
    COMMIT for a hot-key chain's ancestors can arrive after this node already
    executed a later link, and re-applying the ancestors' updates would hand
    the next link a stale value.
    """

    def __init__(self, state: WorldState, graph: DependencyGraph) -> None:
        self._state = state
        self._graph = graph
        self._overlay: Dict[str, object] = {}
        self._positions: Dict[str, int] = {}

    def get(self, key: str, default: object = None) -> object:
        if key in self._overlay:
            return self._overlay[key]
        return self._state.get(key, default)

    def apply(self, result: TransactionResult) -> None:
        """Record the updates of a transaction executed here or committed."""
        position = self._graph.index_of(result.tx_id)
        overlay, positions = self._overlay, self._positions
        for key, value in result.updates.items():
            if positions.get(key, -1) <= position:
                overlay[key] = value
                positions[key] = position


class ExecutorNode(BaseNode, BlockCatchupMixin):
    """An OXII executor (agent) peer; passive non-executor when no contracts."""

    def __init__(
        self,
        env: Environment,
        node_id: str,
        network: Network,
        registry: KeyRegistry,
        contracts: ContractRegistry,
        config: SystemConfig,
        executor_peers: Sequence[str],
        collector: Optional[MetricsCollector] = None,
        initial_state: Optional[Dict[str, object]] = None,
        newblock_quorum: int = 1,
        is_reference: bool = False,
        datacenter: Optional[str] = None,
    ) -> None:
        super().__init__(
            env,
            node_id,
            network,
            registry,
            cost_model=config.cost_model,
            cores=config.cores_per_node,
            datacenter=datacenter,
        )
        self.config = config
        self.contracts = contracts
        self.executor_peers = [p for p in executor_peers if p != node_id]
        self.collector = collector
        self.newblock_quorum = newblock_quorum
        self.is_reference = is_reference
        self.state = WorldState(initial_state or {})
        self.ledger = Ledger()
        self._next_sequence = 1
        #: Sequence -> {orderer -> digest} votes for pending NEWBLOCK messages.
        self._block_votes: Dict[int, Dict[str, str]] = {}
        self._valid_blocks: Dict[int, Block] = {}
        #: COMMIT messages that arrived before their block started processing.
        self._early_commits: Dict[int, List[CommitMessage]] = {}
        #: The event queue of the block currently being processed.
        self._active_queue: Optional[Store] = None
        self._active_sequence: Optional[int] = None
        #: Own execution results per recent block, re-multicast by the
        #: recovery retransmit loop so lagging peers can finish state updates.
        self._own_results: Dict[int, List[TransactionResult]] = {}
        self.transactions_executed = 0
        self.transactions_committed = 0
        self.blocks_committed = 0

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Start the dispatcher plus (in recovery runs) the retransmit loop."""
        if self._started:
            return
        super().start()
        if self.config.recovery.enabled:
            self.env.process(self._retransmit_loop(), name=f"{self.node_id}-retransmit")

    def _retransmit_loop(self):
        """Periodically re-multicast own results for recent blocks.

        COMMIT messages multicast while this executor was crashed (or while a
        peer was unreachable) are lost; because each application may have a
        single agent, a peer missing them can never finish Algorithm 3 for
        that block.  Re-multicasting this node's own votes is legitimate (it
        *is* the agent) and idempotent (receivers tally one vote per sender).
        """
        interval = self.config.recovery.retransmit_interval
        while True:
            yield interval
            for sequence, results in sorted(self._own_results.items()):
                if results:
                    self._multicast_commit(
                        CommitMessage(
                            executor=self.node_id,
                            block_sequence=sequence,
                            results=tuple(results),
                        )
                    )

    def _record_own_result(self, sequence: int, result: TransactionResult) -> None:
        if not self.config.recovery.enabled:
            return
        self._own_results.setdefault(sequence, []).append(result)
        retention = self.config.recovery.result_retention_blocks
        while len(self._own_results) > retention:
            self._own_results.pop(min(self._own_results))

    # ------------------------------------------------------------------ roles
    def applications(self) -> List[str]:
        """Applications this executor is an agent for."""
        return self.contracts.applications_of(self.node_id)

    def is_agent_for(self, application: str) -> bool:
        """True if this node hosts ``application``'s smart contract."""
        return self.contracts.is_agent(self.node_id, application)

    # ----------------------------------------------------------- message path
    def handle_envelope(self, envelope: Envelope):
        kind = envelope.message.kind
        if kind == messages.NEW_BLOCK:
            yield from self._handle_new_block(envelope)
        elif kind == messages.COMMIT:
            yield from self._handle_commit(envelope)
        elif kind == messages.TIP_ANNOUNCE:
            yield from self._handle_tip_announce(envelope)

    def _handle_new_block(self, envelope: Envelope):
        """Collect NEWBLOCK votes; start processing once the quorum is reached."""
        yield self.cost_model.signature + self.cost_model.block_hash
        if not self.verify_envelope(envelope):
            return
        block = envelope.message.body.get("block")
        if not isinstance(block, Block):
            return
        sequence = block.sequence
        if sequence < self._next_sequence and sequence not in self._valid_blocks:
            return  # stale duplicate of an already-processed block
        votes = self._block_votes.setdefault(sequence, {})
        votes[envelope.sender] = block.digest()
        matching = sum(1 for digest in votes.values() if digest == block.digest())
        if matching < self.newblock_quorum or sequence in self._valid_blocks:
            return
        self._valid_blocks[sequence] = block
        self._fetch_gap_before(envelope.sender, sequence)
        self._try_start_next_block()

    def _handle_commit(self, envelope: Envelope):
        """Route a COMMIT message to the right block's processing queue."""
        yield self.cost_model.signature
        if not self.verify_envelope(envelope):
            return
        commit = envelope.message.body.get("commit")
        if not isinstance(commit, CommitMessage):
            return
        if commit.block_sequence == self._active_sequence and self._active_queue is not None:
            self._active_queue.put(("commit", commit))
        elif commit.block_sequence >= self._next_sequence:
            self._early_commits.setdefault(commit.block_sequence, []).append(commit)
        # Commits for already-finished blocks are duplicates and are dropped.

    # --------------------------------------------------------- block pipeline
    def _try_start_next_block(self) -> None:
        if self._active_sequence is not None:
            return
        block = self._valid_blocks.get(self._next_sequence)
        if block is None:
            return
        self._active_sequence = block.sequence
        self._active_queue = Store(self.env)
        self.env.process(self._process_block(block), name=f"{self.node_id}-block-{block.sequence}")

    def _process_block(self, block: Block):
        """Run Algorithms 1-3 for one block, then append it to the ledger."""
        graph = block.dependency_graph
        if graph is None:
            raise ValueError("OXII executors require blocks to carry a dependency graph")
        assigned = [tx.tx_id for tx in block if self.is_agent_for(tx.application)]
        speculative = _SpeculativeView(self.state, graph)
        scheduler = GraphScheduler(graph, assigned=assigned)
        batcher = CommitBatcher(graph, executor=self.node_id, block_sequence=block.sequence)
        updater = StateUpdater(
            block_transactions=block.transactions,
            tau=self.config.tau_for,
            is_agent=self.contracts.is_agent,
            # Batched path: all winners of one COMMIT message hit the world
            # state in a single pass instead of one apply_updates call each.
            apply_batch=self.state.apply_results,
        )
        queue = self._active_queue
        assert queue is not None
        for commit in self._early_commits.pop(block.sequence, []):
            queue.put(("commit", commit))
        self._dispatch_ready(scheduler, queue, speculative)

        while not updater.is_complete():
            kind, item = yield queue.get()
            if kind == "executed":
                result: TransactionResult = item
                scheduler.mark_executed(result.tx_id)
                self.transactions_executed += 1
                outgoing = []
                # A transaction other agents' votes committed while it ran
                # here may have read its own committed writes: no vote.
                if updater.committed_result(result.tx_id) is None:
                    if not result.is_abort:
                        speculative.apply(result)
                    self._record_own_result(block.sequence, result)
                    flushed = batcher.add_result(result)
                    if flushed is not None:
                        outgoing.append(flushed)
                if scheduler.is_done():
                    remainder = batcher.flush()
                    if remainder is not None:
                        outgoing.append(remainder)
                for commit in outgoing:
                    self._multicast_commit(commit)
                    self._absorb_commit(commit, updater, scheduler, block, speculative)
            else:  # "commit"
                self._absorb_commit(item, updater, scheduler, block, speculative)
            self._dispatch_ready(scheduler, queue, speculative)

        self._finish_block(block)

    def _dispatch_ready(
        self, scheduler: GraphScheduler, queue: Store, view: _SpeculativeView
    ) -> None:
        """Queue every newly ready transaction for a core of the CPU pool."""
        cost = self.cost_model.tx_execution
        for tx in scheduler.ready_transactions():
            self.cpu.submit(cost, partial(self._execute_transaction, tx, queue, view))

    def _execute_transaction(self, tx: Transaction, queue: Store, view: _SpeculativeView) -> None:
        """Run the smart contract once its core time has elapsed."""
        outcome = self.contracts.execute(tx, view, executed_by=self.node_id)
        queue.put(("executed", outcome))

    def _multicast_commit(self, commit: CommitMessage) -> None:
        payload_bytes = self.latency.per_message_bytes + self.latency.per_tx_bytes * len(commit.results)
        self.multicast_signed(
            self.executor_peers,
            messages.COMMIT,
            {"commit": commit},
            payload_bytes=payload_bytes,
        )

    def _absorb_commit(
        self,
        commit: CommitMessage,
        updater: StateUpdater,
        scheduler: GraphScheduler,
        block: Block,
        speculative: _SpeculativeView,
    ) -> None:
        """Apply a COMMIT message locally (Algorithm 3) and release dependants."""
        newly_committed = updater.receive(commit)
        for tx_id in newly_committed:
            scheduler.mark_committed(tx_id)
            self.transactions_committed += 1
            result = updater.committed_result(tx_id)
            aborted = bool(result is not None and result.is_abort)
            if result is not None and not aborted:
                # Keep the speculative view causally up to date: committed
                # writes from other agents must be visible to later local
                # executions of the same block.
                speculative.apply(result)
            if self.collector is not None:
                reason = ""
                if aborted:
                    reason = (result.abort_reason or "contract_abort") if result else "contract_abort"
                self.collector.record_commit(
                    self.node_id, tx_id, self.env.now, aborted=aborted, reason=reason
                )
            if self.xshard_voter is not None:
                tx = block.transaction(tx_id)
                if tx is not None:
                    self.notify_xshard_commit(tx, result)

    def _finish_block(self, block: Block) -> None:
        self.ledger.append(block)
        self.blocks_committed += 1
        if self.is_reference and self.collector is not None:
            self.collector.record_block_commit()
        self._block_votes.pop(block.sequence, None)
        self._valid_blocks.pop(block.sequence, None)
        self._active_sequence = None
        self._active_queue = None
        self._next_sequence = block.sequence + 1
        self._try_start_next_block()
