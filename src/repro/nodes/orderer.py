"""The orderer node: access control, ordering, block cutting, graph generation.

Orderers are shared by all three paradigms; the differences are configuration:

* **OXII** — ``generate_graphs=True``: the sealed block carries its dependency
  graph, and generating it is charged to the orderer's (serialised) sealing
  pipeline, which is exactly the overhead that bends Figure 5.
* **OX / XOV** — ``generate_graphs=False``: blocks carry no graph.

The orderer designated ``entry`` (the leader / primary / partition lead)
receives client requests, batches them with the three block-cut conditions and
drives the consensus protocol one block at a time; with PBFT every orderer
multicasts the sealed block (executors wait for ``f+1`` matching NEWBLOCK
messages), with the crash-fault-tolerant protocols only the leader does.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set

from repro.common.config import SystemConfig
from repro.consensus.base import ConsensusDecision, OrderingService, make_ordering_service
from repro.core.block import Block
from repro.core.block_builder import BlockBuilder, PendingBlock
from repro.core.dependency_graph import GraphMode
from repro.core.transaction import Transaction
from repro.crypto.signatures import KeyRegistry
from repro.network.message import Envelope
from repro.network.transport import Network
from repro.nodes import messages
from repro.nodes.base import BaseNode
from repro.simulation import Environment, Store


class OrdererNode(BaseNode):
    """One orderer of the ordering service."""

    def __init__(
        self,
        env: Environment,
        node_id: str,
        network: Network,
        registry: KeyRegistry,
        orderer_peers: Sequence[str],
        block_targets: Sequence[str],
        config: SystemConfig,
        generate_graphs: bool = True,
        graph_mode: GraphMode = GraphMode.SINGLE_VERSION,
        allowed_clients: Optional[Set[str]] = None,
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
        self.orderer_peers = list(orderer_peers)
        self.block_targets = list(block_targets)
        self.generate_graphs = generate_graphs
        self.allowed_clients = allowed_clients
        self.builder = BlockBuilder(
            policy=config.block_cut,
            tx_size_bytes=config.latency.per_tx_bytes,
            generate_graphs=generate_graphs,
            graph_mode=graph_mode,
        )
        self.consensus: OrderingService = make_ordering_service(
            config.consensus_protocol,
            env=env,
            node_id=node_id,
            peers=self.orderer_peers,
            interface=self.interface,
            registry=registry,
            cost_model=config.cost_model,
            on_decide=self._on_decide,
            max_faulty=config.max_faulty_orderers,
            retry_interval=(
                config.recovery.consensus_retry_interval if config.recovery.enabled else None
            ),
        )
        self._proposal_queue: Store = Store(env)
        self._seal_queue: Store = Store(env)
        #: Transaction ids already admitted to a block: duplicate-suppression
        #: under at-least-once delivery (a duplicated REQUEST must not order
        #: the same transaction twice).
        self._seen_tx_ids: Set[str] = set()
        #: Sealed blocks kept for BLOCK_FETCH catch-up (recovery runs only).
        self._sealed: Dict[int, Block] = {}
        self.requests_received = 0
        self.requests_rejected = 0
        self.requests_deduplicated = 0
        self.blocks_ordered = 0

    # ----------------------------------------------------------------- roles
    @property
    def is_entry(self) -> bool:
        """True if this orderer receives client requests and drives consensus."""
        return self.consensus.is_leader

    @property
    def multicasts_blocks(self) -> bool:
        """Whether this orderer multicasts sealed blocks to the peers.

        Under PBFT every orderer does (executors wait for ``f+1`` matching
        NEWBLOCK messages); under the crash-fault-tolerant protocols only the
        leader does.
        """
        if self.config.consensus_protocol == "pbft":
            return True
        return self.consensus.is_leader

    @property
    def newblock_quorum(self) -> int:
        """Matching NEWBLOCK messages an executor needs before trusting a block."""
        if self.config.consensus_protocol == "pbft":
            return self.config.max_faulty_orderers + 1
        return 1

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Start the main loop plus the proposer / sealer / block-cut ticker."""
        if self._started:
            return
        super().start()
        self.env.process(self._sealer_loop(), name=f"{self.node_id}-sealer")
        if self.is_entry:
            self.env.process(self._proposer_loop(), name=f"{self.node_id}-proposer")
            self.env.process(self._cut_ticker(), name=f"{self.node_id}-ticker")
        if self.config.recovery.enabled:
            self.env.process(self._tip_announcer(), name=f"{self.node_id}-tip")

    # ----------------------------------------------------------- message path
    def handle_envelope(self, envelope: Envelope):
        kind = envelope.message.kind
        if kind == messages.REQUEST:
            yield from self._handle_request(envelope)
        elif kind == messages.BLOCK_FETCH:
            yield from self._handle_block_fetch(envelope)
        elif kind in self.consensus.message_kinds:
            # Consensus steps are handled concurrently; their (small) CPU cost
            # is charged inside the protocol handler itself.
            self.env.process(self.consensus.handle_message(envelope), name=f"{self.node_id}-cons")
        # Unknown kinds are dropped silently (e.g. NEWBLOCK gossip echoes).

    def _handle_request(self, envelope: Envelope):
        """Validate a client request and feed it to the block builder."""
        self.requests_received += 1
        # Signature check of the client request (charged to the dispatcher).
        yield self.cost_model.signature
        if not self.verify_envelope(envelope):
            self.requests_rejected += 1
            return
        transaction = envelope.message.body.get("transaction")
        if not isinstance(transaction, Transaction):
            self.requests_rejected += 1
            return
        if not self._client_allowed(transaction):
            self.requests_rejected += 1
            return
        if transaction.tx_id in self._seen_tx_ids:
            # At-least-once delivery (duplication faults, client retries) must
            # not order the same transaction twice — the no-double-apply
            # safety invariant the fault oracles check.
            self.requests_deduplicated += 1
            return
        if not self.is_entry:
            # Non-primary orderers forward client requests to the primary.
            self.send_signed(
                self.consensus.leader,
                messages.REQUEST,
                dict(envelope.message.body),
                payload_bytes=self.latency.per_tx_bytes,
            )
            return
        self._seen_tx_ids.add(transaction.tx_id)
        pending = self.builder.add(transaction, now=self.env.now)
        if pending is not None:
            self._proposal_queue.put(pending)

    def _handle_block_fetch(self, envelope: Envelope):
        """Re-send sealed blocks a lagging peer asks for (recovery catch-up)."""
        yield self.cost_model.signature
        if not self.verify_envelope(envelope):
            return
        sequences = envelope.message.body.get("sequences", ())
        window = self.config.recovery.fetch_window
        for sequence in tuple(sequences)[:window]:
            block = self._sealed.get(sequence)
            if block is not None:
                yield self.cost_model.signature
                self._send_new_block(envelope.sender, block)

    def _client_allowed(self, transaction: Transaction) -> bool:
        """Access control: discard requests from unauthorised clients."""
        if self.allowed_clients is None:
            return True
        return transaction.client in self.allowed_clients

    # -------------------------------------------------------------- pipelines
    def _cut_ticker(self):
        """Cut the open block when the maximal production time elapses."""
        interval = max(self.config.block_cut.max_delay / 4.0, 1e-3)
        while True:
            yield interval
            if self.builder.timeout_due(self.env.now):
                pending = self.builder.cut_on_timeout(self.env.now)
                if pending is not None:
                    self._proposal_queue.put(pending)

    def _proposer_loop(self):
        """Order cut blocks one at a time through the consensus protocol."""
        while True:
            pending = yield self._proposal_queue.get()
            decision = yield self.env.process(
                self.consensus.propose(pending), name=f"{self.node_id}-propose"
            )
            self.blocks_ordered += 1
            if self.multicasts_blocks:
                yield from self._seal_and_multicast(decision.payload)

    def _on_decide(self, decision: ConsensusDecision) -> None:
        """Non-leader orderers seal and multicast decided blocks when required."""
        if self.consensus.is_leader:
            return  # the proposer loop already handles the leader's copy
        self.blocks_ordered += 1
        if self.multicasts_blocks:
            self._seal_queue.put(decision.payload)

    def _sealer_loop(self):
        """Serially seal blocks pushed by :meth:`_on_decide` (followers)."""
        while True:
            pending = yield self._seal_queue.get()
            yield from self._seal_and_multicast(pending)

    def _tip_announcer(self):
        """Periodically announce the highest sealed sequence (recovery runs).

        Peers compare the announced tip with the next block they expect and
        fetch any gap with BLOCK_FETCH, which is what lets a crashed or
        partitioned peer catch up once the fault heals.  The ordering
        protocol gets the same tick to let lagging orderers catch up.
        """
        interval = self.config.recovery.tip_announce_interval
        while True:
            yield interval
            self.consensus.resync()
            if self._sealed:
                self.multicast_signed(
                    self.block_targets,
                    messages.TIP_ANNOUNCE,
                    {"sequence": max(self._sealed)},
                    payload_bytes=self.latency.per_message_bytes,
                )

    def _seal_and_multicast(self, pending: PendingBlock):
        """Charge the sealing costs, build the block and multicast NEWBLOCK.

        Sealing is strictly serialised per orderer (this generator runs inside
        a single process), so its cost — dominated by the quadratic dependency
        graph generation under OXII — bounds the block production rate.
        """
        size = len(pending.transactions)
        cost = (
            self.cost_model.block_assembly
            + self.cost_model.block_assembly_per_tx * size
            + self.cost_model.block_hash
            + self.cost_model.signature
        )
        if self.generate_graphs:
            cost += self.cost_model.dependency_graph_cost(size)
        yield cost
        block = self.builder.seal(pending, now=self.env.now)
        if self.config.recovery.enabled:
            self._sealed[block.sequence] = block
            while len(self._sealed) > self.config.recovery.sealed_retention_blocks:
                self._sealed.pop(min(self._sealed))
        payload_bytes = self.latency.per_message_bytes + self.latency.per_tx_bytes * size
        self.multicast_signed(
            self.block_targets,
            messages.NEW_BLOCK,
            self._new_block_body(block),
            payload_bytes=payload_bytes,
        )

    def _new_block_body(self, block: Block) -> dict:
        return {
            "sequence": block.sequence,
            "block": block,
            "applications": tuple(sorted(block.applications())),
            "previous_hash": block.previous_hash,
        }

    def _send_new_block(self, recipient: str, block: Block) -> None:
        payload_bytes = self.latency.per_message_bytes + self.latency.per_tx_bytes * len(block)
        self.send_signed(
            recipient, messages.NEW_BLOCK, self._new_block_body(block), payload_bytes=payload_bytes
        )
