"""Practical Byzantine Fault Tolerance (PBFT) ordering.

A batched PBFT: the primary proposes one block (batch of transactions) per
consensus instance.  The normal-case protocol is the classic three phases —
PRE-PREPARE from the primary, PREPARE from every replica, COMMIT from every
replica — with quorums of ``2f`` matching PREPAREs and ``2f + 1`` matching
COMMITs.  ``3f + 1`` orderers tolerate ``f`` Byzantine orderers.

View changes are out of scope for the performance study (the paper evaluates
the normal case); a primary failure surfaces as a stalled proposal, which the
fault-injection tests assert on explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Set

from repro.common.config import CostModel
from repro.common.errors import ProtocolError
from repro.consensus.base import DecisionCallback, OrderingService
from repro.crypto.hashing import content_hash
from repro.crypto.signatures import KeyRegistry
from repro.network.message import Envelope
from repro.network.transport import NetworkInterface
from repro.simulation import Environment

PRE_PREPARE = "PBFT_PRE_PREPARE"
PREPARE = "PBFT_PREPARE"
COMMIT = "PBFT_COMMIT"
STATUS = "PBFT_STATUS"


@dataclass
class _InstanceState:
    """Per-sequence bookkeeping for one PBFT instance."""

    payload: Any = None
    digest: str = ""
    pre_prepared: bool = False
    prepares: Set[str] = field(default_factory=set)
    commits: Set[str] = field(default_factory=set)
    prepared: bool = False
    committed: bool = False


class PBFTOrdering(OrderingService):
    """One orderer's PBFT participation (normal case, fixed view)."""

    message_kinds = (PRE_PREPARE, PREPARE, COMMIT, STATUS)

    def __init__(
        self,
        env: Environment,
        node_id: str,
        peers: Sequence[str],
        interface: NetworkInterface,
        registry: KeyRegistry,
        cost_model: Optional[CostModel] = None,
        on_decide: Optional[DecisionCallback] = None,
        max_faulty: int = 0,
        view: int = 0,
        retry_interval: Optional[float] = None,
    ) -> None:
        super().__init__(
            env, node_id, peers, interface, registry, cost_model, on_decide, retry_interval
        )
        self.max_faulty = max_faulty
        required = 3 * max_faulty + 1
        if len(peers) < required:
            raise ProtocolError(
                f"PBFT with f={max_faulty} requires {required} orderers, got {len(peers)}"
            )
        self.view = view
        self._instances: Dict[int, _InstanceState] = {}

    # ----------------------------------------------------------------- roles
    @property
    def leader(self) -> str:
        """The primary of the current view (round-robin over the orderer set)."""
        return self.peers[self.view % len(self.peers)]

    @property
    def prepare_quorum(self) -> int:
        """Matching PREPAREs needed (2f), in addition to the pre-prepare."""
        return 2 * self.max_faulty

    @property
    def commit_quorum(self) -> int:
        """Matching COMMITs needed (2f + 1)."""
        return 2 * self.max_faulty + 1

    def _instance(self, sequence: int) -> _InstanceState:
        return self._instances.setdefault(sequence, _InstanceState())

    # ------------------------------------------------------------------- API
    def propose(self, payload: Any):
        """Primary: run one PBFT instance for ``payload`` and await the decision."""
        if not self.is_leader:
            raise ProtocolError(f"{self.node_id} is not the primary of view {self.view}")
        sequence = self.allocate_sequence()
        digest = content_hash(payload)
        instance = self._instance(sequence)
        instance.payload = payload
        instance.digest = digest
        instance.pre_prepared = True
        # Signing the pre-prepare plus hashing the batch.
        yield self.cost_model.signature + self.cost_model.block_hash
        body = {"view": self.view, "seq": sequence, "digest": digest, "payload": payload}
        self.sign_and_multicast(PRE_PREPARE, body)
        # The primary's own prepare/commit are implicit in its bookkeeping.
        self._record_prepare(sequence, self.node_id, digest)
        self._maybe_prepare_done(sequence)
        decision = yield from self.await_decision(
            sequence, resend=lambda: self.sign_and_multicast(PRE_PREPARE, body)
        )
        return decision

    def handle_message(self, envelope: Envelope):
        """Replica: process one PRE-PREPARE / PREPARE / COMMIT message."""
        self.messages_handled += 1
        yield self.cost_model.consensus_step + self.cost_model.signature
        if not self.verify_envelope(envelope):
            return None
        kind = envelope.message.kind
        body = envelope.message.body
        sequence = int(body["seq"])
        if int(body.get("view", 0)) != self.view:
            return None
        digest = str(body["digest"])
        if kind == PRE_PREPARE:
            self._handle_pre_prepare(envelope.sender, sequence, digest, body.get("payload"))
        elif kind == PREPARE:
            self._record_prepare(sequence, envelope.sender, digest)
            self._maybe_prepare_done(sequence)
        elif kind == COMMIT:
            self._record_commit(sequence, envelope.sender, digest)
            self._maybe_commit_done(sequence)
        elif kind == STATUS:
            self._replay(envelope.sender, sequence)
        return None

    def resync(self) -> None:
        """Ask the other replicas to replay every instance not delivered here."""
        self.sign_and_multicast(STATUS, {"view": self.view, "seq": self._next_to_deliver, "digest": ""})

    def _replay(self, replica: str, first: int) -> None:
        """Re-send ``replica`` this replica's messages for the instances from ``first`` on.

        There is no state transfer: a replica that missed an instance's
        messages while partitioned never decides it once the traffic stops.
        Replaying the original messages lets it decide through the normal
        quorums.
        """
        for sequence in range(first, self._next_sequence):
            instance = self._instances.get(sequence)
            if instance is None or not instance.pre_prepared:
                continue
            body = {"view": self.view, "seq": sequence, "digest": instance.digest}
            if self.is_leader:
                self.sign_and_send(replica, PRE_PREPARE, {**body, "payload": instance.payload})
            else:
                self.sign_and_send(replica, PREPARE, body)
            if instance.prepared:
                self.sign_and_send(replica, COMMIT, body)

    # -------------------------------------------------------------- internals
    def _handle_pre_prepare(self, sender: str, sequence: int, digest: str, payload: Any) -> None:
        if sender != self.leader:
            return  # only the primary may pre-prepare
        instance = self._instance(sequence)
        if instance.pre_prepared and instance.digest != digest:
            raise ProtocolError(
                f"conflicting pre-prepare for sequence {sequence} (Byzantine primary?)"
            )
        instance.payload = payload
        instance.digest = digest
        instance.pre_prepared = True
        self._note_sequence(sequence)
        self.sign_and_multicast(PREPARE, {"view": self.view, "seq": sequence, "digest": digest})
        self._record_prepare(sequence, self.node_id, digest)
        self._maybe_prepare_done(sequence)

    def _record_prepare(self, sequence: int, sender: str, digest: str) -> None:
        instance = self._instance(sequence)
        if instance.digest and digest != instance.digest:
            return
        instance.prepares.add(sender)

    def _maybe_prepare_done(self, sequence: int) -> None:
        instance = self._instance(sequence)
        if instance.prepared or not instance.pre_prepared:
            return
        others_prepared = len(instance.prepares - {self.leader})
        if others_prepared >= self.prepare_quorum or len(self.peers) == 1:
            instance.prepared = True
            self.sign_and_multicast(
                COMMIT, {"view": self.view, "seq": sequence, "digest": instance.digest}
            )
            self._record_commit(sequence, self.node_id, instance.digest)
            self._maybe_commit_done(sequence)

    def _record_commit(self, sequence: int, sender: str, digest: str) -> None:
        instance = self._instance(sequence)
        if instance.digest and digest != instance.digest:
            return
        instance.commits.add(sender)

    def _maybe_commit_done(self, sequence: int) -> None:
        instance = self._instance(sequence)
        if instance.committed or not instance.prepared or not instance.pre_prepared:
            return
        if len(instance.commits) >= self.commit_quorum:
            instance.committed = True
            self.record_decision(sequence, instance.payload, proposer=self.leader)
