"""Common interface for the pluggable ordering (consensus) protocols."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.common.config import CostModel
from repro.common.errors import ConfigurationError
from repro.crypto.hashing import content_hash
from repro.crypto.signatures import KeyRegistry
from repro.network.message import Envelope, Message, build_signed, build_trusted
from repro.network.transport import NetworkInterface
from repro.simulation import Environment


@dataclass(frozen=True)
class ConsensusDecision:
    """A value the orderers agreed on, with its position in the total order."""

    sequence: int
    payload: Any
    decided_at: float
    proposer: str

    def digest(self) -> str:
        """Content hash of the decided payload."""
        return content_hash(("decision", self.sequence, content_hash(self.payload)))


DecisionCallback = Callable[[ConsensusDecision], None]


class OrderingService(abc.ABC):
    """One orderer's participation in the ordering protocol.

    Every orderer node owns an instance.  The leader (primary) drives
    :meth:`propose`; every orderer feeds protocol messages received from the
    network into :meth:`handle_message`.  When an instance learns that a value
    is decided it invokes ``on_decide`` exactly once for that sequence number,
    in sequence order.
    """

    #: Message kinds this protocol exchanges (used by nodes for dispatch).
    message_kinds: Sequence[str] = ()

    def __init__(
        self,
        env: Environment,
        node_id: str,
        peers: Sequence[str],
        interface: NetworkInterface,
        registry: KeyRegistry,
        cost_model: Optional[CostModel] = None,
        on_decide: Optional[DecisionCallback] = None,
        retry_interval: Optional[float] = None,
    ) -> None:
        if node_id not in peers:
            raise ConfigurationError(f"node {node_id!r} must be part of the orderer set {peers}")
        self.env = env
        self.node_id = node_id
        self.peers = list(peers)
        self.interface = interface
        self.registry = registry
        self.cost_model = cost_model or CostModel()
        self.on_decide = on_decide
        #: When set, an undecided proposal is re-multicast every this many
        #: seconds (crash/partition recovery); ``None`` keeps the fault-free
        #: fire-once behaviour of the performance experiments.
        self.retry_interval = retry_interval
        self.proposal_retries = 0
        self._next_sequence = 1
        self._decided: Dict[int, ConsensusDecision] = {}
        self._next_to_deliver = 1
        self._decision_events: Dict[int, Any] = {}
        self.messages_handled = 0
        #: Bound signing closure for :func:`build_signed` on the send path.
        self._sign_hash = lambda digest: registry.sign_hash(digest, node_id)

    # ----------------------------------------------------------------- roles
    @property
    @abc.abstractmethod
    def leader(self) -> str:
        """The node currently allowed to propose."""

    @property
    def is_leader(self) -> bool:
        """True if this orderer is the current leader/primary."""
        return self.node_id == self.leader

    @property
    def others(self) -> List[str]:
        """Every orderer except this one."""
        return [p for p in self.peers if p != self.node_id]

    # ------------------------------------------------------------------- API
    @abc.abstractmethod
    def propose(self, payload: Any):
        """Process generator run on the leader to order ``payload``.

        Returns the :class:`ConsensusDecision` once the value is decided
        locally; other orderers learn the decision through their own message
        handling.
        """

    @abc.abstractmethod
    def handle_message(self, envelope: Envelope):
        """Process generator handling one protocol message."""

    def resync(self) -> None:
        """Recovery runs call this periodically so a lagging replica can catch up."""

    # ------------------------------------------------------------- internals
    def allocate_sequence(self) -> int:
        """Leader-side: reserve the next sequence number."""
        sequence = self._next_sequence
        self._next_sequence += 1
        return sequence

    def _note_sequence(self, sequence: int) -> None:
        """Follower-side: keep the local sequence counter in sync."""
        self._next_sequence = max(self._next_sequence, sequence + 1)

    def record_decision(self, sequence: int, payload: Any, proposer: str) -> Optional[ConsensusDecision]:
        """Record a decided value and deliver in-order decisions via ``on_decide``."""
        if sequence in self._decided:
            return self._decided[sequence]
        decision = ConsensusDecision(
            sequence=sequence, payload=payload, decided_at=self.env.now, proposer=proposer
        )
        self._decided[sequence] = decision
        self._note_sequence(sequence)
        waiter = self._decision_events.pop(sequence, None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(decision)
        while self._next_to_deliver in self._decided:
            ready = self._decided[self._next_to_deliver]
            self._next_to_deliver += 1
            if self.on_decide is not None:
                self.on_decide(ready)
        return decision

    def decision_event(self, sequence: int):
        """Event firing with the :class:`ConsensusDecision` for ``sequence``."""
        if sequence in self._decided:
            event = self.env.event()
            event.succeed(self._decided[sequence])
            return event
        event = self._decision_events.get(sequence)
        if event is None:
            event = self.env.event()
            self._decision_events[sequence] = event
        return event

    def await_decision(self, sequence: int, resend: Optional[Callable[[], None]] = None):
        """Process generator: wait for ``sequence`` to be decided.

        With :attr:`retry_interval` set and a ``resend`` callback, the
        proposal is re-multicast whenever the decision has not arrived after
        an interval — the crash/partition recovery path: a proposal multicast
        while the proposer was crashed (sends dropped) or partitioned is
        retried until the cluster can decide it.  Followers must treat the
        re-sent proposal idempotently (all three protocols do: their
        bookkeeping is keyed by sequence and deduplicated by sender).
        """
        if self.retry_interval is None or resend is None:
            decision = yield self.decision_event(sequence)
            return decision
        while not self.is_decided(sequence):
            yield self.env.any_of(
                [self.decision_event(sequence), self.env.timeout(self.retry_interval)]
            )
            if not self.is_decided(sequence):
                self.proposal_retries += 1
                resend()
        return self._decided[sequence]

    def decided_count(self) -> int:
        """Number of values decided so far."""
        return len(self._decided)

    def is_decided(self, sequence: int) -> bool:
        """True if ``sequence`` has been decided locally."""
        return sequence in self._decided

    def sign_and_send(self, recipient: str, kind: str, body: Dict[str, Any], payload_bytes: int = 0) -> None:
        """Sign a protocol message and send it to one peer."""
        message = self._protocol_message(kind, body)
        self.interface.send(recipient, message, payload_bytes or None)

    def sign_and_multicast(self, kind: str, body: Dict[str, Any], payload_bytes: int = 0) -> None:
        """Sign a protocol message and send it to every other orderer."""
        message = self._protocol_message(kind, body)
        self.interface.multicast(self.others, message, payload_bytes or None)

    def _protocol_message(self, kind: str, body: Dict[str, Any]) -> Message:
        if self.registry.trusted:
            return build_trusted(kind, body)
        return build_signed(kind, body, self._sign_hash)

    def verify_envelope(self, envelope: Envelope) -> bool:
        """Check the signature on a protocol message against the transport sender.

        Reuses the message's memoised unsigned hash (see
        :meth:`repro.network.message.Message.unsigned_hash`): a multicast body
        is canonicalised once, not once per verifying orderer.  Over trusted
        channels (fault-free deployments) the check short-circuits.
        """
        message = envelope.message
        if not message.signature:
            return False
        if self.registry.trusted:
            return True
        return self.registry.verify_hash(
            message.unsigned_hash(), envelope.sender, message.signature
        )


def make_ordering_service(
    protocol: str,
    env: Environment,
    node_id: str,
    peers: Sequence[str],
    interface: NetworkInterface,
    registry: KeyRegistry,
    cost_model: Optional[CostModel] = None,
    on_decide: Optional[DecisionCallback] = None,
    max_faulty: int = 0,
    retry_interval: Optional[float] = None,
) -> OrderingService:
    """Instantiate the ordering protocol named by ``protocol``."""
    from repro.consensus.kafka import KafkaOrdering
    from repro.consensus.pbft import PBFTOrdering
    from repro.consensus.raft import RaftOrdering

    protocols = {"pbft": PBFTOrdering, "raft": RaftOrdering, "kafka": KafkaOrdering}
    try:
        cls = protocols[protocol]
    except KeyError:
        raise ConfigurationError(f"unknown consensus protocol {protocol!r}") from None
    return cls(
        env=env,
        node_id=node_id,
        peers=peers,
        interface=interface,
        registry=registry,
        cost_model=cost_model,
        on_decide=on_decide,
        max_faulty=max_faulty,
        retry_interval=retry_interval,
    )
