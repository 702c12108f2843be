"""Configuration objects shared by every paradigm deployment.

Two configuration families live here:

* :class:`CostModel` — the simulated-time cost of the primitive operations the
  paper's testbed performs for real (executing a transaction on a smart
  contract, hashing, signing, checking one read/write-set pair while building
  a dependency graph, ...).  The defaults are calibrated so that the
  reproduction exhibits the same *shape* as the paper's figures (see
  docs/experiments.md): OX saturates around ~1k txn/s, XOV around ~1.8k txn/s and
  OXII above 6k txn/s on a no-contention workload.

* :class:`SystemConfig` — the deployment-level knobs the paper varies: number
  of orderers, executors, applications, block-cut conditions, the required
  number of matching results per application (``tau``), and the placement of
  node groups across data centers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Sequence, TypeVar

from repro.common.errors import ConfigurationError

ConfigT = TypeVar("ConfigT")


def check_positive(name: str, value: Any) -> None:
    """Require ``value`` to be a positive number, naming the offending field."""
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")


def check_positive_int(name: str, value: Any) -> None:
    """Require ``value`` to be a positive integer, naming the offending field."""
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")


def check_non_negative(name: str, value: Any) -> None:
    """Require ``value`` to be >= 0, naming the offending field."""
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")


def check_fraction(name: str, value: Any) -> None:
    """Require ``value`` to lie in [0, 1], naming the offending field."""
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")


def reject_unknown_fields(kind: str, given: Mapping[str, Any], valid: "set[str]") -> None:
    """Raise :class:`ConfigurationError` naming any key of ``given`` not in ``valid``."""
    unknown = set(given) - valid
    if unknown:
        raise ConfigurationError(
            f"unknown {kind} field(s) {sorted(unknown)}; expected a subset of {sorted(valid)}"
        )


def apply_overrides(config: ConfigT, overrides: Mapping[str, Any]) -> ConfigT:
    """Validated copy of a (frozen) config dataclass with ``overrides`` applied.

    Unknown field names raise :class:`ConfigurationError`.  A dict supplied for
    a field that currently holds a nested dataclass (``block_cut``,
    ``cost_model``, ``latency``, ...) is applied recursively, so callers can
    override one knob of a nested config without spelling out the rest::

        config.with_overrides(block_cut={"max_transactions": 100})

    The copy re-runs the dataclass' ``__post_init__`` validation.
    """
    if not dataclasses.is_dataclass(config):
        raise ConfigurationError(f"{type(config).__name__} is not a config dataclass")
    valid = {f.name for f in dataclasses.fields(config)}
    reject_unknown_fields(type(config).__name__, overrides, valid)
    resolved: Dict[str, Any] = {}
    for name, value in overrides.items():
        current = getattr(config, name)
        if dataclasses.is_dataclass(current) and isinstance(value, Mapping):
            value = apply_overrides(current, value)
        elif isinstance(current, tuple) and isinstance(value, list):
            value = tuple(value)
        resolved[name] = value
    return replace(config, **resolved)

#: Canonical node-group names used by the multi-datacenter experiments
#: (Figure 7 in the paper).
NODE_GROUPS = ("clients", "orderers", "executors", "non_executors")


@dataclass(frozen=True)
class CostModel:
    """Simulated cost (in seconds) of the primitive operations.

    The defaults approximate a c4.2xlarge-class machine (8 vCPUs) running the
    paper's simple accounting contract.  Every cost is charged to simulated
    time by the node that performs the operation; CPU-bound costs additionally
    occupy one of the node's cores for their duration.
    """

    #: Executing one transaction against a smart contract (CPU-bound).
    tx_execution: float = 1.0e-3
    #: Validating one transaction during XOV's validation phase (read/write
    #: conflict check against the committed state, signature checks amortised).
    tx_validation: float = 5.0e-5
    #: Checking a single ordered pair of transactions for an ordering
    #: dependency while generating a dependency graph.
    dependency_pair_check: float = 8.0e-7
    #: Verifying or producing one signature.
    signature: float = 3.0e-5
    #: Hashing one block header / chaining one block.
    block_hash: float = 5.0e-5
    #: Fixed CPU cost of assembling a block (serialisation, bookkeeping).
    block_assembly: float = 2.5e-3
    #: Per-transaction cost of assembling a block (serialisation).
    block_assembly_per_tx: float = 2.0e-6
    #: Applying one transaction's write set to the world state.
    state_update: float = 1.0e-5
    #: Fixed CPU cost of one consensus message handling step.
    consensus_step: float = 5.0e-5
    #: Client-side cost of assembling a request / endorsement transaction.
    client_assembly: float = 2.0e-5
    #: Per-endorsement overhead at an XOV endorser on top of executing the
    #: transaction (proposal checks, response assembly and signing).
    endorsement_overhead: float = 5.0e-4

    def dependency_graph_cost(self, block_size: int) -> float:
        """Total CPU cost of building a dependency graph over ``block_size`` txns.

        Construction compares every ordered pair of transactions, so the cost
        is quadratic in the block size; this is the overhead that makes OXII's
        throughput curve bend downwards after ~200 transactions per block
        (Figure 5 in the paper).
        """
        if block_size < 0:
            raise ConfigurationError(f"block_size must be >= 0, got {block_size}")
        pairs = block_size * (block_size - 1) // 2
        return pairs * self.dependency_pair_check

    def scaled(self, factor: float) -> "CostModel":
        """Return a copy of the cost model with every cost multiplied by ``factor``."""
        if factor <= 0:
            raise ConfigurationError(f"scale factor must be positive, got {factor}")
        return CostModel(
            tx_execution=self.tx_execution * factor,
            tx_validation=self.tx_validation * factor,
            dependency_pair_check=self.dependency_pair_check * factor,
            signature=self.signature * factor,
            block_hash=self.block_hash * factor,
            block_assembly=self.block_assembly * factor,
            block_assembly_per_tx=self.block_assembly_per_tx * factor,
            state_update=self.state_update * factor,
            consensus_step=self.consensus_step * factor,
            client_assembly=self.client_assembly * factor,
            endorsement_overhead=self.endorsement_overhead * factor,
        )


@dataclass(frozen=True)
class LatencyConfig:
    """One-way network latency parameters (seconds).

    ``lan`` applies between nodes in the same data center, ``wan`` between
    nodes in different data centers.  ``jitter_fraction`` adds a deterministic
    pseudo-random +/- jitter to each message so that message arrival order is
    not artificially synchronous.
    """

    lan: float = 5.0e-4
    wan: float = 0.1
    jitter_fraction: float = 0.1
    bandwidth_bytes_per_sec: float = 1.25e9  # 10 Gbit/s
    per_tx_bytes: int = 256
    per_message_bytes: int = 128

    def transfer_delay(self, payload_bytes: int) -> float:
        """Serialisation delay for ``payload_bytes`` at the configured bandwidth."""
        if payload_bytes <= 0:
            return 0.0
        return payload_bytes / self.bandwidth_bytes_per_sec


@dataclass(frozen=True)
class BlockCutPolicy:
    """The three block-cut conditions described in Section IV-B of the paper.

    A block is cut when it reaches ``max_transactions`` transactions, when its
    serialised size reaches ``max_bytes``, or when ``max_delay`` seconds have
    elapsed since the first transaction of the block was received — whichever
    happens first.
    """

    max_transactions: int = 200
    max_bytes: int = 1_000_000
    max_delay: float = 0.5

    def __post_init__(self) -> None:
        if self.max_transactions <= 0:
            raise ConfigurationError("max_transactions must be positive")
        if self.max_bytes <= 0:
            raise ConfigurationError("max_bytes must be positive")
        if self.max_delay <= 0:
            raise ConfigurationError("max_delay must be positive")


@dataclass(frozen=True)
class RecoveryConfig:
    """Retransmission / catch-up behaviour for runs with injected faults.

    Disabled by default: the paper's performance experiments model the fault-
    free normal case and must not pay for (or be perturbed by) periodic
    retransmission traffic.  The fault-scenario harness (:mod:`repro.testing`)
    enables it so that crashed/partitioned nodes can catch up once faults heal
    — the liveness property the oracles check.

    * ``consensus_retry_interval`` — the proposer re-multicasts an undecided
      proposal after this long (covers proposals sent while crashed or
      partitioned).
    * ``tip_announce_interval`` — block-multicasting orderers periodically
      announce their highest sealed sequence; peers that detect a gap fetch
      the missing blocks.
    * ``retransmit_interval`` — OXII executors re-multicast their own
      execution results for recent blocks so peers that missed COMMIT
      messages can finish state updates.
    * ``result_retention_blocks`` — how many recent blocks' own results an
      executor keeps retransmitting (bounds both memory and catch-up reach).
    * ``sealed_retention_blocks`` — how many sealed blocks an orderer keeps
      for BLOCK_FETCH (bounds memory; a peer that fell further behind than
      this can no longer catch up).
    * ``fetch_window`` — maximal number of blocks requested per fetch.
    """

    enabled: bool = False
    consensus_retry_interval: float = 0.5
    tip_announce_interval: float = 0.5
    retransmit_interval: float = 0.25
    result_retention_blocks: int = 16
    sealed_retention_blocks: int = 256
    fetch_window: int = 16

    def __post_init__(self) -> None:
        check_positive("consensus_retry_interval", self.consensus_retry_interval)
        check_positive("tip_announce_interval", self.tip_announce_interval)
        check_positive("retransmit_interval", self.retransmit_interval)
        check_positive_int("result_retention_blocks", self.result_retention_blocks)
        check_positive_int("sealed_retention_blocks", self.sealed_retention_blocks)
        check_positive_int("fetch_window", self.fetch_window)


#: Consensus protocols a shard's ordering service may run.
CONSENSUS_PROTOCOLS = ("kafka", "pbft", "raft")

#: Upper bound on shard counts — a guard against typo'd configs, not a
#: fundamental limit.
MAX_SHARDS = 64


@dataclass(frozen=True)
class ShardingConfig:
    """Sharded-deployment knobs (see :mod:`repro.sharding`).

    ``num_shards == 1`` (the default) means the deployment is unsharded; a
    single-shard :class:`~repro.sharding.ShardedDeployment` is
    result-identical to the plain per-paradigm deployment.

    ``consensus`` selects the ordering protocol per shard: ``""`` inherits
    :attr:`SystemConfig.consensus_protocol` everywhere, a single name applies
    to every shard, and a sequence gives one name per shard (length must equal
    ``num_shards``).
    """

    num_shards: int = 1
    consensus: Any = ""

    def __post_init__(self) -> None:
        if (
            not isinstance(self.num_shards, int)
            or isinstance(self.num_shards, bool)
            or not 1 <= self.num_shards <= MAX_SHARDS
        ):
            raise ConfigurationError(
                f"shards.num_shards must be an integer in [1, {MAX_SHARDS}], "
                f"got {self.num_shards!r}"
            )
        consensus = self.consensus
        if isinstance(consensus, list):
            consensus = tuple(consensus)
            object.__setattr__(self, "consensus", consensus)
        if isinstance(consensus, str):
            names = (consensus,)
        elif isinstance(consensus, tuple):
            names = consensus
            if len(names) != self.num_shards:
                raise ConfigurationError(
                    f"shards.consensus lists {len(names)} protocol(s) but "
                    f"shards.num_shards is {self.num_shards}; give one name per "
                    "shard, a single name for all shards, or '' to inherit "
                    "consensus_protocol"
                )
        else:
            raise ConfigurationError(
                "shards.consensus must be a protocol name or a sequence of "
                f"names (one per shard), got {consensus!r}"
            )
        for name in names:
            if name and name not in CONSENSUS_PROTOCOLS:
                raise ConfigurationError(
                    f"shards.consensus has unknown protocol {name!r}; valid "
                    f"choices are {list(CONSENSUS_PROTOCOLS)} (or '' to "
                    "inherit consensus_protocol)"
                )

    @property
    def enabled(self) -> bool:
        """True when the deployment is actually split into multiple shards."""
        return self.num_shards > 1

    def consensus_for(self, shard: int, default: str) -> str:
        """The ordering protocol shard ``shard`` runs (``default`` if inherited)."""
        if not 0 <= shard < self.num_shards:
            raise ConfigurationError(
                f"shard index {shard} out of range [0, {self.num_shards})"
            )
        if isinstance(self.consensus, tuple):
            return self.consensus[shard] or default
        return self.consensus or default


@dataclass(frozen=True)
class SystemConfig:
    """Deployment-level configuration for a paradigm run.

    Defaults follow the paper's testbed: 3 orderers, 3 applications each with
    its own executor (endorser) node, 8 cores per node, and a block size of
    200 transactions for OX/OXII.
    """

    num_orderers: int = 3
    num_applications: int = 3
    executors_per_application: int = 1
    num_non_executors: int = 0
    cores_per_node: int = 8
    block_cut: BlockCutPolicy = field(default_factory=BlockCutPolicy)
    cost_model: CostModel = field(default_factory=CostModel)
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    #: Required number of matching execution results per application
    #: (tau(A) in the paper).  Maps application id to count; applications not
    #: listed default to 1.
    tau: Mapping[str, int] = field(default_factory=dict)
    #: Consensus protocol used by the ordering service: "pbft", "raft" or
    #: "kafka".
    consensus_protocol: str = "kafka"
    #: Registered smart-contract name installed on every application's agents
    #: (see :data:`repro.common.registry.contract_registry`).
    contract: str = "accounting"
    #: Maximum number of simultaneous faulty orderers tolerated.
    max_faulty_orderers: int = 0
    #: Retransmission / catch-up behaviour under injected faults (off by
    #: default; the fault harness turns it on).
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    #: Sharded-deployment section: number of independent ordering services
    #: and their per-shard consensus protocols (see :mod:`repro.sharding`).
    shards: ShardingConfig = field(default_factory=ShardingConfig)
    #: Which node groups live in the far data center (Figure 7).
    far_groups: Sequence[str] = ()
    #: Seed for all pseudo-random decisions (workload, jitter).
    seed: int = 7
    #: Transport/clock backend the deployment runs on: "sim" (deterministic
    #: discrete-event simulation, the default and the correctness oracle),
    #: "asyncio" (wall-clock inproc queues) or "asyncio-tcp" (wall-clock
    #: localhost TCP with length-prefixed frames).  See :mod:`repro.realnet`.
    backend: str = "sim"
    #: Pacing factor for real backends: one simulated second takes
    #: ``1/realtime_speed`` wall seconds.  ``1.0`` for honest wall-clock
    #: benchmarks; parity suites raise it to keep smoke runs fast.  Ignored
    #: by the simulated backend.
    realtime_speed: float = 1.0

    def __post_init__(self) -> None:
        if self.num_orderers <= 0:
            raise ConfigurationError("num_orderers must be positive")
        if self.num_applications <= 0:
            raise ConfigurationError("num_applications must be positive")
        if self.executors_per_application <= 0:
            raise ConfigurationError("executors_per_application must be positive")
        if self.num_non_executors < 0:
            raise ConfigurationError("num_non_executors must be >= 0")
        if self.cores_per_node <= 0:
            raise ConfigurationError("cores_per_node must be positive")
        if self.consensus_protocol not in ("pbft", "raft", "kafka"):
            raise ConfigurationError(
                f"unknown consensus protocol {self.consensus_protocol!r}"
            )
        if not self.contract or not isinstance(self.contract, str):
            raise ConfigurationError("contract must be a non-empty registered contract name")
        unknown = set(self.far_groups) - set(NODE_GROUPS)
        if unknown:
            raise ConfigurationError(f"unknown node groups: {sorted(unknown)}")
        if isinstance(self.shards, Mapping):
            object.__setattr__(self, "shards", apply_overrides(ShardingConfig(), self.shards))
        if not isinstance(self.shards, ShardingConfig):
            raise ConfigurationError(
                f"shards must be a ShardingConfig or a mapping of its fields, "
                f"got {self.shards!r}"
            )
        if self.shards.num_shards > self.num_applications:
            raise ConfigurationError(
                f"shards.num_shards ({self.shards.num_shards}) must not exceed "
                f"num_applications ({self.num_applications}): each shard hosts "
                "at least one application — lower shards.num_shards or raise "
                "num_applications"
            )
        if self.backend not in ("sim", "asyncio", "asyncio-tcp"):
            raise ConfigurationError(
                f"unknown backend {self.backend!r} "
                "(expected 'sim', 'asyncio' or 'asyncio-tcp')"
            )
        if self.realtime_speed <= 0:
            raise ConfigurationError("realtime_speed must be positive")
        if self.backend != "sim" and self.shards.num_shards > 1:
            raise ConfigurationError(
                f"backend {self.backend!r} does not support sharded deployments yet "
                "(shards.num_shards must be 1)"
            )
        if self.max_faulty_orderers < 0:
            raise ConfigurationError("max_faulty_orderers must be >= 0")
        quorum_need = (
            3 * self.max_faulty_orderers + 1
            if self.consensus_protocol == "pbft"
            else 2 * self.max_faulty_orderers + 1
        )
        if self.max_faulty_orderers and self.num_orderers < quorum_need:
            raise ConfigurationError(
                f"{self.consensus_protocol} with f={self.max_faulty_orderers} needs "
                f"at least {quorum_need} orderers, got {self.num_orderers}"
            )

    @property
    def num_executors(self) -> int:
        """Total number of executor (endorser) nodes across all applications."""
        return self.num_applications * self.executors_per_application

    def tau_for(self, application: str) -> int:
        """Required number of matching execution results for ``application``."""
        return int(self.tau.get(application, 1))

    def with_overrides(self, **overrides: Any) -> "SystemConfig":
        """Validated copy with ``overrides`` applied (nested dicts allowed)."""
        return apply_overrides(self, overrides)

    def with_block_size(self, max_transactions: int) -> "SystemConfig":
        """Return a copy of the config with a different block-size cut."""
        return self.with_overrides(block_cut={"max_transactions": max_transactions})

    def with_far_groups(self, groups: Sequence[str]) -> "SystemConfig":
        """Return a copy with ``groups`` placed in the far data center."""
        return self.with_overrides(far_groups=tuple(groups))

    def with_consensus(self, protocol: str) -> "SystemConfig":
        """Return a copy that uses ``protocol`` for the ordering service."""
        return self.with_overrides(consensus_protocol=protocol)

    def application_names(self) -> list:
        """Canonical application identifiers ``app-0 .. app-(n-1)``."""
        return [f"app-{i}" for i in range(self.num_applications)]


def default_tau(applications: Sequence[str], value: int = 1) -> Dict[str, int]:
    """Build a ``tau`` mapping assigning ``value`` to every application."""
    if value <= 0:
        raise ConfigurationError("tau must be positive")
    return {app: value for app in applications}
