"""Common machinery shared by the three paradigm deployments."""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.config import SystemConfig
from repro.common.errors import ConfigurationError
from repro.common.identifiers import executor_id, orderer_id
from repro.common.registry import contract_registry
from repro.common.rng import child_seed
from repro.contracts.accounting import AccountingContract  # noqa: F401 - registers "accounting"
from repro.contracts.base import ContractRegistry
from repro.core.transaction import Transaction
from repro.crypto.signatures import KeyRegistry
from repro.metrics.collector import MetricsCollector, RunMetrics
from repro.network.faults import FaultPlan
from repro.network.topology import FAR_DC, NEAR_DC, Topology
from repro.network.transport import Network
from repro.nodes.base import BaseNode
from repro.nodes.client import ClientGateway
from repro.nodes.orderer import OrdererNode
from repro.simulation import Environment
from repro.workload.arrivals import ArrivalSchedule

CLIENT_GATEWAY = "client-gateway"


class ScheduleDriver:
    """The open-loop workload driver: replay a fixed list at scheduled times.

    A *driver* is anything that feeds a built deployment with transactions
    and knows when the run is finished: ``start(handles, deployment)`` begins
    submission, ``duration``/``offered_rate`` shape the measurement window,
    ``is_complete(handles)`` ends the run early and ``extra_metrics(handles)``
    merges driver-specific aggregates into :class:`RunMetrics.extra`.  This
    class wraps the classic (transactions, schedule) replay;
    :class:`repro.agents.PopulationEngine` is the closed-loop counterpart.
    """

    def __init__(self, transactions: Sequence[Transaction], schedule: ArrivalSchedule) -> None:
        if len(transactions) != len(schedule):
            raise ValueError("schedule length must match the number of transactions")
        self.transactions = list(transactions)
        self.schedule = schedule

    @property
    def duration(self) -> float:
        """Length of the submission phase (last scheduled arrival)."""
        return self.schedule.duration

    @property
    def offered_rate(self) -> float:
        """Average offered load (tx/s) the driver generates."""
        return self.schedule.offered_rate

    def start(self, handles: "DeploymentHandles", deployment: "Deployment") -> None:
        """Begin open-loop submission through the client gateway."""
        handles.gateway.submit_schedule(self.transactions, self.schedule)

    def is_complete(self, handles: "DeploymentHandles") -> bool:
        """True once every submitted transaction completed everywhere."""
        return handles.collector.all_complete(len(self.transactions))

    def submitted_transactions(self) -> Sequence[Transaction]:
        """The transactions this driver submits (known up front here)."""
        return tuple(self.transactions)

    def extra_metrics(self, handles: "DeploymentHandles") -> Dict[str, object]:
        """Driver-specific aggregates merged into the run summary (none here)."""
        return {}


@dataclass
class DeploymentHandles:
    """Everything a built deployment exposes for inspection and for the run loop."""

    env: Environment
    network: Network
    registry: KeyRegistry
    contracts: ContractRegistry
    collector: MetricsCollector
    gateway: ClientGateway
    orderers: List[OrdererNode] = field(default_factory=list)
    peers: List[BaseNode] = field(default_factory=list)
    measurement_peers: List[str] = field(default_factory=list)
    #: Auxiliary protocol nodes that are neither orderers nor peers (today:
    #: the cross-shard 2PC coordinator).  Started alongside the cluster.
    extra_nodes: List[BaseNode] = field(default_factory=list)


@dataclass
class SharedInfra:
    """Simulation infrastructure shared by the shards of one sharded cluster.

    A :class:`~repro.sharding.ShardedDeployment` creates these once and hands
    them to each per-shard sub-deployment so every shard's nodes live on the
    same clock, network and key registry, and all contracts land in one global
    registry (applications are disjoint across shards).
    """

    env: Environment
    network: Network
    registry: KeyRegistry
    contracts: ContractRegistry


class Deployment(abc.ABC):
    """Template for building and running one paradigm's cluster."""

    #: Human-readable paradigm name used in reports ("OX", "XOV", "OXII").
    name: str = "abstract"

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        self.config = config or SystemConfig()
        self.handles: Optional[DeploymentHandles] = None
        #: Prefix applied to every node name — ``"s2-"`` for shard 2 of a
        #: sharded cluster, ``""`` (no-op) for a standalone deployment.
        self.node_prefix: str = ""
        #: Global application names hosted by this deployment; ``None`` means
        #: all of ``config.application_names()`` (the standalone case).
        self.applications: Optional[Sequence[str]] = None
        #: Shared simulation infrastructure (sharded clusters only).
        self.shared: Optional[SharedInfra] = None
        #: Whether build() creates a client gateway.  Sharded clusters use a
        #: single routing gateway instead of per-shard ones.
        self.include_gateway: bool = True

    # --------------------------------------------------------------- topology
    def datacenter_for(self, group: str) -> str:
        """Which data center a node group lives in (Figure 7 moves one group)."""
        return FAR_DC if group in self.config.far_groups else NEAR_DC

    def application_names(self) -> List[str]:
        """Application ids hosted by this deployment (a shard hosts a subset)."""
        if self.applications is not None:
            return list(self.applications)
        return self.config.application_names()

    def orderer_names(self) -> List[str]:
        """Names of the ordering-service nodes."""
        return [self.node_prefix + orderer_id(i) for i in range(self.config.num_orderers)]

    def executor_names(self) -> List[str]:
        """Names of the executor/endorser nodes (one group per application)."""
        return [self.node_prefix + executor_id(i) for i in range(self.config.num_executors)]

    def non_executor_names(self) -> List[str]:
        """Names of the passive (non-executor) peers."""
        return [
            f"{self.node_prefix}nonexec-{i}" for i in range(self.config.num_non_executors)
        ]

    def agents_of_application(self, index: int) -> List[str]:
        """Executor names hosting application ``index``'s contract."""
        per_app = self.config.executors_per_application
        names = self.executor_names()
        return names[index * per_app : (index + 1) * per_app]

    def build_contracts(self) -> ContractRegistry:
        """Install the configured contract per application on its agents.

        ``config.contract`` names a class in the global contract registry
        (:data:`repro.common.registry.contract_registry`); third-party
        contracts registered with ``@register_contract`` plug in here.
        """
        contract_cls = contract_registry.get(self.config.contract)
        contracts = self.shared.contracts if self.shared is not None else ContractRegistry()
        for index, application in enumerate(self.application_names()):
            contracts.install(
                contract_cls(application), agents=self.agents_of_application(index)
            )
        return contracts

    @property
    def newblock_quorum(self) -> int:
        """Matching NEWBLOCK messages a peer requires before trusting a block."""
        if self.config.consensus_protocol == "pbft":
            return self.config.max_faulty_orderers + 1
        return 1

    # ------------------------------------------------------------------ build
    @abc.abstractmethod
    def build(self, initial_state: Optional[Dict[str, object]] = None) -> DeploymentHandles:
        """Construct a fresh simulated cluster and return its handles."""

    def _build_common(
        self, measurement_peers: Sequence[str]
    ) -> DeploymentHandles:
        """Create the environment, network, registry and metrics collector.

        With :attr:`shared` set (per-shard sub-deployments), the environment,
        network and key registry come from the enclosing sharded cluster and
        only the per-shard metrics collector is created fresh.
        """
        if self.shared is not None:
            env = self.shared.env
            network = self.shared.network
            registry = self.shared.registry
        elif self.config.backend != "sim":
            from repro.realnet import build_realnet

            env, network = build_realnet(
                self.config.backend,
                speed=self.config.realtime_speed,
                topology=Topology(latency=self.config.latency, seed=self.config.seed),
            )
            registry = KeyRegistry(seed=str(self.config.seed))
        else:
            env = Environment()
            topology = Topology(latency=self.config.latency, seed=self.config.seed)
            # The fault plan's verdict stream (probabilistic drops/duplicates)
            # derives from the scenario seed so fault timings are reproducible
            # from (spec, seed) and decorrelated from the jitter stream.
            faults = FaultPlan(seed=child_seed(self.config.seed, "fault-verdicts"))
            network = Network(env, topology=topology, faults=faults)
            registry = KeyRegistry(seed=str(self.config.seed))
        collector = MetricsCollector(measurement_peers=measurement_peers)
        contracts = self.build_contracts()
        handles = DeploymentHandles(
            env=env,
            network=network,
            registry=registry,
            contracts=contracts,
            collector=collector,
            gateway=None,  # type: ignore[arg-type]  # set by the concrete build()
            measurement_peers=list(measurement_peers),
        )
        return handles

    def _build_orderers(
        self,
        handles: DeploymentHandles,
        block_targets: Sequence[str],
        generate_graphs: bool,
    ) -> List[OrdererNode]:
        """Create the ordering service nodes."""
        orderer_names = self.orderer_names()
        datacenter = self.datacenter_for("orderers")
        orderers = [
            OrdererNode(
                env=handles.env,
                node_id=name,
                network=handles.network,
                registry=handles.registry,
                orderer_peers=orderer_names,
                block_targets=list(block_targets),
                config=self.config,
                generate_graphs=generate_graphs,
                datacenter=datacenter,
            )
            for name in orderer_names
        ]
        handles.orderers = orderers
        return orderers

    def _build_gateway(self, handles: DeploymentHandles, mode: str) -> ClientGateway:
        """Create the client gateway in the right data center."""
        gateway = ClientGateway(
            env=handles.env,
            node_id=CLIENT_GATEWAY,
            network=handles.network,
            registry=handles.registry,
            config=self.config,
            orderer_entry=self.orderer_names()[0],
            collector=handles.collector,
            mode=mode,
            contracts=handles.contracts if mode == "endorse" else None,
            datacenter=self.datacenter_for("clients"),
        )
        handles.gateway = gateway
        return gateway

    # -------------------------------------------------------------------- run
    def run(
        self,
        transactions: Optional[Sequence[Transaction]] = None,
        schedule: Optional[ArrivalSchedule] = None,
        initial_state: Optional[Dict[str, object]] = None,
        offered_load: Optional[float] = None,
        warmup_fraction: float = 0.2,
        drain: float = 10.0,
        poll_interval: float = 0.05,
        fault_schedule: Optional[object] = None,
        poll_hook: Optional[Callable[[DeploymentHandles], None]] = None,
        driver: Optional[object] = None,
        profile: bool = False,
    ) -> RunMetrics:
        """Build a fresh cluster, drive the workload and summarise the run.

        The workload comes either from ``(transactions, schedule)`` — wrapped
        in an open-loop :class:`ScheduleDriver` — or from an explicit
        ``driver`` implementing the driver protocol (e.g. the closed-loop
        :class:`repro.agents.PopulationEngine`).  The simulation ends as soon
        as ``driver.is_complete`` reports done, or after ``driver.duration +
        drain`` simulated seconds, whichever comes first.  Throughput and
        latency are computed over the steady-state window
        ``[warmup_fraction * duration, duration]`` — completions during the
        drain tail are excluded, matching the paper's "average measured
        during the steady state" methodology.

        ``fault_schedule`` is any object exposing ``install(handles,
        deployment)`` — the hook the fault harness uses to register seeded
        crash/partition/link events against the simulated clock
        (:class:`repro.testing.FaultInjector`).  ``poll_hook`` is invoked with
        the live handles on every monitor poll — the in-flight oracle hook
        point, letting invariant probes observe the deployment mid-run.

        With ``profile=True`` a :class:`repro.profiling.PhaseProfiler` is
        installed on the environment and the per-phase wall-clock breakdown
        lands in ``RunMetrics.extra["phase_times"]``.  Profiling never changes
        simulated behaviour — only wall-clock instrumentation is added.
        """
        # Same rules and messages as ExperimentSpec: a negative drain ends the
        # run before submission does, and a warmup outside [0, 1) leaves a
        # measurement window that is too wide or empty.
        if drain < 0:
            raise ConfigurationError("duration must be positive and drain >= 0")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ConfigurationError("warmup_fraction must be in [0, 1)")
        if driver is None:
            if transactions is None or schedule is None:
                raise ValueError("run() needs either a driver or (transactions, schedule)")
            driver = ScheduleDriver(transactions, schedule)
        if fault_schedule is not None and self.config.backend != "sim":
            raise ConfigurationError(
                "fault schedules require the deterministic 'sim' backend — "
                "real backends cannot reproduce injected fault timings"
            )
        profiler = None
        if profile:
            from repro.profiling import PhaseProfiler

            profiler = PhaseProfiler()
            with profiler.timed("build"):
                handles = self.build(initial_state=initial_state)
            handles.env._profiler = profiler
            # Metrics recording happens inside node processes; wrapping the
            # hot recording entry point re-attributes that time to "metrics".
            handles.collector.record_commit = profiler.wrap(
                "metrics", handles.collector.record_commit
            )
        else:
            handles = self.build(initial_state=initial_state)
        env = handles.env
        if fault_schedule is None:
            # No fault schedule means every message on the wire is built by
            # honest protocol code, so signature verification would succeed by
            # construction: skip the per-message canonicalise+hash+HMAC wall
            # cost.  Simulated signature latencies are still charged, and the
            # signature bytes are observable nowhere, so ledgers, metrics and
            # fingerprints are bit-identical with crypto on.
            handles.registry.trust_channels()
        for orderer in handles.orderers:
            orderer.start()
        for peer in handles.peers:
            peer.start()
        for node in handles.extra_nodes:
            node.start()
        if fault_schedule is not None:
            fault_schedule.install(handles, self)
        driver.start(handles, self)

        duration = driver.duration
        horizon = duration + drain

        def monitor():
            while env.now < horizon:
                if poll_hook is not None:
                    poll_hook(handles)
                if driver.is_complete(handles):
                    return "complete"
                yield poll_interval
            return "horizon"

        wall_start = time.perf_counter()
        env.run(until=env.process(monitor(), name="run-monitor"))
        wall_clock = time.perf_counter() - wall_start
        warmup = duration * warmup_fraction
        measurement_end = duration
        if self.config.backend != "sim":
            # Real backends leak event-loop wall time into simulated time
            # (amplified by realtime_speed), pushing completions past the
            # nominal duration — the paper's steady-state window does not
            # transfer.  Count the whole run instead; the headline number
            # for real backends is wall_clock_throughput anyway.
            measurement_end = max(duration, float(env.now))
        load = offered_load if offered_load is not None else driver.offered_rate
        deduplicated = float(sum(o.requests_deduplicated for o in handles.orderers))
        extra = {
            "blocks_ordered": float(sum(o.blocks_ordered for o in handles.orderers)),
            "requests_rejected": float(sum(o.requests_rejected for o in handles.orderers)),
            "requests_deduplicated": deduplicated,
            "simulated_time": float(env.now),
        }
        if self.config.backend != "sim":
            # Real backends: the wall clock is the measurement.  These keys
            # (like the fault-run transport counters below) are added only
            # off the default path so fault-free simulated rows stay
            # bit-identical across this feature.
            extra["backend"] = self.config.backend
            extra["realtime_speed"] = float(self.config.realtime_speed)
            extra["wall_clock_seconds"] = wall_clock
            extra["wall_clock_throughput"] = (
                handles.collector.committed_count / wall_clock if wall_clock > 0 else 0.0
            )
        if fault_schedule is not None:
            # Conservation-law counters: under faults, sent != delivered and
            # the difference must be fully explained (see BaseTransport.reconcile).
            extra["transport"] = {
                key: int(value) for key, value in handles.network.reconcile().items()
            }
        extra.update(driver.extra_metrics(handles))

        def summarise() -> RunMetrics:
            return handles.collector.summarise(
                paradigm=self.name,
                offered_load=load,
                warmup=warmup,
                horizon=measurement_end,
                messages_sent=handles.network.messages_sent,
                extra=extra,
                extra_abort_reasons={"dedup_drop": int(deduplicated)} if deduplicated else None,
            )

        if profiler is None:
            return summarise()
        with profiler.timed("metrics"):
            metrics = summarise()
        # summarise() copied ``extra`` into a plain dict, so the snapshot —
        # which includes the summarise span itself — is added afterwards.
        metrics.extra["phase_times"] = profiler.snapshot()  # type: ignore[index]
        return metrics
