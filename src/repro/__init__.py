"""ParBlockchain reproduction: transaction parallelism for permissioned blockchains.

This library reproduces *ParBlockchain: Leveraging Transaction Parallelism in
Permissioned Blockchain Systems* (Amiri, Agrawal, El Abbadi — ICDCS 2019).  It
implements the three permissioned-blockchain paradigms the paper compares —

* **OX** (order-execute, sequential execution on every node),
* **XOV** (execute-order-validate, Hyperledger-Fabric style), and
* **OXII / ParBlockchain** (order, generate a dependency graph, execute in
  parallel following the graph) —

on top of a shared substrate: a deterministic discrete-event simulator, an
asynchronous authenticated network, pluggable consensus (PBFT / Raft / a
Kafka-style ordering service), a hash-chained ledger with a versioned world
state, smart contracts and a pluggable suite of multi-application benchmark
workloads built on one general conflict model (see ``docs/workloads.md``).

Quickstart::

    from repro import quick_comparison
    report = quick_comparison(contention=0.2, offered_load=1500)
    for paradigm, point in report.items():
        print(paradigm, point.throughput, point.latency_avg)

See ``examples/`` for complete scripts, ``docs/architecture.md`` for the
layered tour and ``docs/experiments.md`` for the declarative experiment API.
"""

from repro.common.config import BlockCutPolicy, CostModel, LatencyConfig, SystemConfig
from repro.core import (
    Block,
    DependencyGraph,
    ReadWriteSet,
    Transaction,
    TransactionResult,
    build_dependency_graph,
)
from repro.contracts import (
    AccountingContract,
    KeyValueContract,
    SmartContract,
    SupplyChainContract,
)
from repro.workload import (
    ConflictModel,
    ConflictScope,
    KeyValueWorkload,
    SmallBankWorkload,
    SupplyChainWorkload,
    WorkloadBase,
    WorkloadConfig,
    WorkloadGenerator,
)
from repro.paradigms import OXDeployment, OXIIDeployment, XOVDeployment
from repro.metrics.collector import RunMetrics
from repro.bench.runner import quick_comparison
from repro.experiments import (
    ExperimentResult,
    ExperimentSpec,
    ScenarioSpec,
    SweepEngine,
    register_contract,
    register_paradigm,
    register_workload,
)

__all__ = [
    "AccountingContract",
    "Block",
    "BlockCutPolicy",
    "ConflictModel",
    "ConflictScope",
    "CostModel",
    "DependencyGraph",
    "ExperimentResult",
    "ExperimentSpec",
    "KeyValueContract",
    "KeyValueWorkload",
    "LatencyConfig",
    "OXDeployment",
    "OXIIDeployment",
    "ReadWriteSet",
    "RunMetrics",
    "ScenarioSpec",
    "SmallBankWorkload",
    "SmartContract",
    "SupplyChainContract",
    "SupplyChainWorkload",
    "SweepEngine",
    "SystemConfig",
    "Transaction",
    "TransactionResult",
    "WorkloadBase",
    "WorkloadConfig",
    "WorkloadGenerator",
    "XOVDeployment",
    "build_dependency_graph",
    "quick_comparison",
    "register_contract",
    "register_paradigm",
    "register_workload",
]

__version__ = "0.1.0"
