"""The benchmark's workloads, one measured repetition of each, and its checks.

Every workload runs the accounting generator at 50% contention on an open
Poisson schedule over the simulated clock, so the generator is never late:
arrivals are events in simulated time, not wall-clock sends.  A repetition is
one fresh deployment driven to completion in this process on one simulator
thread.  Its wall cost is timed around :meth:`Deployment.run` with the
cluster build inside it subtracted; set-up is the workload generation plus
that build.

The checks run after the timed region: every submitted transaction must have
completed before the horizon, the end state must pass the ledger-prefix,
no-loss and serializability oracles of :mod:`repro.testing`, and the
simulated observables must be identical on every repetition of one seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.common.config import BlockCutPolicy, SystemConfig
from repro.crypto import hashing, merkle
from repro.metrics.collector import RunMetrics
from repro.paradigms.run import make_deployment, prepare_driver
from repro.testing import (
    FaultInjector,
    FaultSchedule,
    PeerView,
    ScenarioConfig,
    ScenarioOutcome,
    check_ledger_prefix_agreement,
    check_no_loss_no_duplication,
    check_serializability,
)
from repro.testing.harness import _is_quiescent
from repro.workload.generator import WorkloadConfig

#: Simulated seconds a run may continue after its last arrival before the
#: monitor gives up (the ``execute_run`` default).
DRAIN = 20.0

#: Share of the submission phase excluded from the steady-state window.
WARMUP_FRACTION = 0.2

CONTENTION = 0.5

#: Transactions in the untimed warm-up run that starts every session.
WARMUP_TRANSACTIONS = 512


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a cluster, a paradigm and an offered load.

    Why each workload was chosen is recorded next to its name in
    ``BENCHMARK.json``.
    """

    name: str
    paradigm: str
    offered_load: float
    block_size: int
    transactions: int
    #: Index of the orderer crashed at a quarter of the submission phase
    #: (it stays down); ``None`` runs fault-free on trusted channels.
    crash_orderer: Optional[int]
    #: Trace call groups this workload's paradigm never enters; the traced
    #: run fails its check if any of them is called.
    bypassed: Tuple[str, ...]

    def system_config(self) -> SystemConfig:
        """PBFT with 7 orderers (f=2) and 3 executors per application."""
        return SystemConfig(
            num_orderers=7,
            consensus_protocol="pbft",
            max_faulty_orderers=2,
            executors_per_application=3,
            block_cut=BlockCutPolicy(max_transactions=self.block_size, max_delay=0.2),
        )

    @property
    def duration(self) -> float:
        """Simulated length of the submission phase."""
        return self.transactions / self.offered_load


_GRAPH_AND_EXECUTION = ("graph", "execution.sched", "execution.commit")
_SIGNATURES = ("crypto.sign", "crypto.verify")

# The fault-free pair offers 1536 tps, not the 2048 tps of the wall-clock
# e2e gate: at 2048 tps OXII commits only ~1950 tps, so its simulated latency
# measures a growing backlog (p50 245 ms over 4096 transactions, 448 ms over
# 16384) and moved by 14% between seeds.  XOV's p99 still grows with run
# length at 1536 tps; its p50 and throughput do not.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="oxii-contended",
            paradigm="oxii",
            offered_load=1536.0,
            block_size=256,
            transactions=8192,
            crash_orderer=None,
            bypassed=_SIGNATURES,
        ),
        Workload(
            name="xov-contended",
            paradigm="xov",
            offered_load=1536.0,
            block_size=256,
            transactions=8192,
            crash_orderer=None,
            bypassed=_GRAPH_AND_EXECUTION + _SIGNATURES,
        ),
        Workload(
            name="ox-crash",
            paradigm="ox",
            offered_load=800.0,
            block_size=64,
            transactions=8192,
            crash_orderer=6,
            bypassed=_GRAPH_AND_EXECUTION,
        ),
    )
}


@dataclass
class Repetition:
    """One built, run and measured deployment, kept for checking."""

    seed: int
    generate_s: float
    build_s: float
    #: Wall seconds inside ``Deployment.run`` minus the build it performs.
    run_s: float
    metrics: RunMetrics
    deployment: Any
    driver: Any
    initial_state: Dict[str, Any]
    injector: FaultInjector

    @property
    def handles(self):
        return self.deployment.handles

    @property
    def submitted(self) -> int:
        return len(self.driver.transactions)

    @property
    def setup_s(self) -> float:
        return self.generate_s + self.build_s

    @property
    def committed_frac(self) -> float:
        """Transactions committed over the whole run per transaction submitted."""
        return self.handles.collector.committed_count / self.submitted

    def observables(self) -> Dict[str, float]:
        """The simulated observables: deterministic for a given seed."""
        latency = self.metrics.latency
        return {
            "sim_tput_tps": self.metrics.throughput,
            "sim_lat_p50_ms": latency.p50 * 1e3,
            "sim_lat_p99_ms": latency.p99 * 1e3,
            "committed_frac": self.committed_frac,
        }

    def fingerprint(self) -> Tuple:
        """Everything a behaviour-preserving change must leave identical."""
        handles = self.handles
        return (
            tuple(sorted(self.observables().items())),
            self.metrics.latency.count,
            handles.collector.committed_count,
            handles.collector.aborted_count,
            handles.network.messages_sent,
            handles.env.now,
            tuple(peer.ledger.tip.digest() for peer in handles.peers),
        )


def generate(workload: Workload, seed: int):
    """Derive one run's inputs from ``seed``: ``(system_config, driver, initial_state)``."""
    return prepare_driver(
        "accounting",
        workload.system_config(),
        WorkloadConfig(seed=seed, contention=CONTENTION),
        workload.offered_load,
        workload.duration,
    )


def clear_content_caches() -> None:
    """Empty the process-wide caches keyed by content.

    Every repetition of a session replays identical inputs, so without this
    the Merkle roots and string encodings of the first repetition would be
    cache hits in all later ones, and the benchmark would time work that a
    single run of the program always pays as free.
    """
    merkle._ROOT_CACHE.clear()
    hashing._STR_CACHE.clear()


def run_once(
    workload: Workload, seed: int, *, profile: bool = False, tracer=None, sampler=None
) -> Repetition:
    """Generate, build and run ``workload`` once.

    A ``tracer`` (:class:`perfbench.trace.Tracer`) is installed once the
    cluster is built and removed when the run returns, so it records the run
    and not the set-up.  With a running ``sampler``
    (:class:`perfbench.calibration.Sampler`) the time its samples took is
    left out of every interval.
    """
    clock = time.perf_counter
    elapsed = sampler.elapsed if sampler is not None else (lambda begin, end: end - begin)
    clear_content_caches()
    start = clock()
    system_config, driver, initial_state = generate(workload, seed)
    generated = clock()

    deployment = make_deployment(workload.paradigm, system_config)
    build_spans: List[Tuple[float, float]] = []
    build = deployment.build

    def timed_build(**kwargs):
        began = clock()
        handles = build(**kwargs)
        build_spans.append((began, clock()))
        if tracer is not None:
            tracer.install()
        return handles

    # Deployment.run builds through ``self.build``: an instance attribute
    # times it without touching the class.
    deployment.build = timed_build
    events = ()
    if workload.crash_orderer is not None:
        events = (
            {
                "at": driver.duration / 4,
                "action": "crash",
                "target": f"orderer:{workload.crash_orderer}",
            },
        )
    injector = FaultInjector(FaultSchedule(events=events))
    began = clock()
    try:
        metrics = deployment.run(
            driver=driver,
            initial_state=initial_state,
            offered_load=workload.offered_load,
            warmup_fraction=WARMUP_FRACTION,
            drain=DRAIN,
            fault_schedule=injector if events else None,
            profile=profile,
        )
        ended = clock()
    finally:
        if tracer is not None:
            tracer.uninstall()
    build_s = elapsed(*build_spans[0])
    return Repetition(
        seed=seed,
        generate_s=elapsed(start, generated),
        build_s=build_s,
        run_s=elapsed(began, ended) - build_s,
        metrics=metrics,
        deployment=deployment,
        driver=driver,
        initial_state=initial_state,
        injector=injector,
    )


def check_completion(rep: Repetition) -> List[str]:
    """Every submitted transaction completed before the monitor's horizon."""
    handles = rep.handles
    problems = []
    if not rep.driver.is_complete(handles):
        problems.append(
            f"{handles.collector.completed_count}/{rep.submitted} transactions "
            f"completed before the horizon"
        )
    elif handles.env.now >= rep.driver.duration + DRAIN:
        problems.append("run reached its horizon instead of completing")
    return problems


def check_oracles(rep: Repetition) -> List[str]:
    """Ledger-prefix, no-loss and serializability oracles on the end state."""
    handles = rep.handles
    transactions = list(rep.driver.submitted_transactions())
    peers = [
        PeerView(
            node_id=peer.node_id,
            ledger=peer.ledger,
            state=peer.state,
            quiescent=_is_quiescent(peer),
            committed=getattr(peer, "transactions_committed", 0),
            aborted=getattr(peer, "transactions_aborted", 0),
        )
        for peer in handles.peers
    ]
    outcome = ScenarioOutcome(
        config=ScenarioConfig(paradigm=rep.deployment.name, seed=rep.seed),
        schedule=rep.injector.schedule,
        injector=rep.injector,
        handles=handles,
        deployment=rep.deployment,
        transactions=transactions,
        initial_state=rep.initial_state,
        submitted_ids=tuple(tx.tx_id for tx in transactions),
        peers=peers,
        blocks_ordered=handles.orderers[0].blocks_ordered,
        requests_deduplicated=sum(o.requests_deduplicated for o in handles.orderers),
        stable=True,
        settle_windows=0,
        end_time=handles.env.now,
    )
    # Serializability skips replicas still mid-block, so require quiescence.
    problems = [f"{view.node_id} still mid-block" for view in peers if not view.quiescent]
    for check in (
        check_ledger_prefix_agreement,
        check_no_loss_no_duplication,
        check_serializability,
    ):
        problems.extend(f"{v.oracle}: {v.node_id} {v.message}" for v in check(outcome))
    return problems
