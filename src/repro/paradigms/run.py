"""One-call experiment runner used by examples, benchmarks and the CLI.

:func:`execute_run` is the primitive every layer shares: resolve the paradigm
and workload generator from the global registries, generate the workload, and
run one deployment at one offered load.  It is the only single-run entry
point; multi-point experiments are described declaratively with
:mod:`repro.experiments` and the sweep engine calls :func:`execute_run` per
point.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.common.config import SystemConfig
from repro.common.errors import ConfigurationError
from repro.common.registry import paradigm_registry, workload_registry
from repro.common.rng import child_seed
from repro.metrics.collector import RunMetrics
from repro.workload.arrivals import poisson_rate
from repro.workload.generator import WorkloadConfig

def prepare_workload(
    generator: str,
    system_config: SystemConfig,
    workload_config: "WorkloadConfig",
    offered_load: float,
    duration: float,
):
    """Resolve one run's workload: transactions, arrivals and initial state.

    The single place where a run's inputs are derived — shared by
    :func:`execute_run` and the fault harness
    (:func:`repro.testing.run_scenario`), so adversarial scenarios replay
    exactly the workload a production run would submit.  Returns
    ``(system_config, transactions, schedule, initial_state)``; the returned
    system config has the generator's declared contract installed.

    The arrival stream derives a labelled child seed: seeding it with the
    workload seed itself would draw from the identical Mersenne stream the
    generator consumes (correlated randomness — found by the determinism
    audit).
    """
    generator_factory = workload_registry.get(generator)
    # A workload generator may declare the registered contract its
    # transactions are written for (WorkloadBase.contract); align the
    # deployment so e.g. generator="kvstore" installs the KV contract without
    # every spec having to repeat system.contract.
    required_contract = getattr(generator_factory, "contract", None)
    if required_contract and system_config.contract != required_contract:
        system_config = system_config.with_overrides(contract=required_contract)
    workload = generator_factory(workload_config)
    count = max(1, int(round(offered_load * duration)))
    transactions = workload.generate(count)
    schedule = poisson_rate(
        count, offered_load, seed=child_seed(workload_config.seed, "arrivals")
    )
    initial_state = workload.initial_state(transactions)
    return system_config, transactions, schedule, initial_state


def prepare_driver(
    generator: str,
    system_config: SystemConfig,
    workload_config: "WorkloadConfig",
    offered_load: float,
    duration: float,
):
    """Resolve one run's workload *driver*: open- or closed-loop.

    Returns ``(system_config, driver, initial_state)``.  Generators that
    declare ``population_driven = True`` (the agent-based workloads) build a
    closed-loop :class:`repro.agents.PopulationEngine`; everything else goes
    through :func:`prepare_workload` and is wrapped in the open-loop
    :class:`repro.paradigms.base.ScheduleDriver`, so both kinds plug into
    the same :meth:`Deployment.run` loop.
    """
    num_shards = system_config.shards.num_shards
    if num_shards > workload_config.conflict.keyspace:
        raise ConfigurationError(
            f"conflict.keyspace ({workload_config.conflict.keyspace}) is smaller than "
            f"shards.num_shards ({num_shards}) — every shard needs at least one key; "
            f"raise conflict.keyspace or lower shards.num_shards"
        )
    generator_factory = workload_registry.get(generator)
    if getattr(generator_factory, "population_driven", False):
        required_contract = getattr(generator_factory, "contract", None)
        if required_contract and system_config.contract != required_contract:
            system_config = system_config.with_overrides(contract=required_contract)
        workload = generator_factory(workload_config)
        driver = workload.build_driver(offered_load=offered_load, duration=duration)
        initial_state = driver.population.initial_state()
        return system_config, driver, initial_state
    from repro.paradigms.base import ScheduleDriver

    system_config, transactions, schedule, initial_state = prepare_workload(
        generator, system_config, workload_config, offered_load, duration
    )
    return system_config, ScheduleDriver(transactions, schedule), initial_state


def make_deployment(paradigm: str, system_config: SystemConfig):
    """Instantiate ``paradigm``'s deployment, sharded if the config says so.

    The single construction point shared by :func:`execute_run` and the fault
    harness (:func:`repro.testing.run_scenario`): with ``shards.num_shards >
    1`` the paradigm deployment is wrapped in a
    :class:`repro.sharding.ShardedDeployment`; otherwise (including an
    explicit 1-shard config) it is built directly, so unsharded behaviour is
    untouched.
    """
    deployment_cls = paradigm_registry.get(paradigm)
    if system_config.shards.num_shards > 1:
        from repro.sharding import ShardedDeployment

        return ShardedDeployment(deployment_cls, system_config)
    return deployment_cls(system_config)


def execute_run(
    paradigm: str,
    system_config: Optional[SystemConfig] = None,
    workload_config: Optional[WorkloadConfig] = None,
    offered_load: float = 1000.0,
    duration: float = 2.0,
    warmup_fraction: float = 0.2,
    drain: float = 20.0,
    seed: Optional[int] = None,
    generator: str = "accounting",
    faults: Optional[object] = None,
    profile: Optional[bool] = None,
) -> RunMetrics:
    """Run one paradigm against one workload at one offered load.

    ``offered_load`` is the open-loop client request rate (transactions per
    second) and ``duration`` the length of the submission phase in simulated
    seconds; the run keeps going (up to ``drain`` extra seconds) until every
    submitted transaction has completed at every measurement peer.
    ``generator`` names a workload-generator factory in the global workload
    registry.

    ``faults`` makes the run adversarial: a
    :class:`repro.testing.FaultSchedule`, a :class:`repro.testing.FaultInjector`,
    or the dict form a :class:`~repro.experiments.spec.ScenarioSpec` carries in
    its ``faults`` section (either ``{"events": [...]}`` or ``{"random":
    {...}}``, resolved deterministically from the workload seed).

    ``profile=True`` enables the phase profiler (see :mod:`repro.profiling`),
    putting a per-phase wall-clock breakdown in
    ``RunMetrics.extra["phase_times"]``; ``profile=None`` (the default)
    defers to the ``REPRO_PROFILE`` environment variable.
    """
    paradigm_registry.get(paradigm)  # fail fast on unknown names
    if offered_load <= 0:
        raise ConfigurationError("offered_load must be positive")
    if duration <= 0:
        raise ConfigurationError("duration must be positive")

    system_config = system_config or SystemConfig()
    workload_config = workload_config or WorkloadConfig(
        num_applications=system_config.num_applications
    )
    if seed is not None:
        workload_config = replace(workload_config, seed=seed)

    system_config, driver, initial_state = prepare_driver(
        generator, system_config, workload_config, offered_load, duration
    )

    fault_schedule = None
    if faults is not None:
        from repro.testing import resolve_fault_injector

        fault_schedule = resolve_fault_injector(
            faults,
            seed=workload_config.seed,
            system_config=system_config,
            default_horizon=duration,
        )

    if profile is None:
        from repro.profiling import profiling_requested

        profile = profiling_requested()

    deployment = make_deployment(paradigm, system_config)
    return deployment.run(
        driver=driver,
        initial_state=initial_state,
        offered_load=offered_load,
        warmup_fraction=warmup_fraction,
        drain=drain,
        fault_schedule=fault_schedule,
        profile=profile,
    )
