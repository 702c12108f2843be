"""The seeded random fault battery, plus the broken-commit-rule canary.

For every seed and paradigm the battery generates a random fault schedule
(crashes, partitions, link drops/delays/duplication/reordering — all healing
before the horizon), runs the full deployment under it and requires all four
oracles to pass.  On a failure the schedule is shrunk to its minimal failing
form and dumped as a JSON repro artifact (CI uploads it).

``REPRO_FAULT_SEEDS`` widens the sweep (the CI fault-battery job runs 30
seeds x 3 paradigms; the tier-1 default stays small for speed).
``REPRO_FAULT_ARTIFACT_DIR`` picks where failing schedules land.

The canary test mutates OXII's commit rule in-process (the speculative read
view of Algorithm 1 stops applying predecessor results) and demands that the
serializability oracle catches it — with a shrunken schedule of at most five
fault events emitted as an artifact.  That closes the loop: the battery is
only trustworthy if a real safety bug cannot slip past it.
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.common.config import SystemConfig, default_tau
from repro.nodes import executor as executor_module
from repro.sharding import coordinator as coordinator_module
from repro.testing import (
    FaultSchedule,
    ScenarioConfig,
    check_cross_shard_atomicity,
    check_serializability,
    dump_repro_artifact,
    run_all_oracles,
    run_scenario,
    shrink_schedule,
)

#: Seeds per paradigm; CI sets REPRO_FAULT_SEEDS=30 for the full battery.
BATTERY_SEEDS = int(os.environ.get("REPRO_FAULT_SEEDS", "3"))
ARTIFACT_DIR = Path(os.environ.get("REPRO_FAULT_ARTIFACT_DIR", "."))

PARADIGMS = ("OX", "XOV", "OXII")
#: Rotate the ordering protocol with the seed so the battery covers all three.
CONSENSUS_ROTATION = (("kafka", 0, 3), ("raft", 1, 3), ("pbft", 1, 4))


def battery_config(paradigm: str, seed: int) -> ScenarioConfig:
    # Decorrelated rotations: consensus advances every 3 seeds while
    # contention cycles per seed, so 9 consecutive seeds cover the full
    # consensus × contention cross product (a shared modulus would pin each
    # protocol to a single contention level forever).
    consensus, f, orderers = CONSENSUS_ROTATION[(seed // 3) % len(CONSENSUS_ROTATION)]
    return ScenarioConfig(
        paradigm=paradigm,
        seed=seed,
        offered_load=250,
        duration=1.0,
        contention=(0.0, 0.3, 0.8)[seed % 3],
        conflict_scope=("within_application", "cross_application")[(seed // 2) % 2],
        consensus=consensus,
        max_faulty_orderers=f,
        num_orderers=orderers,
    )


def assert_row_holds(config: ScenarioConfig, schedule, name: str, label: str) -> None:
    """Run one battery row; on a violation shrink it and fail with a repro artifact."""
    outcome = run_scenario(config, schedule)
    violations = run_all_oracles(outcome)
    if violations:
        def still_fails(candidate):
            return bool(run_all_oracles(run_scenario(config, candidate)))

        shrunk = shrink_schedule(schedule, still_fails, max_attempts=60)
        final = run_all_oracles(run_scenario(config, shrunk))
        artifact = dump_repro_artifact(
            ARTIFACT_DIR / f"fault-repro-{name}.json", config, shrunk, final or violations
        )
        pytest.fail(
            f"{label} violated oracles "
            f"({'; '.join(v.oracle for v in violations)}); "
            f"shrunken repro with {len(shrunk)} events at {artifact}"
        )


@pytest.mark.parametrize("paradigm", PARADIGMS)
@pytest.mark.parametrize("seed", range(BATTERY_SEEDS))
def test_random_fault_battery(paradigm: str, seed: int):
    config = battery_config(paradigm, seed)
    assert_row_holds(
        config, config.random_schedule(events=5), f"{paradigm}-{seed}", f"{paradigm} seed={seed}"
    )


#: τ(A) values the several-agents rows sweep, with three agents per application.
MULTI_AGENT_TAUS = (1, 2)


def multi_agent_battery_config(seed: int, tau: int) -> ScenarioConfig:
    """An OXII battery row where every application has three agents.

    The plain rows run one agent per application, so no COMMIT ever carries
    a result this executor also computed itself, and τ(A) > 1 never needs a
    second vote; these rows cover both.
    """
    base = battery_config("OXII", seed)
    applications = SystemConfig().application_names()
    return replace(
        base, system={"executors_per_application": 3, "tau": default_tau(applications, tau)}
    )


@pytest.mark.parametrize("tau", MULTI_AGENT_TAUS)
@pytest.mark.parametrize("seed", range(BATTERY_SEEDS))
def test_multi_agent_fault_battery(seed: int, tau: int):
    config = multi_agent_battery_config(seed, tau)
    assert_row_holds(
        config,
        config.random_schedule(events=5),
        f"OXII-3agents-tau{tau}-{seed}",
        f"OXII (3 agents, tau={tau}) seed={seed}",
    )


def test_agents_replaying_a_chain_stay_serializable():
    """Fault-free, two agents per application: an agent that already executed
    a hot-key chain locally must not let a later COMMIT for the chain's
    ancestors step its speculative view back while the next link runs."""
    config = ScenarioConfig(paradigm="OXII", seed=7, system={"executors_per_application": 2})
    assert not run_all_oracles(run_scenario(config))


def test_agent_casts_no_vote_for_a_transaction_committed_while_it_ran():
    """Three agents per application: an agent cut off and crashed catches up
    on COMMITs for transactions it is still executing.  Its own late result
    read those transactions' committed writes and must not be multicast as
    a vote, or peers that take it first commit a state no serial run gives."""
    config = multi_agent_battery_config(11, 1)
    schedule = FaultSchedule.from_dict({"events": [
        {"action": "partition", "at": 0.51,
         "groups": [["orderer:1", "peer:8", "peer:4", "peer:2", "peer:0"]]},
        {"action": "partition", "at": 0.87, "groups": [["peer:1"]]},
        {"action": "crash", "at": 0.89, "target": "peer:2"},
        {"action": "restart", "at": 1.04, "target": "peer:2"},
    ]})
    assert not run_all_oracles(run_scenario(config, schedule))


#: Shard counts the sharded battery rows sweep (× REPRO_FAULT_SEEDS seeds).
SHARD_COUNTS = (2, 4)


def sharded_battery_config(seed: int, num_shards: int) -> ScenarioConfig:
    """A sharded battery row: the unsharded rotation plus a shards section.

    The paradigm rotates with the seed (instead of a full cross product) so
    the sharded battery stays the same size as one unsharded paradigm sweep
    while still covering OX/XOV/OXII × kafka/raft/pbft × contention levels.
    """
    base = battery_config(PARADIGMS[seed % len(PARADIGMS)], seed)
    return replace(
        base,
        system={"num_applications": 4, "shards": {"num_shards": num_shards}},
    )


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("seed", range(BATTERY_SEEDS))
def test_sharded_fault_battery(seed: int, num_shards: int):
    """The random battery over sharded deployments: faults now also hit the
    coordinator and whole shards (they are in every random role pool via the
    crash/partition targets), and all oracles — including cross-shard
    atomicity — must hold."""
    config = sharded_battery_config(seed, num_shards)
    assert_row_holds(
        config,
        config.random_schedule(events=5),
        f"sharded-{num_shards}-{seed}",
        f"sharded({num_shards}) seed={seed}",
    )


class TestBrokenCommitRuleIsCaught:
    def test_serializability_oracle_catches_a_mutated_commit_rule(self, monkeypatch, tmp_path):
        """Disable the speculative read view (Algorithm 1's C_e ∪ X_e overlay):
        executors commit results computed against stale state.  The oracle
        must fire, and the shrinker must reduce the schedule to ≤ 5 events."""
        config = ScenarioConfig(
            paradigm="OXII", seed=5, offered_load=250, duration=1.0, contention=0.5,
        )
        schedule = config.random_schedule(events=8)

        monkeypatch.setattr(
            executor_module._SpeculativeView, "apply", lambda self, updates: None
        )

        def still_fails(candidate):
            return bool(check_serializability(run_scenario(config, candidate)))

        assert still_fails(schedule), "mutated commit rule must violate serializability"
        shrunk = shrink_schedule(schedule, still_fails, max_attempts=60)
        assert len(shrunk) <= 5, f"shrunken schedule still has {len(shrunk)} events"

        outcome = run_scenario(config, shrunk)
        violations = check_serializability(outcome)
        assert violations and all(v.oracle == "serializability" for v in violations)
        artifact = dump_repro_artifact(
            tmp_path / "broken-commit-rule.json", config, shrunk, violations
        )
        assert artifact.exists()

    def test_restored_commit_rule_passes_again(self):
        """Guard against the canary leaking state: the same scenario is clean
        with the real commit rule."""
        config = ScenarioConfig(
            paradigm="OXII", seed=5, offered_load=250, duration=1.0, contention=0.5,
        )
        outcome = run_scenario(config, config.random_schedule(events=8))
        assert not run_all_oracles(outcome)


def _sharded_canary_config() -> ScenarioConfig:
    # Contention > 0 produces cross-shard lock conflicts, i.e. abort votes —
    # the inputs a broken commit rule mishandles.
    return ScenarioConfig(
        paradigm="OXII",
        seed=11,
        offered_load=300.0,
        duration=1.0,
        contention=0.3,
        system={"num_applications": 4, "shards": {"num_shards": 2}},
    )


class TestBrokenCrossShardCommitRuleIsCaught:
    def test_atomicity_oracle_catches_a_mutated_decision_rule(self, monkeypatch, tmp_path):
        """Force every shard's decision record to COMMIT regardless of the
        coordinator's actual verdict: shards that voted abort now see a commit
        decision.  The cross-shard atomicity oracle (which re-derives the true
        votes from the chains) must fire, and the shrinker must reduce the
        schedule to a small repro artifact."""
        config = _sharded_canary_config()
        schedule = config.random_schedule(events=6)

        real = coordinator_module.make_decision_record

        def forced_commit(
            transaction, shard, participants, local_keys,
            decision, reason, updates, coordinator, now,
        ):
            return real(
                transaction, shard, participants, local_keys,
                "commit", "", updates, coordinator, now,
            )

        monkeypatch.setattr(coordinator_module, "make_decision_record", forced_commit)

        def still_fails(candidate):
            return bool(check_cross_shard_atomicity(run_scenario(config, candidate)))

        assert still_fails(schedule), "mutated decision rule must violate atomicity"
        shrunk = shrink_schedule(schedule, still_fails, max_attempts=60)
        assert len(shrunk) <= 3, f"shrunken schedule still has {len(shrunk)} events"

        outcome = run_scenario(config, shrunk)
        violations = check_cross_shard_atomicity(outcome)
        assert violations and all(v.oracle == "cross_shard_atomicity" for v in violations)
        assert any("voted abort" in v.message for v in violations)
        artifact = dump_repro_artifact(
            tmp_path / "broken-cross-shard-commit.json", config, shrunk, violations
        )
        assert artifact.exists()

    def test_restored_decision_rule_passes_again(self):
        """Same scenario, real decision rule: every oracle is clean."""
        config = _sharded_canary_config()
        outcome = run_scenario(config, config.random_schedule(events=6))
        assert not run_all_oracles(outcome)
