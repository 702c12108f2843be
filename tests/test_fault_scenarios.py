"""Named fault scenarios: targeted adversarial runs per protocol and paradigm.

Each test is one small, fully deterministic scenario with a hand-written
fault schedule aimed at a specific mechanism: leader/primary crashes for
every ordering protocol, partitions that cut off endorsers (XOV) or an
application's only agent (OXII), duplicate and reordered COMMIT delivery,
and at-least-once client request delivery.  Every scenario must satisfy all
four oracles — prefix agreement, no loss/duplication, serializability and
(since every schedule heals) liveness.
"""

from __future__ import annotations

import pytest

from repro.testing import (
    FaultEvent,
    FaultSchedule,
    ScenarioConfig,
    run_all_oracles,
    run_scenario,
)


def assert_clean(outcome):
    violations = run_all_oracles(outcome)
    assert not violations, "\n".join(
        f"[{v.oracle}] {v.node_id}: {v.message}" for v in violations
    )
    assert outcome.stable, "scenario did not settle"


def crash_window(target: str, start: float, end: float) -> FaultSchedule:
    return FaultSchedule(events=(
        FaultEvent(at=start, action="crash", target=target),
        FaultEvent(at=end, action="restart", target=target),
    ))


class TestOrderingLeaderCrash:
    """Crash the entry orderer mid-run under each ordering protocol."""

    @pytest.mark.parametrize(
        "consensus,f,orderers",
        [("kafka", 0, 3), ("raft", 1, 3), ("pbft", 1, 4)],
    )
    @pytest.mark.parametrize("paradigm", ["OX", "XOV", "OXII"])
    def test_leader_crash_mid_block_heals(self, paradigm, consensus, f, orderers):
        config = ScenarioConfig(
            paradigm=paradigm, seed=17, offered_load=250, duration=1.0,
            consensus=consensus, max_faulty_orderers=f, num_orderers=orderers,
        )
        outcome = run_scenario(config, crash_window("leader", 0.35, 0.8))
        assert_clean(outcome)
        # The run survives the crash: blocks ordered both before and after.
        assert outcome.blocks_ordered >= 2
        assert all(p.height == outcome.blocks_ordered for p in outcome.peers)

    def test_follower_crash_is_invisible_to_safety_and_liveness(self):
        config = ScenarioConfig(paradigm="OXII", seed=17, offered_load=250, duration=1.0)
        outcome = run_scenario(config, crash_window("orderer:1", 0.2, 0.9))
        assert_clean(outcome)


class TestConsensusProposalRetry:
    def test_crashed_leader_retries_in_flight_proposal_after_restart(self):
        """A proposal multicast while the leader was crashed is lost; the
        retry timer must re-send it after recovery instead of stalling."""
        config = ScenarioConfig(paradigm="OX", seed=23, offered_load=300, duration=1.0)
        outcome = run_scenario(config, crash_window("leader", 0.3, 0.7))
        assert_clean(outcome)
        retries = outcome.handles.orderers[0].consensus.proposal_retries
        assert retries > 0, "expected the leader to retry at least one proposal"


class TestPbftFollowersCatchUp:
    @pytest.mark.parametrize("paradigm", ["OX", "XOV", "OXII"])
    def test_followers_partitioned_in_turn_decide_after_heal(self, paradigm):
        """Cut off one PBFT follower after another: each misses instances the
        rest decide, until only the primary holds the last blocks and peers
        cannot collect f+1 matching NEWBLOCKs.  After the heal the lagging
        followers must catch up and deliver them."""
        config = ScenarioConfig(
            paradigm=paradigm, seed=25, offered_load=250, duration=1.0,
            consensus="pbft", max_faulty_orderers=1, num_orderers=4,
        )
        schedule = FaultSchedule(events=(
            FaultEvent(at=0.47, action="partition", groups=(("orderer:3",),)),
            FaultEvent(at=0.63, action="partition", groups=(("orderer:1",),)),
            FaultEvent(at=0.98, action="partition", groups=(("orderer:2",),)),
            FaultEvent(at=1.31, action="heal_partition"),
        ))
        assert_clean(run_scenario(config, schedule))


class TestPartitions:
    def test_xov_partition_spanning_the_endorsers(self):
        """Cut every endorser away from the gateway and orderers: endorsement
        stalls, in-flight transactions are lost pre-ordering, and after the
        heal the system resumes with all four invariants intact."""
        config = ScenarioConfig(paradigm="XOV", seed=29, offered_load=250, duration=1.0)
        schedule = FaultSchedule(events=(
            FaultEvent(at=0.3, action="partition", groups=(("peers",),)),
            FaultEvent(at=0.7, action="heal_partition"),
        ))
        outcome = run_scenario(config, schedule)
        assert_clean(outcome)
        assert outcome.blocks_ordered >= 1

    def test_oxii_partition_isolating_one_applications_only_agent(self):
        """With one executor per application, partitioning one agent blocks
        every cross-application chain through it; the commit-retransmit loop
        must finish those blocks after the heal."""
        config = ScenarioConfig(
            paradigm="OXII", seed=31, offered_load=250, duration=1.0,
            contention=0.5, conflict_scope="cross_application",
        )
        schedule = FaultSchedule(events=(
            FaultEvent(at=0.25, action="partition", groups=(("peer:0",),)),
            FaultEvent(at=0.75, action="heal_partition"),
        ))
        outcome = run_scenario(config, schedule)
        assert_clean(outcome)

    def test_partition_between_orderers_stalls_then_heals(self):
        config = ScenarioConfig(
            paradigm="OXII", seed=37, offered_load=250, duration=1.0,
            consensus="raft", max_faulty_orderers=1,
        )
        schedule = FaultSchedule(events=(
            FaultEvent(at=0.3, action="partition", groups=(("orderer:1", "orderer:2"),)),
            FaultEvent(at=0.7, action="heal_partition"),
        ))
        outcome = run_scenario(config, schedule)
        assert_clean(outcome)


class TestMessageAnomalies:
    def test_duplicate_commit_delivery_between_executors(self):
        """Algorithm 3 must tally one vote per executor however often the
        COMMIT is delivered — duplicates must not double-apply updates."""
        config = ScenarioConfig(
            paradigm="OXII", seed=41, offered_load=250, duration=1.0,
            contention=0.5, conflict_scope="cross_application",
        )
        schedule = FaultSchedule(events=(
            FaultEvent(at=0.0, action="degrade_link", sender="peers", recipient="peers",
                       duplicate_probability=1.0),
            FaultEvent(at=0.9, action="heal_link", sender="peers", recipient="peers"),
        ))
        outcome = run_scenario(config, schedule)
        assert_clean(outcome)
        assert outcome.handles.network.messages_duplicated > 0

    def test_duplicated_client_requests_are_ordered_once(self):
        """At-least-once REQUEST delivery: the orderer's dedup is what keeps
        the no-duplication oracle green."""
        config = ScenarioConfig(paradigm="OX", seed=43, offered_load=250, duration=1.0)
        schedule = FaultSchedule(events=(
            FaultEvent(at=0.0, action="degrade_link", sender="gateway", recipient="leader",
                       duplicate_probability=1.0),
            FaultEvent(at=0.9, action="heal_link", sender="gateway", recipient="leader"),
        ))
        outcome = run_scenario(config, schedule)
        assert_clean(outcome)
        assert outcome.requests_deduplicated > 0

    def test_reordered_consensus_traffic(self):
        """DELIVER/COMMIT notices may overtake their payload-bearing message;
        the protocols must buffer rather than decide a missing payload."""
        for consensus, f, n in (("kafka", 0, 3), ("raft", 1, 3)):
            config = ScenarioConfig(
                paradigm="OXII", seed=47, offered_load=250, duration=1.0,
                consensus=consensus, max_faulty_orderers=f, num_orderers=n,
            )
            schedule = FaultSchedule(events=(
                FaultEvent(at=0.0, action="degrade_link", sender="orderers",
                           recipient="orderers", reorder_window=0.05),
                FaultEvent(at=0.9, action="heal_link", sender="orderers",
                           recipient="orderers"),
            ))
            outcome = run_scenario(config, schedule)
            assert_clean(outcome)

    def test_lossy_delayed_link_to_an_executor(self):
        config = ScenarioConfig(paradigm="OXII", seed=53, offered_load=250, duration=1.0)
        schedule = FaultSchedule(events=(
            FaultEvent(at=0.1, action="degrade_link", sender="leader", recipient="peer:1",
                       drop_probability=0.7, extra_delay=0.02),
            FaultEvent(at=0.7, action="heal_link", sender="leader", recipient="peer:1"),
        ))
        outcome = run_scenario(config, schedule)
        assert_clean(outcome)


class TestDeclarativeFaultRuns:
    def test_execute_run_accepts_a_fault_section(self):
        """The spec-path integration: execute_run drives the injector from
        the same dict form a ScenarioSpec's ``faults`` section carries."""
        from repro.common.config import SystemConfig
        from repro.paradigms.run import execute_run

        metrics = execute_run(
            "OXII",
            system_config=SystemConfig().with_overrides(
                recovery={"enabled": True},
                block_cut={"max_transactions": 25, "max_delay": 0.1},
            ),
            offered_load=200,
            duration=1.0,
            drain=3.0,
            seed=61,
            faults={"events": [
                {"at": 0.3, "action": "crash", "target": "leader"},
                {"at": 0.7, "action": "restart", "target": "leader"},
            ]},
        )
        assert metrics.committed > 0

    def test_fault_example_spec_loads(self):
        from repro.experiments import ExperimentSpec

        spec = ExperimentSpec.from_file("examples/specs/fault_scenarios.json")
        assert any(point.faults for point in spec.expand())


class TestExecutorCrashRestart:
    @pytest.mark.parametrize("paradigm", ["OX", "XOV", "OXII"])
    def test_peer_crash_mid_run_catches_up_after_restart(self, paradigm):
        config = ScenarioConfig(
            paradigm=paradigm, seed=59, offered_load=250, duration=1.0, contention=0.4,
        )
        outcome = run_scenario(config, crash_window("peer:1", 0.3, 0.75))
        assert_clean(outcome)
        crashed = outcome.peers[1]
        # The crashed peer missed blocks live but recovered every one of them.
        assert crashed.height == outcome.blocks_ordered
