"""Integration tests: full paradigm deployments on the simulated network.

These tests run complete OX / XOV / OXII clusters end to end on small
workloads and check the paper's correctness and behavioural claims: every
submitted transaction commits (or aborts) on every peer, replicas converge to
identical ledgers and states, asset totals are conserved, OXII never aborts
conflicting transactions while XOV does, and unauthorized clients are
rejected by the orderers' access control.
"""

from __future__ import annotations

import pytest

from repro.common.config import BlockCutPolicy, SystemConfig
from repro.contracts.accounting import AccountingContract
from repro.common.registry import paradigm_registry
from repro.paradigms import OXDeployment, OXIIDeployment, XOVDeployment, execute_run
from repro.workload.arrivals import constant_rate
from repro.workload.generator import ConflictScope, WorkloadConfig, WorkloadGenerator

FAST_CONFIG = SystemConfig(
    block_cut=BlockCutPolicy(max_transactions=10, max_bytes=1_000_000, max_delay=0.1),
)


def _workload(contention=0.0, count=40, scope=ConflictScope.WITHIN_APPLICATION, seed=5):
    generator = WorkloadGenerator(
        WorkloadConfig(contention=contention, conflict_scope=scope, seed=seed)
    )
    transactions = generator.generate(count)
    schedule = constant_rate(count, rate=400.0)
    state = generator.initial_state(transactions)
    return transactions, schedule, state


def _run(deployment_cls, contention=0.0, count=40, scope=ConflictScope.WITHIN_APPLICATION,
         config=FAST_CONFIG):
    transactions, schedule, state = _workload(contention, count, scope)
    deployment = deployment_cls(config)
    metrics = deployment.run(
        transactions=transactions,
        schedule=schedule,
        initial_state=state,
        warmup_fraction=0.0,
        drain=30.0,
    )
    return deployment, metrics, transactions, state


@pytest.mark.parametrize("deployment_cls", [OXDeployment, XOVDeployment, OXIIDeployment])
class TestAllParadigmsEndToEnd:
    def test_every_transaction_completes_everywhere(self, deployment_cls):
        deployment, metrics, transactions, _ = _run(deployment_cls, contention=0.0, count=30)
        collector = deployment.handles.collector
        assert collector.completed_count == len(transactions)
        assert metrics.committed + metrics.aborted > 0

    def test_replicas_converge_to_identical_state_and_ledger(self, deployment_cls):
        deployment, _, transactions, _ = _run(deployment_cls, contention=0.4, count=30)
        peers = deployment.handles.peers
        tips = {peer.ledger.tip.digest() for peer in peers}
        assert len(tips) == 1
        states = [peer.state.as_dict() for peer in peers]
        assert all(state == states[0] for state in states)
        # every submitted transaction is recorded in the ledger exactly once
        recorded = [tx.tx_id for block in peers[0].ledger for tx in block]
        assert sorted(recorded) == sorted(tx.tx_id for tx in transactions)
        assert peers[0].ledger.verify_chain()

    def test_total_assets_conserved(self, deployment_cls):
        deployment, _, _, initial_state = _run(deployment_cls, contention=0.5, count=30)
        initial_total = AccountingContract.total_balance(initial_state)
        for peer in deployment.handles.peers:
            assert AccountingContract.total_balance(peer.state.as_dict()) == pytest.approx(initial_total)


class TestContentionBehaviour:
    def test_oxii_commits_conflicting_transactions_without_aborts(self):
        deployment, _, transactions, _ = _run(OXIIDeployment, contention=1.0, count=30)
        collector = deployment.handles.collector
        assert collector.aborted_count == 0
        assert collector.committed_count == len(transactions)

    def test_xov_aborts_conflicting_transactions(self):
        deployment, _, transactions, _ = _run(XOVDeployment, contention=1.0, count=30)
        collector = deployment.handles.collector
        assert collector.aborted_count > 0
        assert collector.committed_count < len(transactions)

    def test_ox_is_unaffected_by_contention(self):
        deployment, _, transactions, _ = _run(OXDeployment, contention=1.0, count=30)
        collector = deployment.handles.collector
        assert collector.aborted_count == 0
        assert collector.committed_count == len(transactions)

    def test_oxii_handles_cross_application_dependencies(self):
        deployment, _, transactions, _ = _run(
            OXIIDeployment, contention=0.8, count=30, scope=ConflictScope.CROSS_APPLICATION
        )
        collector = deployment.handles.collector
        assert collector.aborted_count == 0
        assert collector.committed_count == len(transactions)
        states = [peer.state.as_dict() for peer in deployment.handles.peers]
        assert all(state == states[0] for state in states)

    def test_oxii_final_state_matches_sequential_reference(self):
        """The parallel, distributed execution equals a sequential replay."""
        deployment, _, transactions, initial_state = _run(OXIIDeployment, contention=0.6, count=30)
        # Sequential reference: replay the ledger order through the contract.
        reference = dict(initial_state)
        contract = AccountingContract("any", enforce_ownership=True)
        ledger = deployment.handles.peers[0].ledger
        for block in ledger:
            for tx in block:
                result = contract.execute(tx, reference)
                if not result.is_abort:
                    reference.update(result.updates)
        assert deployment.handles.peers[0].state.as_dict() == reference


class TestAccessControlAndConsensusVariants:
    def test_unauthorized_clients_are_rejected(self):
        transactions, schedule, state = _workload(count=10)
        deployment = OXIIDeployment(FAST_CONFIG)
        handles = deployment.build(initial_state=state)
        # Restrict every orderer to an ACL that excludes all workload clients.
        for orderer in handles.orderers:
            orderer.allowed_clients = {"someone-else"}
            orderer.start()
        for peer in handles.peers:
            peer.start()
        handles.gateway.submit_schedule(transactions, schedule)
        handles.env.run(until=5.0)
        assert handles.collector.completed_count == 0
        assert sum(o.requests_rejected for o in handles.orderers) == len(transactions)

    @pytest.mark.parametrize("protocol,orderers,faulty", [("pbft", 4, 1), ("raft", 3, 1)])
    def test_oxii_works_with_other_consensus_protocols(self, protocol, orderers, faulty):
        config = SystemConfig(
            num_orderers=orderers,
            max_faulty_orderers=faulty,
            consensus_protocol=protocol,
            block_cut=BlockCutPolicy(max_transactions=10, max_delay=0.1),
        )
        deployment, _, transactions, _ = _run(OXIIDeployment, contention=0.3, count=20, config=config)
        collector = deployment.handles.collector
        assert collector.committed_count == len(transactions)
        assert collector.aborted_count == 0


class TestExecuteRun:
    def test_registry_contains_three_paradigms(self):
        assert set(paradigm_registry) == {"OX", "XOV", "OXII"}

    def test_execute_run_end_to_end(self):
        metrics = execute_run(
            "oxii",
            system_config=FAST_CONFIG,
            workload_config=WorkloadConfig(contention=0.2),
            offered_load=300,
            duration=0.5,
            drain=10.0,
        )
        assert metrics.paradigm == "OXII"
        assert metrics.throughput > 0

    def test_unknown_paradigm_rejected(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            execute_run("pow")
