"""Execution hot-path benchmark: sparse frontier graphs + wave execution vs seed.

PR 1 made dependency-graph *construction* scale and PR 4 made scheduling
O(V+E); this benchmark tracks the remaining hot loop — building the graph a
block executes against and driving a contract runner through it — plus the
XOV endorsement loop against state snapshots.  Faithful copies of the seed
implementations are kept here (not in ``src/``): the poll-by-rescan
``GraphScheduler`` whose every poll rebuilt ``X_e ∪ C_e`` and re-derived
predecessor sets, and the full-dict-copy ``WorldState.snapshot``.

The timed path is the *sparse* frontier-chain construction (the only one
``build_dependency_graph`` has) feeding the wave-stratified engine;
each row also executes the same block on the all-pairs reference graph
(:func:`benchmarks.seed_reference.all_pairs_graph`) and asserts both runs
produce identical results, state and wave profile — the sparse-vs-all-pairs
equivalence obligation.  ``edges`` is the sparse edge count;
``all_pairs_edges`` records the quadratic count it replaces (4,524,210 →
~17k at 4096/high).

Block sizes sweep 256 → 4096 under the same three Zipfian contention profiles
as :mod:`benchmarks.test_graph_scaling`.  The seed engine is quadratic in
block size on contended profiles, so by default it is timed up to
``LEGACY_EXEC_CAPS`` per profile (the ``high`` profile's seed engine needs
~3.5 minutes at 4096); rows above the cap carry ``seed_skipped: true``
instead of ``seed_ms``/``speedup`` so downstream baseline tooling can rely on
the marker rather than KeyError on absent columns.  Set ``REPRO_BENCH_FULL=1``
to time (and equivalence-check) the seed engine everywhere.

Rows land in ``BENCH_results.json`` (via the shared conftest recorder); the
``perf-regression`` CI job diffs them against ``benchmarks/baselines.json``
(see ``tools/perf_gate.py``).  In-test CI gates: >=2x over the seed engine on
the contended profiles at the largest seed-timed size, >=2x on endorsement
snapshots, and the PR-6 absolute floor of >=34 blocks/s at 4096/high
(measured here: ~58, vs 3.4 on the all-pairs countdown path this replaces).
``REPRO_BENCH_NO_GATE=1`` records timings without enforcing floors (the
tier-1 correctness matrix sets it so timing noise on a shared runner cannot
fail a correctness job).
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import pytest

from benchmarks.conftest import FULL, record_rows
from benchmarks.seed_reference import all_pairs_graph, seed_execute_with_graph
from benchmarks.test_graph_scaling import CONTENTION_PROFILES, make_block
from repro.core.dependency_graph import build_dependency_graph
from repro.core.execution import ExecutionEngine
from repro.core.transaction import Transaction, TransactionResult
from repro.ledger.state import StateSnapshot, VersionedValue, WorldState

BLOCK_SIZES = (256, 1024, 4096)
#: Largest block size the seed engine is timed at per profile (it is
#: quadratic under contention); REPRO_BENCH_FULL=1 lifts the caps.
LEGACY_EXEC_CAPS = {"low": 4096, "medium": 4096, "high": 1024}
NO_GATE = os.environ.get("REPRO_BENCH_NO_GATE", "") not in ("", "0", "false")
#: CI speedup floor over the seed engine on the contended profiles.
GATE_FLOOR = 2.0
#: PR-6 absolute floor at 4096/high: >=10x the 3.4 blocks/s the all-pairs
#: countdown path managed (measured with sparse graphs: ~58 blocks/s).
SPARSE_GATE_BLOCKS_PER_S = 34.0


# The seed implementations being measured against live in
# benchmarks/seed_reference.py, shared with tests/test_scheduler_equivalence.py
# so the equivalence proof and this perf baseline are the same code.


def contract_runner(tx: Transaction, state) -> TransactionResult:
    """A cheap deterministic contract, so scheduling overhead dominates."""
    updates = {k: state.get(k, 0) + 1 for k in tx.write_set}
    return TransactionResult(tx_id=tx.tx_id, application=tx.application, updates=updates)


# ----------------------------------------------------------- block execution
@pytest.mark.parametrize("profile", sorted(CONTENTION_PROFILES))
@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_block_execution_scaling(size: int, profile: str) -> None:
    """Time sparse-graph whole-block execution; prove it matches all-pairs + seed."""
    txs = make_block(size, profile)
    all_pairs = all_pairs_graph(txs)

    start = time.perf_counter()
    sparse = build_dependency_graph(txs)
    sparse_build_s = time.perf_counter() - start

    new_state: Dict[str, object] = {}
    start = time.perf_counter()
    results = ExecutionEngine(contract_runner, new_state).execute_with_graph(sparse)
    new_s = time.perf_counter() - start
    assert len(results) == size

    # Sparse-vs-all-pairs equivalence: identical waves, results and state.
    assert sparse.parallelism_profile() == all_pairs.parallelism_profile()
    ap_state: Dict[str, object] = {}
    start = time.perf_counter()
    ap_results = ExecutionEngine(contract_runner, ap_state).execute_with_graph(all_pairs)
    all_pairs_s = time.perf_counter() - start
    assert ap_state == new_state, "sparse and all-pairs executions diverged"
    assert ap_results == results

    row = {
        "benchmark": "execution_scaling",
        "block_size": size,
        "contention": profile,
        "edges": sparse.edge_count,
        "all_pairs_edges": all_pairs.edge_count,
        "critical_path": sparse.critical_path_length(),
        "sparse_build_ms": round(sparse_build_s * 1e3, 4),
        "countdown_ms": round(new_s * 1e3, 4),
        "countdown_blocks_per_s": round(1.0 / new_s, 1) if new_s else None,
        "all_pairs_ms": round(all_pairs_s * 1e3, 4),
    }
    if size <= LEGACY_EXEC_CAPS[profile] or FULL:
        seed_state: Dict[str, object] = {}
        start = time.perf_counter()
        seed_execute_with_graph(all_pairs, contract_runner, seed_state)
        seed_s = time.perf_counter() - start
        assert seed_state == new_state, "seed and sparse engines diverged"
        row["seed_ms"] = round(seed_s * 1e3, 4)
        row["speedup"] = round(seed_s / new_s, 2)
    else:
        # Explicit marker instead of silently absent seed_ms/speedup columns
        # (the seed numbers are recorded under REPRO_BENCH_FULL=1).
        row["seed_skipped"] = True
    record_rows([row])

    if size == 4096 and profile == "high" and not NO_GATE:
        assert row["countdown_blocks_per_s"] >= SPARSE_GATE_BLOCKS_PER_S, (
            f"only {row['countdown_blocks_per_s']} blocks/s at {size}/{profile} "
            f"(floor {SPARSE_GATE_BLOCKS_PER_S})"
        )
    gate_size = LEGACY_EXEC_CAPS[profile] if not FULL else max(BLOCK_SIZES)
    if size == gate_size and profile in ("medium", "high") and not NO_GATE:
        # CI floor: the sparse wave engine must beat the seed engine by >=2x
        # on the contended profiles at the largest size the seed is timed at.
        assert row["speedup"] >= GATE_FLOOR, f"only {row['speedup']}x at {size}/{profile}"


# ------------------------------------------------------------- endorsements
STATE_KEYS = 20_000
ENDORSEMENTS = 512
WRITES_PER_BLOCK = 32
ENDORSEMENTS_PER_BLOCK = 64


def _endorse(snapshot, keys: List[str]) -> Dict[str, int]:
    """One endorsement: speculative read + read-version collection."""
    for key in keys:
        snapshot.get_value(key)
    return snapshot.read_versions(keys)


def test_endorsement_snapshot_throughput() -> None:
    """XOV endorsement loop: COW snapshots vs the seed's per-proposal copy."""
    initial = {f"k{i}": i for i in range(STATE_KEYS)}
    read_keys = [[f"k{(17 * i + j) % STATE_KEYS}" for j in range(4)] for i in range(ENDORSEMENTS)]
    block_writes = [
        {f"k{(13 * b + j) % STATE_KEYS}": b * 1000 + j for j in range(WRITES_PER_BLOCK)}
        for b in range(ENDORSEMENTS // ENDORSEMENTS_PER_BLOCK)
    ]

    # Seed path: every snapshot copies the whole entry dict (StateSnapshot's
    # public constructor preserves exactly that behaviour).
    seed_data = {key: VersionedValue(value=value, version=0) for key, value in initial.items()}
    start = time.perf_counter()
    for i, keys in enumerate(read_keys):
        snapshot = StateSnapshot(seed_data)
        _endorse(snapshot, keys)
        if (i + 1) % ENDORSEMENTS_PER_BLOCK == 0:
            for key, value in block_writes[i // ENDORSEMENTS_PER_BLOCK].items():
                current = seed_data.get(key)
                version = current.version + 1 if current is not None else 0
                seed_data[key] = VersionedValue(value=value, version=version)
    seed_s = time.perf_counter() - start

    # COW path: snapshot() is O(1); the state re-copies once per block commit.
    state = WorldState(initial)
    start = time.perf_counter()
    last_versions: Dict[str, int] = {}
    for i, keys in enumerate(read_keys):
        snapshot = state.snapshot()
        last_versions = _endorse(snapshot, keys)
        if (i + 1) % ENDORSEMENTS_PER_BLOCK == 0:
            state.apply_updates(block_writes[i // ENDORSEMENTS_PER_BLOCK])
    cow_s = time.perf_counter() - start
    assert last_versions  # the loop really endorsed

    # Both paths must observe identical final state content.
    assert {k: v.value for k, v in seed_data.items()} == state.as_dict()

    speedup = seed_s / cow_s if cow_s else float("inf")
    record_rows(
        [
            {
                "benchmark": "endorsement_snapshots",
                "state_keys": STATE_KEYS,
                "endorsements": ENDORSEMENTS,
                "seed_ms": round(seed_s * 1e3, 2),
                "cow_ms": round(cow_s * 1e3, 2),
                "seed_endorsements_per_s": round(ENDORSEMENTS / seed_s, 1),
                "cow_endorsements_per_s": round(ENDORSEMENTS / cow_s, 1),
                "speedup": round(speedup, 2),
            }
        ]
    )
    if not NO_GATE:
        assert speedup >= GATE_FLOOR, f"endorsement snapshots only {speedup:.2f}x faster"
