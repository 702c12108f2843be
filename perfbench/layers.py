"""Per-layer metrics from a traced session, and the per-layer table artifact.

Time metrics are self seconds of a trace group per submitted transaction
(or per block, or per run), summed over every traced repetition; each
``_us_per_tx`` metric also gets a ``.share`` metric, its fraction of the
traced wall time.  Counts come from the same calls or from the deployment's
own counters.  The ``phase.*`` metrics come from separate repetitions run
with :class:`repro.profiling.PhaseProfiler` and no tracer, so neither
instrument's cost lands in the other's numbers.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence

#: Metric-name prefix -> the repository module that layer lives in.
LAYER_MODULES = {
    "simulation": "simulation",
    "network": "network",
    "consensus": "consensus",
    "block_builder": "core.block_builder",
    "graph": "core.dependency_graph",
    "execution": "core.execution",
    "contracts": "contracts",
    "ledger": "ledger",
    "crypto": "crypto",
    "metrics": "metrics",
    "workload": "workload",
    "build": "paradigms",
    "phase": "profiling",
    "trace": "profiling",
}

#: PhaseProfiler phases reported as ``phase.<name>_us_per_tx``.
PHASES = ("client", "ordering", "consensus", "execution", "transport", "metrics")


def layer_metrics(
    tracer: Any,
    traced: Sequence[Dict[str, Any]],
    untraced: Sequence[Dict[str, Any]],
    profiled: Sequence[Dict[str, Any]],
) -> Dict[str, float]:
    """Every per-layer metric, from one tracer and the per-repetition summaries.

    ``traced``, ``untraced`` and ``profiled`` hold the summaries
    (:func:`perfbench.run.summarise`) of the repetitions run with the tracer,
    with nothing, and with the phase profiler.
    """
    tx = sum(r["submitted"] for r in traced)
    blocks = sum(r["blocks"] for r in traced)
    wall = sum(r["run_s"] for r in traced)
    seconds = tracer.group_seconds()
    calls = tracer.calls
    out: Dict[str, float] = {}

    def per_tx(name: str, spent: float, total_wall: float, count: int) -> None:
        out[name] = spent / count * 1e6
        out[name + ".share"] = spent / total_wall

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    per_tx("simulation.self_us_per_tx", seconds["simulation"], wall, tx)
    out["simulation.events_per_tx"] = calls.get("Environment.step", 0) / tx

    per_tx("network.send_us_per_tx", seconds["network"], wall, tx)
    out["network.msgs_per_tx"] = sum(r["messages"] for r in traced) / tx

    out["consensus.msgs_per_block"] = sum(r["consensus_msgs"] for r in traced) / blocks
    phase_tx = sum(r["submitted"] for r in profiled)
    phase_wall = sum(r["run_s"] for r in profiled)
    consensus_s = sum(r["phase_times"].get("consensus", 0.0) for r in profiled)
    per_tx("consensus.phase_us_per_tx", consensus_s, phase_wall, phase_tx)

    per_tx("block_builder.us_per_tx", seconds["block_builder"], wall, tx)
    out["block_builder.blocks"] = blocks / len(traced)

    graphs = tracer.captured["StreamingGraphBuilder.take_graph"]
    per_tx("graph.build_us_per_tx", seconds["graph"], wall, tx)
    out["graph.edges_per_tx"] = ratio(
        sum(g.edge_count for g in graphs), sum(len(g.transaction_ids) for g in graphs)
    )
    out["graph.depth_per_block"] = ratio(
        sum(g.critical_path_length() for g in graphs), len(graphs)
    )

    per_tx("execution.commit_us_per_tx", seconds["execution.commit"], wall, tx)
    per_tx("execution.sched_us_per_tx", seconds["execution.sched"], wall, tx)
    out["execution.results_per_tx"] = (
        sum(len(m.results) for m in tracer.captured["StateUpdater.receive"]) / tx
    )

    registry_calls = calls.get("ContractRegistry.execute", 0)
    contract_calls = sum(
        count
        for key, count in calls.items()
        if tracer.group_of[key] == "contracts" and key != "ContractRegistry.execute"
    )
    per_tx("contracts.us_per_tx", seconds["contracts"], wall, tx)
    out["contracts.calls_per_tx"] = registry_calls / tx
    # A registry call that never reaches a contract was served from the
    # replay cache.
    out["contracts.replay_hit_ratio"] = ratio(registry_calls - contract_calls, registry_calls)

    per_tx("ledger.write_us_per_tx", seconds["ledger.write"], wall, tx)
    per_tx("ledger.read_us_per_tx", seconds["ledger.read"], wall, tx)
    out["ledger.append_us_per_block"] = seconds["ledger.append"] / blocks * 1e6

    group_calls = tracer.group_calls()
    per_tx("crypto.digest_us_per_tx", seconds["crypto.digest"], wall, tx)
    per_tx("crypto.sign_us_per_tx", seconds["crypto.sign"], wall, tx)
    per_tx("crypto.verify_us_per_tx", seconds["crypto.verify"], wall, tx)
    out["crypto.signs_per_tx"] = group_calls["crypto.sign"] / tx
    out["crypto.verifies_per_tx"] = group_calls["crypto.verify"] / tx
    out["crypto.merkle_us_per_block"] = seconds["crypto.merkle"] / blocks * 1e6

    per_tx("metrics.record_us_per_tx", seconds["metrics.record"], wall, tx)
    out["metrics.summarise_ms"] = seconds["metrics.summarise"] / len(traced) * 1e3

    out["workload.generate_ms"] = statistics.median(r["generate_s"] for r in untraced) * 1e3
    out["build.ms"] = statistics.median(r["build_s"] for r in untraced) * 1e3

    for phase in PHASES:
        spent = sum(r["phase_times"].get(phase, 0.0) for r in profiled)
        per_tx(f"phase.{phase}_us_per_tx", spent, phase_wall, phase_tx)
    out["phase.overhead_frac"] = statistics.median(
        r["run_s"] for r in profiled
    ) / statistics.median(r["run_s"] for r in untraced)
    out["trace.overhead_frac"] = statistics.median(
        r["run_s"] for r in traced
    ) / statistics.median(r["run_s"] for r in untraced)
    return out


def bypass_violations(tracer: Any, bypassed: Sequence[str]) -> List[str]:
    """Trace groups a workload must never enter that were called anyway."""
    calls = tracer.group_calls()
    return [f"{group} called {calls[group]} times" for group in bypassed if calls[group]]


def table(metrics: Dict[str, float], units: Dict[str, str]) -> List[Dict[str, Any]]:
    """One row per per-layer metric: layer module, metric, value, unit, share."""
    rows = []
    for name, unit in units.items():
        if name.endswith(".share"):
            continue
        rows.append(
            {
                "layer": LAYER_MODULES[name.split(".", 1)[0]],
                "metric": name,
                "value": metrics[name],
                "unit": unit,
                "share": metrics.get(name + ".share"),
            }
        )
    return rows


def markdown(rows: Sequence[Dict[str, Any]], title: str) -> str:
    """Render :func:`table` rows as a markdown table."""
    lines = [
        f"### {title}",
        "",
        "| Layer | Metric | Value | Unit | Share of traced wall |",
        "|---|---|---:|---|---:|",
    ]
    for row in rows:
        share = "" if row["share"] is None else f"{row['share']:.1%}"
        lines.append(
            f"| `{row['layer']}` | `{row['metric']}` | {row['value']:.4g} | "
            f"{row['unit']} | {share} |"
        )
    return "\n".join(lines) + "\n"
