"""Plain-text and JSON reporting helpers for the benchmark harness."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Mapping, Optional, Sequence

from repro.metrics.collector import RunMetrics


def format_comparison(results: Mapping[str, RunMetrics], title: str = "Paradigm comparison") -> str:
    """Table comparing several paradigms on the same workload."""
    lines = [title, f"{'paradigm':<8} {'throughput':>12} {'latency':>12} {'aborts':>8}"]
    for name, metrics in results.items():
        lines.append(
            f"{name:<8} {metrics.throughput:>9.0f} tps {metrics.latency_avg * 1000.0:>9.1f} ms "
            f"{metrics.abort_rate:>7.1%}"
        )
    return "\n".join(lines)


def rows_to_json(rows: Sequence[Mapping[str, object]], path: Optional[str] = None) -> str:
    """Serialise result rows to JSON; optionally also write them to ``path``."""
    payload = json.dumps(list(rows), indent=2, sort_keys=True)
    if path:
        Path(path).write_text(payload + "\n", encoding="utf-8")
    return payload


def format_experiment_result(result) -> str:
    """Table of an :class:`~repro.experiments.ExperimentResult`'s rows."""
    spec = result.spec
    lines = [
        f"Experiment {spec.name!r} — {len(result.rows)} point(s), "
        f"spec {result.provenance.get('spec_hash', '?')} @ {result.provenance.get('git_rev', '?')}",
        f"{'scenario':<24} {'paradigm':<8} {'load':>8} {'seed':>6} "
        f"{'throughput':>12} {'latency':>12} {'aborts':>8}",
    ]
    for row in result.rows:
        point, metrics = row.point, row.metrics
        lines.append(
            f"{point.scenario:<24} {point.paradigm:<8} {point.offered_load:>8.0f} {point.seed:>6d} "
            f"{metrics.throughput:>9.0f} tps {metrics.latency_avg * 1000.0:>9.1f} ms "
            f"{metrics.abort_rate:>7.1%}"
        )
    return "\n".join(lines)


def format_matrix(points: Sequence) -> str:
    """Table of an expanded (but not executed) experiment point matrix."""
    lines = [
        f"{len(points)} point(s)",
        f"{'#':>4} {'scenario':<24} {'paradigm':<8} {'load':>8} {'seed':>6} {'repeat':>6}",
    ]
    for point in points:
        lines.append(
            f"{point.index:>4} {point.scenario:<24} {point.paradigm:<8} "
            f"{point.offered_load:>8.0f} {point.seed:>6d} {point.repeat:>6d}"
        )
    return "\n".join(lines)


def summarise_series(points: Iterable[RunMetrics]) -> dict:
    """Peak throughput and the latency observed at that peak for one series."""
    materialised: List[RunMetrics] = list(points)
    if not materialised:
        return {"peak_throughput": 0.0, "latency_at_peak": 0.0}
    peak = max(materialised, key=lambda p: p.throughput)
    return {"peak_throughput": peak.throughput, "latency_at_peak": peak.latency_avg}
