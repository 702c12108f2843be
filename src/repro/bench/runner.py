"""Shared benchmark plumbing: single experiment points and load sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence

from repro.common.config import SystemConfig, apply_overrides
from repro.metrics.collector import RunMetrics
from repro.paradigms.run import execute_run
from repro.workload.generator import ConflictScope, WorkloadConfig

#: Default offered-load sweeps per paradigm (transactions per second).  The
#: ranges bracket each paradigm's saturation point in the default cost model.
DEFAULT_LOADS: Mapping[str, Sequence[float]] = {
    "OX": (400, 700, 900, 1000, 1150),
    "XOV": (500, 1000, 1500, 1800, 2100),
    "OXII": (1000, 2000, 3500, 5000, 6000, 7000),
}

#: Reduced sweeps used by the pytest benchmarks so a full run stays fast.
QUICK_LOADS: Mapping[str, Sequence[float]] = {
    "OX": (700, 1100),
    "XOV": (1200, 2000),
    "OXII": (3000, 6500),
}


@dataclass(frozen=True)
class BenchmarkSettings:
    """Knobs controlling how long/precise a benchmark run is."""

    duration: float = 2.0
    drain: float = 3.0
    warmup_fraction: float = 0.2
    quick: bool = False
    block_size: int = 200
    xov_block_size: int = 100
    seed: int = 7
    #: Transport/clock backend the runs execute on ("sim", "asyncio",
    #: "asyncio-tcp"); real backends measure wall clock (see repro.realnet).
    backend: str = "sim"
    #: Pacing factor for real backends (1.0 = honest wall-clock pacing).
    realtime_speed: float = 1.0

    def loads_for(self, paradigm: str) -> Sequence[float]:
        """The offered-load sweep for ``paradigm``."""
        table = QUICK_LOADS if self.quick else DEFAULT_LOADS
        return table[paradigm.upper()]

    def with_overrides(self, **overrides: Any) -> "BenchmarkSettings":
        """Validated copy with ``overrides`` applied."""
        return apply_overrides(self, overrides)

    def with_duration(self, duration: float) -> "BenchmarkSettings":
        """Copy with a different submission duration."""
        return self.with_overrides(duration=duration)

    def system_config_for(self, paradigm: str, base: Optional[SystemConfig] = None) -> SystemConfig:
        """Default per-paradigm system config: XOV runs its own (smaller) block size.

        The paper uses 200 transactions per block for OX and OXII and tunes
        XOV's block size for its peak (around 100); these are the defaults
        applied when the caller does not supply an explicit configuration.
        """
        config = base or SystemConfig()
        if self.backend != "sim":
            config = config.with_overrides(
                backend=self.backend, realtime_speed=self.realtime_speed
            )
        if paradigm.upper() == "XOV":
            return config.with_block_size(self.xov_block_size)
        return config.with_block_size(self.block_size)


def run_point(
    paradigm: str,
    offered_load: float,
    contention: float = 0.0,
    conflict_scope: ConflictScope = ConflictScope.WITHIN_APPLICATION,
    settings: Optional[BenchmarkSettings] = None,
    system_config: Optional[SystemConfig] = None,
    workload_config: Optional[WorkloadConfig] = None,
) -> RunMetrics:
    """Run one (paradigm, workload, offered load) measurement point.

    When ``system_config`` is given it is used exactly as supplied (the block
    size included); otherwise the settings' per-paradigm defaults apply.
    """
    settings = settings or BenchmarkSettings()
    config = system_config if system_config is not None else settings.system_config_for(paradigm)
    workload = workload_config or WorkloadConfig(
        num_applications=config.num_applications,
        contention=contention,
        conflict_scope=conflict_scope,
        seed=settings.seed,
    )
    return execute_run(
        paradigm,
        system_config=config,
        workload_config=workload,
        offered_load=offered_load,
        duration=settings.duration,
        warmup_fraction=settings.warmup_fraction,
        drain=settings.drain,
    )


def quick_comparison(
    contention: float = 0.0,
    offered_load: float = 1500.0,
    conflict_scope: ConflictScope = ConflictScope.WITHIN_APPLICATION,
    settings: Optional[BenchmarkSettings] = None,
) -> Dict[str, RunMetrics]:
    """Run all three paradigms once at the same offered load and contention.

    This is the library's "hello world": it returns a paradigm-name ->
    :class:`RunMetrics` mapping showing who wins on the chosen workload.
    """
    settings = settings or BenchmarkSettings(duration=1.5, drain=3.0)
    # The paper's three paradigms in paper order — deliberately not the live
    # registry, so third-party registrations don't change what "hello world"
    # (or the CI smoke gate) runs.
    return {
        paradigm: run_point(
            paradigm,
            offered_load=offered_load,
            contention=contention,
            conflict_scope=conflict_scope,
            settings=settings,
        )
        for paradigm in ("OX", "XOV", "OXII")
    }
