"""Per-phase wall-clock attribution for end-to-end runs.

The :class:`PhaseProfiler` hooks into ``Environment.step``: every event
callback (typically a ``Process._resume``) and every lean scheduled callback
is classified into a run phase and its wall-clock time credited to that
phase.  Classification is by construction cheap and deterministic:

* objects may carry an explicit ``profile_phase`` class attribute (the
  transport does — its delivery callbacks are "transport" — and so does the
  CPU pool, whose callbacks run contract executions: "execution");
* processes are classified from their ``name`` via
  :func:`classify_process_name` (results are memoised per name);
* everything else is "other".

Nested attribution uses an enter/exit stack: when the metrics collector is
entered from inside an executor's process, the inner span is credited to
"metrics" and the surrounding time stays with "execution".
"""

from __future__ import annotations

import os
import time
from functools import partial
from typing import Any, Callable, Dict, List

#: Canonical phase names in reporting order.  ``snapshot`` also appends a
#: ``total`` key summing every phase.
PHASES = (
    "build",
    "client",
    "ordering",
    "consensus",
    "execution",
    "transport",
    "metrics",
    "other",
)

#: Environment variable enabling profiling for entry points that do not take
#: an explicit flag (``REPRO_PROFILE=1``).
ENV_FLAG = "REPRO_PROFILE"

_TRUTHY = {"1", "true", "yes", "on"}


def profiling_requested() -> bool:
    """True when the :data:`ENV_FLAG` environment variable asks for profiling."""
    return os.environ.get(ENV_FLAG, "").strip().lower() in _TRUTHY


#: Process-name suffix → phase.  Order matters only for documentation; the
#: suffixes are mutually exclusive in practice.
_SUFFIX_PHASES = (
    ("-cons", "consensus"),
    ("-propose", "consensus"),
    ("-proposer", "consensus"),
    ("-sealer", "ordering"),
    ("-ticker", "ordering"),
    ("-tip", "ordering"),
    ("-retry", "ordering"),
    ("-exec", "execution"),
    ("-validate", "execution"),
    ("-endorse", "execution"),
    ("-retransmit", "execution"),
    ("-submit", "client"),
)


def classify_process_name(name: str) -> str:
    """Map a simulation process name to its run phase.

    Covers every process the deployments spawn (sharded node prefixes like
    ``s2-`` included, because the checks are substring-based); unknown names
    fall into "other".
    """
    for suffix, phase in _SUFFIX_PHASES:
        if name.endswith(suffix):
            return phase
    if "-block-" in name:
        return "execution"
    if name.startswith("agents-"):
        return "client"
    if name.endswith("-main"):
        if "client" in name:
            return "client"
        if "orderer" in name or "coordinator" in name:
            return "ordering"
        if "executor" in name or "nonexec" in name or "peer" in name:
            return "execution"
    return "other"


class PhaseProfiler:
    """Accumulates wall-clock seconds per run phase.

    Installed on ``Environment._profiler`` by ``Deployment.run`` when
    profiling is requested; the simulator then routes every dispatch through
    :meth:`run_callback`/:meth:`run_plain`.  Phases can also be timed
    explicitly with :meth:`timed` (build, summarise) or by wrapping a hot
    method with :meth:`wrap` (metrics recording).
    """

    __slots__ = ("phase_times", "_stack", "_name_cache")

    def __init__(self) -> None:
        self.phase_times: Dict[str, float] = {}
        # Stack of [phase, span_start] frames; entering a nested phase
        # pauses the parent's span, exiting resumes it.
        self._stack: List[list] = []
        self._name_cache: Dict[str, str] = {}

    # ---------------------------------------------------------- classification
    def classify_callable(self, item: Callable[..., Any]) -> str:
        """Phase of a dispatched callable (bound method, partial or plain)."""
        func = item
        if isinstance(func, partial):
            func = func.func
        owner = getattr(func, "__self__", None)
        if owner is None:
            return "other"
        phase = getattr(owner, "profile_phase", None)
        if phase is not None:
            return phase
        name = getattr(owner, "name", None)
        if type(name) is str:
            cached = self._name_cache.get(name)
            if cached is None:
                cached = classify_process_name(name)
                self._name_cache[name] = cached
            return cached
        return "other"

    # ------------------------------------------------------------------ timing
    def enter(self, phase: str) -> None:
        """Start (or nest into) ``phase`` at the current wall-clock time."""
        now = time.perf_counter()
        stack = self._stack
        if stack:
            frame = stack[-1]
            self._credit(frame[0], now - frame[1])
        stack.append([phase, now])

    def exit(self) -> None:
        """Close the innermost phase span, resuming its parent if any."""
        frame = self._stack.pop()
        now = time.perf_counter()
        self._credit(frame[0], now - frame[1])
        if self._stack:
            self._stack[-1][1] = now

    def _credit(self, phase: str, elapsed: float) -> None:
        times = self.phase_times
        times[phase] = times.get(phase, 0.0) + elapsed

    def timed(self, phase: str) -> "_PhaseSpan":
        """Context manager timing its body as ``phase``."""
        return _PhaseSpan(self, phase)

    def wrap(self, phase: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Return ``fn`` instrumented to attribute its calls to ``phase``."""

        def instrumented(*args: Any, **kwargs: Any) -> Any:
            self.enter(phase)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return instrumented

    # ------------------------------------------------------- simulator hooks
    def run_callback(self, callback: Callable[[Any], None], event: Any) -> None:
        """Dispatch one event callback under phase timing."""
        self.enter(self.classify_callable(callback))
        try:
            callback(event)
        finally:
            self.exit()

    def run_plain(self, item: Callable[[], None]) -> None:
        """Dispatch one lean scheduled callback under phase timing."""
        self.enter(self.classify_callable(item))
        try:
            item()
        finally:
            self.exit()

    # ----------------------------------------------------------------- output
    def snapshot(self) -> Dict[str, float]:
        """Phase → seconds in canonical order, plus a ``total`` sum."""
        times = self.phase_times
        ordered: Dict[str, float] = {}
        for phase in PHASES:
            if phase in times:
                ordered[phase] = times[phase]
        for phase in sorted(times):
            if phase not in ordered:
                ordered[phase] = times[phase]
        ordered["total"] = sum(times.values())
        return ordered


class _PhaseSpan:
    """Context manager produced by :meth:`PhaseProfiler.timed`."""

    __slots__ = ("_profiler", "_phase")

    def __init__(self, profiler: PhaseProfiler, phase: str) -> None:
        self._profiler = profiler
        self._phase = phase

    def __enter__(self) -> PhaseProfiler:
        self._profiler.enter(self._phase)
        return self._profiler

    def __exit__(self, *exc_info: object) -> None:
        self._profiler.exit()
