"""One benchmark command: wall cost next to the paper's simulated observables.

Run from the repository root::

    python3 perfbench/run.py --workload oxii-contended --seed 11 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics: the wall-clock cost of a run
and its set-up time (medians over the repetitions that fit in ``--seconds``,
each scaled to a reference host speed by a calibration kernel sampled while
it runs, see :mod:`perfbench.calibration`), peak memory, and the simulated
throughput, latency and committed share the paper reports.  ``--trace 1``
prints the per-layer metrics instead: it alternates untraced and traced
repetitions (see :mod:`perfbench.trace`), adds one repetition under the
phase profiler, and writes the call tree and the per-layer table to
``perfbench/out/``.

Each invocation first runs one short, untimed warm-up run so lazy imports
and interpreter caches are settled; caches keyed by the inputs' content are
emptied before every repetition instead (see
:func:`perfbench.workloads.clear_content_caches`).  Every repetition
is checked after its timed region (see :mod:`perfbench.workloads`); the last
line printed is one JSON object with ``correct``, ``attempted`` (submitted
transactions), ``failed`` (transactions of repetitions that failed a check)
and ``metrics``.  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[1]

#: Fewest measured repetitions per kind, however short ``--seconds`` is.
MIN_REPS = 3
MIN_TRACED_REPS = 2


def summarise(rep) -> Dict[str, Any]:
    """The numbers a session keeps from one repetition (the deployment is freed)."""
    handles = rep.handles
    return {
        "submitted": rep.submitted,
        "run_s": rep.run_s,
        "generate_s": rep.generate_s,
        "build_s": rep.build_s,
        "setup_s": rep.setup_s,
        "total_s": rep.setup_s + rep.run_s,
        "blocks": handles.peers[0].ledger.height,
        "messages": handles.network.messages_sent,
        "consensus_msgs": sum(o.consensus.messages_handled for o in handles.orderers),
        "phase_times": dict(rep.metrics.extra.get("phase_times", {})),
        "latency_samples": rep.metrics.latency.count,
    }


def fits(deadline: float, durations: List[float]) -> bool:
    """Whether one more step, as long as the median so far, ends by ``deadline``."""
    return time.perf_counter() + statistics.median(durations or [0.0]) <= deadline


class Session:
    """Runs repetitions of one workload and seed, checking each one."""

    def __init__(self, workload, seed: int) -> None:
        # Imported here, not at the top: main() first puts this checkout's
        # src/ on the path, and perfbench.workloads imports the program.
        from perfbench import workloads

        self.workloads = workloads
        self.workload = workload
        self.seed = seed
        self.reference = None
        self.observables: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, problems: List[str], submitted: int) -> None:
        if problems:
            self.problems.extend(problems)
            self.failed += submitted

    def repeat(self, **kwargs):
        """One checked repetition; returns the :class:`Repetition` itself."""
        gc.collect()
        rep = self.workloads.run_once(self.workload, self.seed, **kwargs)
        self.attempted += rep.submitted
        problems = self.workloads.check_completion(rep)
        fingerprint = rep.fingerprint()
        if self.reference is None:
            self.reference = fingerprint
            self.observables = rep.observables()
        elif fingerprint != self.reference:
            problems.append("simulated outcome differs from the session's first repetition")
        self.fail(problems, rep.submitted)
        return rep

    def warm_up(self) -> None:
        """One short untimed, unchecked run to settle imports and interpreter caches."""
        self.workloads.run_once(
            dataclasses.replace(self.workload, transactions=self.workloads.WARMUP_TRANSACTIONS),
            self.seed,
        )

    def finish(self, rep) -> None:
        """Run the end-state oracles on one (deterministic) repetition."""
        self.fail(self.workloads.check_oracles(rep), rep.submitted)


def timed_session(session: Session, seconds: float) -> Dict[str, float]:
    """The end-to-end metrics: medians over the repetitions in ``seconds``.

    Wall and set-up times are scaled to the reference host speed by the
    calibration kernel sampled during each repetition
    (:mod:`perfbench.calibration`).
    """
    from perfbench.calibration import Sampler

    session.warm_up()
    reps: List[Dict[str, Any]] = []
    rep = None
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or fits(deadline, [r["total_s"] for r in reps]):
        rep = None  # free the previous deployment before building the next
        with Sampler() as sampler:
            rep = session.repeat(sampler=sampler)
        reps.append({**summarise(rep), "scale": sampler.scale()})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    session.finish(rep)
    submitted = reps[0]["submitted"]
    print(f"repetitions: {len(reps)} of {submitted} transactions each")
    print("raw wall s: " + " ".join(f"{r['run_s']:.3f}" for r in reps))
    print("host speed: " + " ".join(f"{r['scale']:.3f}" for r in reps))
    print(f"latency samples per run: {reps[0]['latency_samples']}")
    return {
        "wall_us_per_tx": statistics.median(r["run_s"] * r["scale"] for r in reps)
        / submitted
        * 1e6,
        "setup_s": statistics.median(r["setup_s"] * r["scale"] for r in reps),
        "peak_rss_mb": peak_rss_mb,
        **session.observables,
    }


def traced_session(
    session: Session, seconds: float, units: Dict[str, str], out_dir: Path
) -> Dict[str, float]:
    """The per-layer metrics; writes the call tree and layer table to ``out_dir``."""
    from perfbench import layers
    from perfbench.trace import Tracer, leftover_wrappers

    session.warm_up()
    tracer = Tracer()
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    rep = None
    deadline = time.perf_counter() + seconds
    pairs: List[float] = []
    while len(traced) < MIN_TRACED_REPS or fits(deadline, pairs):
        began = time.perf_counter()
        rep = None
        untraced.append(summarise(session.repeat()))
        rep = session.repeat(tracer=tracer)
        traced.append(summarise(rep))
        pairs.append(time.perf_counter() - began)
    leftovers = leftover_wrappers()
    session.fail([f"wrapper left on {name}" for name in leftovers], traced[-1]["submitted"])
    session.fail(
        layers.bypass_violations(tracer, session.workload.bypassed), traced[-1]["submitted"]
    )
    session.finish(rep)
    rep = None
    profiled = [summarise(session.repeat(profile=True))]
    metrics = layers.layer_metrics(tracer, traced, untraced, profiled)

    out_dir.mkdir(exist_ok=True)
    stem = f"{session.workload.name}-seed{session.seed}"
    about = {
        "workload": session.workload.name,
        "seed": session.seed,
        "transactions_per_run": traced[0]["submitted"],
        "traced_runs": len(traced),
        "host": host(),
    }
    with open(out_dir / f"{stem}.trace.json", "w") as handle:
        json.dump({**about, **tracer.spans()}, handle, indent=1)
    rows = layers.table(metrics, units)
    with open(out_dir / f"{stem}.layers.json", "w") as handle:
        json.dump({**about, "rows": rows}, handle, indent=1)
    with open(out_dir / f"{stem}.layers.md", "w") as handle:
        handle.write(layers.markdown(rows, f"{session.workload.name} (seed {session.seed})"))
    return metrics


def host() -> Dict[str, Any]:
    """The hardware and interpreter a measurement was taken on."""
    return {
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=11, help="workload seed (default 11)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The program is imported from this checkout's sources, never from
    # anything else on the path.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")
    from perfbench.workloads import WORKLOADS

    session = Session(WORKLOADS[args.workload], args.seed)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.trace:
        values = traced_session(session, args.seconds, units, ROOT / "perfbench" / "out")
    else:
        values = timed_session(session, args.seconds)
    if set(values) != set(units):
        raise SystemExit(
            f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json"
        )
    for name, unit in units.items():
        print(f"{name:<36} {values[name]:>16.6f} {unit}")
    for problem in session.problems:
        print(f"check failed: {problem}")
    print(
        json.dumps(
            {
                "correct": not session.problems,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
