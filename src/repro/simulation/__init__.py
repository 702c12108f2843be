"""Deterministic discrete-event simulation engine.

The paper measures wall-clock throughput and latency on an AWS testbed.  A
Python reproduction cannot reproduce those wall-clock numbers directly (the
GIL serialises CPU-bound threads), so every performance experiment in this
repository runs on the simulator in this package instead: nodes are
generator-based processes, CPU parallelism is modelled with
:class:`~repro.simulation.resources.CpuPool` resources, and network delays are
timeouts.  The engine is deterministic — same seed, same schedule — which also
makes the experiments exactly reproducible.

The API is intentionally close to SimPy's:

>>> from repro.simulation import Environment
>>> env = Environment()
>>> def proc(env):
...     yield env.timeout(3.0)
...     return "done"
>>> p = env.process(proc(env))
>>> env.run()
>>> env.now, p.value
(3.0, 'done')
"""

from repro.simulation.events import AllOf, AnyOf, Event, Timeout
from repro.simulation.process import Process
from repro.simulation.core import Environment
from repro.simulation.resources import CpuPool, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "CpuPool",
    "Environment",
    "Event",
    "Process",
    "Store",
    "Timeout",
]
