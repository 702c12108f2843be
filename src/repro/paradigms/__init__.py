"""Paradigm deployments: wire nodes, consensus, network and workload together.

Each deployment builds a fresh simulated cluster for one experiment run:

* :class:`~repro.paradigms.ox.OXDeployment` — order-execute: an ordering
  service plus peers that execute every transaction sequentially.
* :class:`~repro.paradigms.xov.XOVDeployment` — execute-order-validate:
  endorsers, an ordering service and committing peers with MVCC validation.
* :class:`~repro.paradigms.oxii.OXIIDeployment` — ParBlockchain: an ordering
  service that generates dependency graphs and executors that run Algorithms
  1–3.

:func:`~repro.paradigms.run.execute_run` is the one-call entry point used by
the examples, the sweep engine and the benchmark harness.
"""

from repro.paradigms.base import Deployment, DeploymentHandles
from repro.paradigms.ox import OXDeployment
from repro.paradigms.xov import XOVDeployment
from repro.paradigms.oxii import OXIIDeployment
from repro.paradigms.run import execute_run

__all__ = [
    "Deployment",
    "DeploymentHandles",
    "OXDeployment",
    "OXIIDeployment",
    "XOVDeployment",
    "execute_run",
]
