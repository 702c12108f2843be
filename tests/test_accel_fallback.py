"""The numpy acceleration layer must be optional and behaviour-preserving.

``repro.core._accel`` resolves numpy once at import (honouring
``REPRO_NO_NUMPY``), so the fallback paths are exercised in a subprocess with
the flag set and their outputs compared bit-for-bit against the default
import.  On an interpreter without numpy both runs take the pure-python path
and the comparison is trivially true — which is exactly the claim: results
never depend on whether numpy is installed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

# Computes every numpy-accelerated quantity for a fixed contended block and
# prints them as JSON: wave partition, depth histogram, edge arrays and the
# cross-application successor flags.
_PROBE = """
import json
from repro.core._accel import HAVE_NUMPY
from benchmarks.seed_reference import all_pairs_graph
from repro.core.dependency_graph import build_dependency_graph
from repro.core.transaction import ReadWriteSet, Transaction
import random

rng = random.Random(11)
txs = [
    Transaction(
        tx_id=f"t{i}",
        application=f"app-{i % 3}",
        rw_set=ReadWriteSet.build(
            reads={f"k{rng.randrange(8)}"}, writes={f"k{rng.randrange(8)}"}
        ),
        timestamp=i + 1,
    )
    for i in range(64)
]
out = {"have_numpy": HAVE_NUMPY}
for name, build in (("all_pairs", all_pairs_graph), ("sparse", build_dependency_graph)):
    graph = build(txs)
    arrays = graph.dag.edge_index_arrays()
    out[name] = {
        "waves": graph.dag.wave_partition(),
        "histogram": graph.parallelism_profile(),
        "flags": list(graph.cross_application_successor_flags()),
        "edges": sorted([u, v] for u, v in graph.dag.edges()),
        "edge_arrays": None
        if arrays is None
        else [arrays[0].tolist(), arrays[1].tolist()],
    }
print(json.dumps(out))
"""


def _run_probe(no_numpy: bool) -> dict:
    env = dict(os.environ)
    # The repo root makes the all-pairs reference in benchmarks/ importable.
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)])
    env.pop("REPRO_NO_NUMPY", None)
    if no_numpy:
        env["REPRO_NO_NUMPY"] = "1"
    result = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(result.stdout)


def test_fallback_paths_match_accelerated_paths():
    default = _run_probe(no_numpy=False)
    fallback = _run_probe(no_numpy=True)
    assert fallback["have_numpy"] is False
    for construction in ("all_pairs", "sparse"):
        got, want = fallback[construction], default[construction]
        assert got["waves"] == want["waves"]
        assert got["histogram"] == want["histogram"]
        assert got["flags"] == want["flags"]
        assert got["edges"] == want["edges"]
        # edge_index_arrays is a numpy-only accessor: None without numpy, and
        # when numpy is present its arrays must list the same edges the
        # adjacency lists hold.
        assert got["edge_arrays"] is None
        if default["have_numpy"]:
            sources, targets = want["edge_arrays"]
            assert sorted([u, v] for u, v in zip(sources, targets)) == want["edges"]


def test_sparse_and_dense_agree_without_numpy():
    fallback = _run_probe(no_numpy=True)
    assert fallback["all_pairs"]["waves"] == fallback["sparse"]["waves"]
    assert fallback["all_pairs"]["histogram"] == fallback["sparse"]["histogram"]
