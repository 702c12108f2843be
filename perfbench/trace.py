"""Outside-in layer tracing: time the calls into each layer's public functions.

:class:`Tracer` replaces each listed method on its defining class with a
wrapper while a traced run executes and puts every original back
afterwards; one tracer sums over all the runs it traced.  Nothing in ``src/`` is edited or knows it is being traced.  A
call stack gives each call its self time (inclusive time minus the time of
the wrapped calls it made), and calls are aggregated per (caller, callee)
pair, so the trace is a call tree with counts and times that fits in memory
and is written out once the run ends.

A *group* is the unit the per-layer metrics are computed from (``graph``,
``execution.commit``, ``crypto.sign``...).  ``Environment.step`` is the
``simulation`` group: every process resumption runs inside a step, so its
self time is the simulator plus the node logic no other group covers.
"""

from __future__ import annotations

import time
from types import ModuleType
from typing import Any, Callable, Dict, List, Tuple

from repro.contracts.base import ContractRegistry, SmartContract
from repro.core import block as block_module
from repro.core.block import Block
from repro.core.block_builder import BlockBuilder
from repro.core.dependency_graph import StreamingGraphBuilder
from repro.core.execution import CommitBatcher, GraphScheduler, StateUpdater
from repro.core.transaction import Transaction
from repro.crypto.merkle import MerkleTree
from repro.crypto.signatures import KeyRegistry
from repro.ledger.ledger import Ledger
from repro.ledger.state import StateSnapshot, WorldState
from repro.metrics.collector import MetricsCollector
from repro.network.transport import Network
from repro.simulation import Environment

_MARK = "__perfbench_traced__"


def _public(cls: type) -> Tuple[str, ...]:
    """Every public method and property a class defines, plus ``__init__``."""
    return tuple(
        name
        for name, value in vars(cls).items()
        if (not name.startswith("_") or name == "__init__")
        and isinstance(value, (property, classmethod, staticmethod, type(_public)))
    )


def _contract_classes() -> List[type]:
    """Every imported concrete contract class that defines ``execute``."""
    found, todo = [], [SmartContract]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        execute = vars(cls).get("execute")
        if execute is not None and not getattr(execute, "__isabstractmethod__", False):
            found.append(cls)
    return found


def targets() -> Dict[str, List[Tuple[Any, Tuple[str, ...]]]]:
    """Group name -> the (class or module, attribute names) whose calls it times."""
    return {
        "simulation": [(Environment, ("step",))],
        "network": [(Network, ("send", "multicast"))],
        "block_builder": [(BlockBuilder, ("add", "seal"))],
        "graph": [(StreamingGraphBuilder, ("add", "take_graph"))],
        "execution.sched": [(GraphScheduler, _public(GraphScheduler))],
        "execution.commit": [
            (StateUpdater, ("receive",)),
            (CommitBatcher, _public(CommitBatcher)),
        ],
        "contracts": [(ContractRegistry, ("execute",))]
        + [(cls, ("execute",)) for cls in _contract_classes()],
        "ledger.write": [(WorldState, ("apply_updates", "apply_results"))],
        "ledger.read": [(WorldState, ("snapshot",)), (StateSnapshot, ("read_versions",))],
        "ledger.append": [(Ledger, ("append",))],
        "crypto.digest": [
            (Transaction, ("digest", "canonical_bytes")),
            (Block, ("digest",)),
            (block_module, ("transaction_digests",)),
        ],
        "crypto.sign": [(KeyRegistry, ("sign", "sign_hash"))],
        "crypto.verify": [(KeyRegistry, ("verify", "verify_hash"))],
        # Blocks compute their roots through the module function, which is
        # patched where block.py looks it up.
        "crypto.merkle": [
            (MerkleTree, ("from_leaf_hashes",)),
            (block_module, ("merkle_root",)),
        ],
        "metrics.record": [(MetricsCollector, ("record_commit",))],
        "metrics.summarise": [(MetricsCollector, ("summarise",))],
    }


#: Span keys whose return value (``"result"``) or first argument (``"arg"``)
#: is kept for counting after the run, outside any timed interval.
CAPTURE = {
    "StreamingGraphBuilder.take_graph": "result",
    "StateUpdater.receive": "arg",
}


def _owner(cls: Any, name: str) -> Any:
    """The class in ``cls``'s MRO that defines ``name`` (a module is its own owner)."""
    if isinstance(cls, ModuleType):
        return cls
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {name!r}")


def _is_traced(value: Any) -> bool:
    inner = value.fget if isinstance(value, property) else getattr(value, "__func__", value)
    return getattr(inner, _MARK, False)


def leftover_wrappers() -> List[str]:
    """``Class.name`` of every traced wrapper still installed on a target class."""
    return sorted(
        f"{owner.__name__}.{name}"
        for entries in targets().values()
        for cls, names in entries
        for name in names
        for owner in [_owner(cls, name)]
        if _is_traced(vars(owner)[name])
    )


class Tracer:
    """Self time, call counts and a caller->callee call tree per span key."""

    def __init__(self) -> None:
        self.group_of: Dict[str, str] = {}
        self._saved: List[Tuple[type, str, Any]] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: (caller key or "", callee key) -> [calls, inclusive seconds]
        self.edges: Dict[Tuple[str, str], List[float]] = {}
        self.captured: Dict[str, List[Any]] = {key: [] for key in CAPTURE}
        self._stack: List[list] = []

    # ------------------------------------------------------------- wrappers
    def _wrap(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        clock = time.perf_counter
        tracer = self
        capture = CAPTURE.get(key)

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                tracer.self_s[key] = tracer.self_s.get(key, 0.0) + elapsed - frame[1]
                tracer.calls[key] = tracer.calls.get(key, 0) + 1
                parent = stack[-1] if stack else None
                edge = tracer.edges.setdefault((parent[0] if parent else "", key), [0, 0.0])
                edge[0] += 1
                edge[1] += elapsed
                if parent is not None:
                    parent[1] += elapsed
            if capture == "result":
                tracer.captured[key].append(result)
            elif capture == "arg":
                tracer.captured[key].append(args[1])
            return result

        setattr(traced, _MARK, True)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every target method with its traced wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        done = set()
        for group, entries in targets().items():
            for cls, names in entries:
                for name in names:
                    owner = _owner(cls, name)
                    key = f"{owner.__name__}.{name}"
                    if key in done:
                        continue
                    done.add(key)
                    original = vars(owner)[name]
                    if isinstance(original, property):
                        wrapped: Any = property(
                            self._wrap(key, original.fget), original.fset, original.fdel
                        )
                    elif isinstance(original, (classmethod, staticmethod)):
                        wrapped = type(original)(self._wrap(key, original.__func__))
                    else:
                        wrapped = self._wrap(key, original)
                    self.group_of[key] = group
                    self._saved.append((owner, name, original))
                    setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        """Put every original back, last installed first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -------------------------------------------------------------- results
    def group_seconds(self) -> Dict[str, float]:
        """Self seconds summed per group."""
        totals: Dict[str, float] = {group: 0.0 for group in targets()}
        for key, seconds in self.self_s.items():
            totals[self.group_of[key]] += seconds
        return totals

    def group_calls(self) -> Dict[str, int]:
        """Calls summed per group."""
        totals: Dict[str, int] = {group: 0 for group in targets()}
        for key, count in self.calls.items():
            totals[self.group_of[key]] += count
        return totals

    def spans(self) -> Dict[str, Any]:
        """The recorded call tree and counts as plain JSON-ready data."""
        return {
            "spans": {
                key: {
                    "group": self.group_of[key],
                    "calls": self.calls[key],
                    "self_s": self.self_s[key],
                }
                for key in sorted(self.calls)
            },
            "edges": [
                {"caller": caller, "callee": callee, "calls": calls, "inclusive_s": seconds}
                for (caller, callee), (calls, seconds) in sorted(self.edges.items())
            ],
        }
