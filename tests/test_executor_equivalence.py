"""Equivalence proofs for the lean OXII executor path.

Two hot-path rewrites must leave every simulated outcome bit-identical:

* :meth:`CpuPool.submit` replaced a generator process per contract execution
  (bootstrap event, semaphore request, lean sleep, termination event).  The
  process form is kept below as :class:`ProcessCpuPool`, a faithful copy of
  the semaphore-backed pool it replaced; random jobs with same-time ties,
  zero costs, chained submissions and interleaved same-time events must
  complete in the same order, at the same times, with the same
  ``utilisation_seconds``.
* :class:`StateUpdater` stopped building a vote tally per transaction up
  front.  :class:`EagerStateUpdater` below is a faithful copy of the eager
  tally it replaced; random COMMIT streams (τ ∈ {1, 2, 3}, duplicate
  senders, non-agent votes, mismatching variants including ``5`` vs ``5.0``
  and unfreezable values, foreign transaction ids, any message order) must
  give identical return lists, winners, effective updates and apply
  batches.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Any, Callable, Deque, Dict, Iterable, List, Mapping, Optional, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.execution import CommitMessage, StateUpdater
from repro.core.transaction import TransactionResult
from repro.simulation import CpuPool, Environment, Event
from tests.conftest import make_tx

# --------------------------------------------------------------------------
# Reference: the process-per-job CPU pool.


class _Request(Event):
    __slots__ = ("resource",)

    def __init__(self, resource: "_Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._enqueue(self)

    def __enter__(self) -> "_Request":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.resource._release(self)


class _Resource:
    """Counting semaphore with FIFO queuing of requests."""

    def __init__(self, env: Environment, capacity: int) -> None:
        self.env = env
        self.capacity = capacity
        self._users: List[_Request] = []
        self._waiting: Deque[_Request] = deque()

    def _enqueue(self, request: _Request) -> None:
        self._waiting.append(request)
        self._grant()

    def _grant(self) -> None:
        while self._waiting and len(self._users) < self.capacity:
            request = self._waiting.popleft()
            self._users.append(request)
            request.succeed(request)

    def _release(self, request: _Request) -> None:
        self._users.remove(request)
        self._grant()


class ProcessCpuPool:
    """The pool as a generator process per job: the form ``submit`` replaced."""

    def __init__(self, env: Environment, cores: int) -> None:
        self.env = env
        self._resource = _Resource(env, cores)
        self.utilisation_seconds = 0.0

    @property
    def queue_length(self) -> int:
        return len(self._resource._waiting)

    def _execute(self, cost: float):
        with _Request(self._resource) as grant:
            yield grant
            if cost > 0:
                yield cost
            self.utilisation_seconds += cost

    def _job(self, cost: float, on_done: Callable[[], None]):
        yield from self._execute(cost)
        on_done()

    def submit(self, cost: float, on_done: Callable[[], None]) -> None:
        self.env.process(self._job(cost, on_done), name="job")


COSTS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.5, 1.0])
TIMES = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5])
JOBS = st.lists(
    st.tuples(TIMES, COSTS, st.one_of(st.none(), COSTS)), min_size=1, max_size=30
)


def drive_pool(pool_type: type, cores: int, jobs, markers) -> Tuple[list, float, float]:
    """Run ``jobs`` (arrival time, cost, optional chained cost) on a pool.

    A job's completion logs the pool's queue and may submit a chained job,
    the way a finished execution releases its dependants; markers are unrelated same-time
    events (a process wake-up and a lean callback) interleaved with the
    pool's.  Returns the event log, the final clock and the core-seconds.
    """
    env = Environment()
    pool = pool_type(env, cores)
    log: List[tuple] = []

    def done(job: Any, chained: Optional[float]) -> None:
        log.append(("done", job, env.now, pool.queue_length))
        if chained is not None:
            pool.submit(chained, lambda: done((job, "chained"), None))

    def arrive(job: int, cost: float, chained: Optional[float]) -> None:
        log.append(("submit", job, env.now))
        pool.submit(cost, lambda: done(job, chained))

    def ticker():
        for at in markers:
            yield env.timeout_at(at)
            log.append(("tick", at, env.now))

    for job, (at, cost, chained) in enumerate(jobs):
        env.call_at(at, lambda job=job, cost=cost, chained=chained: arrive(job, cost, chained))
    for at in markers:
        env.call_at(at, lambda at=at: log.append(("marker", at, env.now)))
    env.process(ticker(), name="ticker")
    env.run()
    return log, env.now, pool.utilisation_seconds


@settings(max_examples=200, deadline=None)
@given(
    cores=st.integers(min_value=1, max_value=8),
    jobs=JOBS,
    markers=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.25, 2.0]), max_size=4).map(sorted),
)
def test_submit_matches_process_form(cores: int, jobs, markers) -> None:
    expected = drive_pool(ProcessCpuPool, cores, jobs, markers)
    assert drive_pool(CpuPool, cores, jobs, markers) == expected


# --------------------------------------------------------------------------
# Reference: Algorithm 3 with a vote tally built for every transaction.


class _EagerVotes:
    def __init__(self) -> None:
        self.committed = False
        self._senders: Set[str] = set()
        self._tally: Dict[object, list] = {}
        self._unkeyed: List[list] = []
        self._best: Optional[list] = None

    def _entry_for(self, result: TransactionResult) -> Optional[list]:
        try:
            key = result.match_key()
        except TypeError:
            key = None
        if key is not None:
            entry = self._tally.get(key)
            if entry is not None:
                return entry
            candidates: Iterable[list] = self._unkeyed
        else:
            candidates = (*self._unkeyed, *self._tally.values())
        for entry in candidates:
            if entry[0].matches(result):
                return entry
        return None

    def add(self, result: TransactionResult, executor: str) -> None:
        if executor in self._senders:
            return
        self._senders.add(executor)
        entry = self._entry_for(result)
        if entry is None:
            entry = [result, 1]
            try:
                self._tally[result.match_key()] = entry
            except TypeError:
                self._unkeyed.append(entry)
        else:
            entry[1] += 1
        if self._best is None or entry[1] > self._best[1]:
            self._best = entry

    def best(self) -> Optional[Tuple[TransactionResult, int]]:
        if self._best is None:
            return None
        return self._best[0], self._best[1]


class EagerStateUpdater:
    """Algorithm 3 with a tally per transaction: the form the lazy one replaced."""

    def __init__(self, block_transactions, tau, is_agent, apply_update=None, *, apply_batch=None):
        self._transactions = {tx.tx_id: tx for tx in block_transactions}
        self._tau = tau
        self._is_agent = is_agent
        self._apply_update = apply_update
        self._apply_batch = apply_batch
        self._votes = {tx_id: _EagerVotes() for tx_id in self._transactions}
        self._committed: Dict[str, TransactionResult] = {}
        self._positions = {tx.tx_id: index for index, tx in enumerate(block_transactions)}
        self._last_writer: Dict[str, int] = {}
        self._effective: Dict[str, Mapping[str, Any]] = {}

    @property
    def committed_ids(self) -> Set[str]:
        return set(self._committed)

    def committed_result(self, tx_id: str) -> Optional[TransactionResult]:
        return self._committed.get(tx_id)

    def effective_updates(self, tx_id: str) -> Mapping[str, Any]:
        return self._effective.get(tx_id, {})

    def is_complete(self) -> bool:
        return len(self._committed) == len(self._transactions)

    def pending_ids(self) -> Set[str]:
        return set(self._transactions) - set(self._committed)

    def _gate_updates(self, tx_id: str, winning: TransactionResult) -> Mapping[str, Any]:
        position = self._positions[tx_id]
        last = self._last_writer
        filtered: Dict[str, Any] = {}
        for key, value in winning.updates.items():
            if last.get(key, -1) < position:
                filtered[key] = value
                last[key] = position
        self._effective[tx_id] = filtered
        return filtered

    def receive(self, message: CommitMessage) -> List[str]:
        newly_committed: List[str] = []
        winners: List[TransactionResult] = []
        for result in message.results:
            tx = self._transactions.get(result.tx_id)
            if tx is None:
                continue
            if not self._is_agent(message.executor, tx.application):
                continue
            votes = self._votes[result.tx_id]
            if votes.committed:
                continue
            votes.add(result, message.executor)
            best = votes.best()
            if best is None:
                continue
            winning, count = best
            if count >= self._tau(tx.application):
                votes.committed = True
                self._committed[result.tx_id] = winning
                if not winning.is_abort:
                    effective = self._gate_updates(result.tx_id, winning)
                    applied = (
                        winning
                        if len(effective) == len(winning.updates)
                        else replace(winning, updates=effective)
                    )
                    if self._apply_batch is not None:
                        winners.append(applied)
                    else:
                        self._apply_update(applied)
                newly_committed.append(result.tx_id)
        if winners:
            self._apply_batch(winners)
        return newly_committed


APPS = ("app-0", "app-1")
EXECUTORS = ("e0", "e1", "e2", "e3", "e4")
#: ``5`` and ``5.0`` match; a list is unfreezable (pairwise-compared); a
#: dict with mixed key types cannot be sorted into a match key either.
VALUES = st.sampled_from([5, 5.0, 6, "s", [1], [1.0], {"k": 1}, {1: 2, "k": 3}])


@st.composite
def commit_streams(draw):
    size = draw(st.integers(min_value=1, max_value=6))
    block = [
        make_tx(f"t{i}", writes=["a"], application=draw(st.sampled_from(APPS)), timestamp=i + 1)
        for i in range(size)
    ]
    agents = {
        app: set(draw(st.lists(st.sampled_from(EXECUTORS), min_size=1, max_size=4, unique=True)))
        for app in APPS
    }
    taus = {app: draw(st.integers(min_value=1, max_value=3)) for app in APPS}
    tx_ids = [tx.tx_id for tx in block] + ["foreign"]
    result = st.builds(
        lambda tx_id, executor, status, updates: TransactionResult(
            tx_id=tx_id,
            application=APPS[0],
            updates={} if status == "abort" else updates,
            status=status,
            executed_by=executor,
        ),
        st.sampled_from(tx_ids),
        st.sampled_from(EXECUTORS),
        st.sampled_from(["ok", "ok", "ok", "abort"]),
        st.dictionaries(st.sampled_from(["a", "b", "c"]), VALUES, max_size=2),
    )
    messages = draw(
        st.lists(
            st.builds(
                lambda executor, results: CommitMessage(
                    executor=executor, block_sequence=1, results=tuple(results)
                ),
                st.sampled_from(EXECUTORS),
                st.lists(result, max_size=5),
            ),
            max_size=14,
        )
    )
    return block, agents, taus, messages


def _exact(results: Iterable[TransactionResult]) -> list:
    """Results compared with ``5 != 5.0``: type and repr of every update."""
    return [
        (r.tx_id, r.status, [(k, type(v), repr(v)) for k, v in r.updates.items()])
        for r in results
    ]


@pytest.mark.parametrize("batched", [True, False], ids=["apply_batch", "apply_update"])
@settings(max_examples=300, deadline=None)
@given(stream=commit_streams())
def test_lazy_tally_matches_eager_tally(batched: bool, stream) -> None:
    block, agents, taus, messages = stream

    def tau(app: str) -> int:
        return taus[app]

    def is_agent(executor: str, app: str) -> bool:
        return executor in agents[app]

    def build(cls):
        applied: List[list] = []
        sink = applied.append if batched else (lambda result: applied.append([result]))
        kwargs = {"apply_batch": sink} if batched else {"apply_update": sink}
        return cls(block, tau, is_agent, **kwargs), applied

    eager, eager_applied = build(EagerStateUpdater)
    lazy, lazy_applied = build(StateUpdater)
    for message in messages:
        assert lazy.receive(message) == eager.receive(message)
    assert [_exact(batch) for batch in lazy_applied] == [_exact(b) for b in eager_applied]
    for tx in block:
        assert lazy.committed_result(tx.tx_id) is eager.committed_result(tx.tx_id)
        assert _exact([effective(lazy, tx.tx_id)]) == _exact([effective(eager, tx.tx_id)])
    assert lazy.committed_ids == eager.committed_ids
    assert lazy.pending_ids() == eager.pending_ids()
    assert lazy.is_complete() == eager.is_complete()


def effective(updater, tx_id: str) -> TransactionResult:
    """A stand-in result carrying ``tx_id``'s effective updates, for comparison."""
    return TransactionResult(tx_id=tx_id, application="", updates=updater.effective_updates(tx_id))


@settings(max_examples=100, deadline=None)
@given(stream=commit_streams())
def test_tau_and_agency_asked_once(stream) -> None:
    """``tau`` once per application, ``is_agent`` once per (executor, application)."""
    block, agents, taus, messages = stream
    asked_tau: List[str] = []
    asked_agent: List[tuple] = []

    def tau(app: str) -> int:
        asked_tau.append(app)
        return taus[app]

    def is_agent(executor: str, app: str) -> bool:
        asked_agent.append((executor, app))
        return executor in agents[app]

    updater = StateUpdater(block, tau, is_agent, apply_batch=lambda batch: None)
    for message in messages:
        updater.receive(message)
    assert len(asked_tau) == len(set(asked_tau))
    assert len(asked_agent) == len(set(asked_agent))
