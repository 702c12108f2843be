"""Capacity-limited resources and message stores for the simulator.

Two primitives cover everything the blockchain models need:

* :class:`CpuPool` — charges CPU-bound work to simulated time while occupying
  one of a node's cores, which is how parallel transaction execution on an
  executor node is modelled.
* :class:`Store` — an unbounded FIFO queue with blocking ``get``; node inboxes
  are stores fed by the simulated network.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.simulation.core import Environment
from repro.simulation.events import Event


class CpuPool:
    """A pool of CPU cores charging CPU-bound work to simulated time.

    ``submit(cost, on_done)`` occupies one core for ``cost`` simulated seconds
    and then calls ``on_done()``.  With ``cores=8`` up to eight pieces of work
    progress simultaneously, which is exactly how the paper's 8-vCPU executor
    nodes run non-conflicting transactions in parallel.  Waiting work is
    granted cores in FIFO order.

    Each job takes three heap hops — arrival, grant, finish (a zero-cost job
    finishes at its grant) — the same positions a process holding a
    semaphore-style core request would occupy, so same-time events keep their
    order without a generator, request event or termination event per job.
    """

    __slots__ = ("env", "cores", "_free", "_waiting", "_busy_time")

    #: The phase profiler credits every pool callback (and the ``on_done``
    #: work it runs) to execution.
    profile_phase = "execution"

    def __init__(self, env: Environment, cores: int) -> None:
        if cores <= 0:
            raise SimulationError(f"cpu pool needs a positive core count, got {cores}")
        self.env = env
        self.cores = cores
        self._free = cores
        self._waiting: Deque[Tuple[float, Callable[[], None]]] = deque()
        self._busy_time = 0.0

    @property
    def utilisation_seconds(self) -> float:
        """Total core-seconds of work executed so far."""
        return self._busy_time

    @property
    def queue_length(self) -> int:
        """Number of work items waiting for a core."""
        return len(self._waiting)

    def submit(self, cost: float, on_done: Callable[[], None]) -> None:
        """Hold one core for ``cost`` seconds, then call ``on_done()``."""
        if cost < 0:
            raise SimulationError(f"cpu cost must be >= 0, got {cost}")
        self.env.schedule_callback(0.0, partial(self._arrive, cost, on_done))

    def _arrive(self, cost: float, on_done: Callable[[], None]) -> None:
        self._waiting.append((cost, on_done))
        self._grant()

    def _grant(self) -> None:
        waiting, schedule = self._waiting, self.env.schedule_callback
        while waiting and self._free:
            self._free -= 1
            schedule(0.0, partial(self._start, *waiting.popleft()))

    def _start(self, cost: float, on_done: Callable[[], None]) -> None:
        if cost > 0:
            self.env.schedule_callback(cost, partial(self._finish, cost, on_done))
        else:
            self._finish(cost, on_done)

    def _finish(self, cost: float, on_done: Callable[[], None]) -> None:
        self._busy_time += cost
        self._free += 1
        self._grant()
        on_done()


class Store:
    """Unbounded FIFO queue with blocking ``get``.

    ``put`` never blocks; ``get`` returns an event that fires with the oldest
    item as soon as one is available.  Multiple pending ``get`` requests are
    served in FIFO order.
    """

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Append ``item``, waking the oldest waiting getter if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next available item."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def get_nowait(self) -> Optional[Any]:
        """Pop an item if one is available, else return ``None``."""
        if self._items:
            return self._items.popleft()
        return None

    def drain(self) -> List[Any]:
        """Remove and return every queued item."""
        items = list(self._items)
        self._items.clear()
        return items
