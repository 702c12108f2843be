"""Unit tests for the discrete-event simulation engine."""

from __future__ import annotations

import pytest

from repro.common.errors import SimulationError
from repro.simulation import AllOf, AnyOf, CpuPool, Store
from repro.simulation.process import Interrupt


class TestEnvironmentBasics:
    def test_clock_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_timeout_advances_clock(self, env):
        def proc(env):
            yield env.timeout(2.5)
            return env.now

        process = env.process(proc(env))
        env.run()
        assert process.value == 2.5
        assert env.now == 2.5

    def test_negative_timeout_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_timeout_at_wakes_at_exact_absolute_time(self, env):
        # 0.1 is not exactly representable: now + (when - now) drifts by an
        # ulp, which is exactly what timeout_at exists to avoid.
        target = 0.1 + 0.2  # 0.30000000000000004
        def proc(env):
            yield env.timeout(0.1)
            yield env.timeout_at(target)
            return env.now

        process = env.process(proc(env))
        env.run()
        assert process.value == target

    def test_timeout_at_rejects_past_times(self, env):
        def proc(env):
            yield env.timeout(1.0)

        env.process(proc(env))
        env.run()
        assert env.now == 1.0
        with pytest.raises(SimulationError):
            env.timeout_at(0.5)

    def test_events_fire_in_time_order(self, env):
        order = []

        def proc(env, delay, label):
            yield env.timeout(delay)
            order.append(label)

        env.process(proc(env, 3.0, "c"))
        env.process(proc(env, 1.0, "a"))
        env.process(proc(env, 2.0, "b"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fifo(self, env):
        order = []

        def proc(env, label):
            yield env.timeout(1.0)
            order.append(label)

        for label in ["first", "second", "third"]:
            env.process(proc(env, label))
        env.run()
        assert order == ["first", "second", "third"]

    def test_run_until_time(self, env):
        ticks = []

        def ticker(env):
            while True:
                yield env.timeout(1.0)
                ticks.append(env.now)

        env.process(ticker(env))
        env.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]
        assert env.now == 3.5

    def test_run_until_event_returns_value(self, env):
        def proc(env):
            yield env.timeout(1.0)
            return "result"

        value = env.run(until=env.process(proc(env)))
        assert value == "result"

    def test_run_until_failed_process_raises(self, env):
        def proc(env):
            yield env.timeout(1.0)
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            env.run(until=env.process(proc(env)))

    def test_step_empty_queue_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()


class TestProcesses:
    def test_process_awaits_another_process(self, env):
        def child(env):
            yield env.timeout(1.0)
            return 41

        def parent(env):
            value = yield env.process(child(env))
            return value + 1

        process = env.process(parent(env))
        env.run()
        assert process.value == 42

    def test_process_requires_generator(self, env):
        def not_a_generator():
            return 1

        with pytest.raises(SimulationError):
            env.process(not_a_generator())  # type: ignore[arg-type]

    def test_yielding_non_event_fails_process(self, env):
        def proc(env):
            yield "not an event"

        process = env.process(proc(env))
        env.run()
        assert not process.ok

    def test_yielding_number_sleeps(self, env):
        """A numeric yield is a lean timeout: the process resumes after the delay."""
        marks = []

        def proc(env):
            yield 1.5
            marks.append(env.now)
            yield 2  # ints work too
            marks.append(env.now)
            return "slept"

        process = env.process(proc(env))
        value = env.run(until=process)
        assert marks == [1.5, 3.5]
        assert value == "slept"

    def test_numeric_sleep_orders_like_timeout(self, env):
        """Lean sleeps and timeout events at the same instant keep FIFO order."""
        order = []

        def lean(env):
            yield 1.0
            order.append("lean")

        def evented(env):
            yield env.timeout(1.0)
            order.append("event")

        env.process(lean(env))
        env.process(evented(env))
        env.run()
        assert order == ["lean", "event"]

    def test_negative_sleep_fails_process(self, env):
        def proc(env):
            yield -0.5

        process = env.process(proc(env))
        env.run()
        assert not process.ok

    def test_interrupt_cancels_pending_lean_sleep(self, env):
        """An interrupt during a lean sleep must not resume the process twice."""
        marks = []

        def sleeper(env):
            try:
                yield 10.0
            except Interrupt:
                marks.append(("interrupted", env.now))
            yield 5.0
            marks.append(("resumed", env.now))
            return "done"

        def interrupter(env, victim):
            yield env.timeout(1.0)
            victim.interrupt("wake up")

        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        env.run()
        assert marks == [("interrupted", 1.0), ("resumed", 6.0)]
        assert victim.value == "done"

    def test_interrupt_raises_inside_process(self, env):
        caught = []

        def sleeper(env):
            try:
                yield env.timeout(10.0)
            except Interrupt as interrupt:
                caught.append(interrupt.cause)
            return "done"

        def interrupter(env, victim):
            yield env.timeout(1.0)
            victim.interrupt("wake up")

        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        env.run()
        assert caught == ["wake up"]
        assert victim.value == "done"

    def test_exception_propagates_to_waiter(self, env):
        def failing(env):
            yield env.timeout(1.0)
            raise RuntimeError("inner failure")

        def waiter(env):
            try:
                yield env.process(failing(env))
            except RuntimeError as exc:
                return f"caught {exc}"

        process = env.process(waiter(env))
        env.run()
        assert process.value == "caught inner failure"


class TestConditionEvents:
    def test_all_of_collects_values(self, env):
        def proc(env):
            events = [env.timeout(1.0, value="a"), env.timeout(2.0, value="b")]
            values = yield AllOf(env, events)
            return values

        process = env.process(proc(env))
        env.run()
        assert process.value == ["a", "b"]
        assert env.now == 2.0

    def test_any_of_returns_first(self, env):
        def proc(env):
            value = yield AnyOf(env, [env.timeout(5.0, value="slow"), env.timeout(1.0, value="fast")])
            return value

        process = env.process(proc(env))
        env.run(until=process)
        assert process.value == "fast"

    def test_all_of_empty_fires_immediately(self, env):
        def proc(env):
            values = yield AllOf(env, [])
            return values

        process = env.process(proc(env))
        env.run()
        assert process.value == []


class TestCpuPool:
    def test_cpu_pool_limits_concurrency(self, env):
        pool = CpuPool(env, cores=2)
        done = []
        for job in range(5):
            pool.submit(1.0, lambda job=job: done.append((job, env.now)))
        env.step()  # first arrival: both cores granted, three jobs still wait
        assert pool.queue_length == 0
        for _ in range(4):
            env.step()
        assert pool.queue_length == 3
        env.run()
        # 5 jobs of 1s on 2 cores: FIFO pairs finish at 1s and 2s, the last at 3s.
        assert done == [(0, 1.0), (1, 1.0), (2, 2.0), (3, 2.0), (4, 3.0)]

    def test_cpu_pool_invalid_capacity(self, env):
        with pytest.raises(SimulationError):
            CpuPool(env, cores=0)

    def test_cpu_pool_rejects_negative_cost(self, env):
        with pytest.raises(SimulationError):
            CpuPool(env, cores=1).submit(-1.0, lambda: None)

    def test_cpu_pool_parallel_speedup(self, env):
        pool = CpuPool(env, cores=4)
        done = []
        for _ in range(8):
            pool.submit(1.0, lambda: done.append(env.now))
        env.run()
        # 8 jobs of 1 second across 4 cores finish in 2 simulated seconds.
        assert done == [1.0] * 4 + [2.0] * 4
        assert env.now == pytest.approx(2.0)
        assert pool.utilisation_seconds == pytest.approx(8.0)

    def test_cpu_pool_sequential_when_single_core(self, env):
        pool = CpuPool(env, cores=1)
        for _ in range(4):
            pool.submit(0.5, lambda: None)
        env.run()
        assert env.now == pytest.approx(2.0)


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)
        store.put("item")

        def proc(env):
            value = yield store.get()
            return value

        process = env.process(proc(env))
        env.run()
        assert process.value == "item"

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        received = []

        def consumer(env):
            value = yield store.get()
            received.append((env.now, value))

        def producer(env):
            yield env.timeout(2.0)
            store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert received == [(2.0, "late")]

    def test_fifo_order(self, env):
        store = Store(env)
        for i in range(3):
            store.put(i)
        assert store.get_nowait() == 0
        assert store.drain() == [1, 2]
        assert store.get_nowait() is None
