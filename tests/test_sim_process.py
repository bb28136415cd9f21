"""Tests for generator-based processes."""

import pytest

from repro.sim import (
    AllOf, AnyOf, Event, Process, SimulationError, Simulator,
)


class TestBasicProcess:
    def test_numeric_yield_sleeps(self, sim):
        log = []

        def proc():
            log.append(sim.now)
            yield 5.0
            log.append(sim.now)
            yield 2
            log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [0.0, 5.0, 7.0]

    def test_return_value_in_done_event(self, sim):
        def proc():
            yield 1.0
            return "result"

        process = sim.spawn(proc())
        sim.run()
        assert process.done.value == "result"
        assert process.done.triggered

    def test_body_starts_after_spawn_returns(self, sim):
        log = []

        def proc():
            log.append("ran")
            yield 0.0

        sim.spawn(proc())
        assert log == []  # not yet
        sim.run()
        assert log == ["ran"]

    def test_spawn_requires_generator(self, sim):
        def not_a_generator():
            return 5

        with pytest.raises(TypeError):
            sim.spawn(not_a_generator())

    def test_spawn_rejects_a_generator_function_and_a_list(self, sim):
        def proc():
            yield 1.0

        for not_a_generator in (proc, [1.0, 2.0]):
            with pytest.raises(TypeError):
                sim.spawn(not_a_generator)
        assert not sim.pending

    def test_yield_true_sleeps_one_ms(self, sim):
        # A bool is an int: ``yield True`` is ``yield 1``.
        log = []

        def proc():
            yield True
            log.append(sim.now)
            yield False
            log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [1.0, 1.0]

    def test_int_and_float_subclasses_sleep(self, sim):
        class Millis(float):
            pass

        class Ticks(int):
            pass

        log = []

        def proc():
            yield Millis(2.5)
            log.append(sim.now)
            yield Ticks(3)
            log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [2.5, 5.5]

    def test_event_subclass_is_waited_on(self, sim):
        class Signal(Event):
            __slots__ = ()

        signal = Signal(sim, "signal")
        sim.schedule(4.0, signal.trigger, "fired")
        got = []

        def proc():
            value = yield signal
            got.append((sim.now, value))

        process = sim.spawn(proc())
        sim.run()
        assert got == [(4.0, "fired")] and process.done.ok

    def test_yield_event_receives_value(self, sim):
        evt = sim.timeout(4.0, "payload")
        got = []

        def proc():
            value = yield evt
            got.append((sim.now, value))

        sim.spawn(proc())
        sim.run()
        assert got == [(4.0, "payload")]

    def test_yield_already_triggered_event(self, sim):
        evt = sim.event()
        evt.trigger("early")
        got = []

        def proc():
            value = yield evt
            got.append(value)

        sim.spawn(proc())
        sim.run()
        assert got == ["early"]

    def test_failed_event_raises_inside_process(self, sim):
        evt = sim.event()
        caught = []

        def proc():
            try:
                yield evt
            except ValueError as exc:
                caught.append(str(exc))

        sim.spawn(proc())
        sim.schedule(1.0, lambda: evt.fail(ValueError("bad")))
        sim.run()
        assert caught == ["bad"]

    def test_join_another_process(self, sim):
        def child():
            yield 5.0
            return "child-result"

        def parent():
            result = yield sim.spawn(child())
            return result

        process = sim.spawn(parent())
        sim.run()
        assert process.done.value == "child-result"

    def test_unsupported_yield_raises(self, sim):
        def proc():
            yield "nonsense"

        process = sim.spawn(proc())
        sim.run()
        assert not process.done.ok
        assert isinstance(process.done.exception, SimulationError)

    def test_uncaught_exception_fails_done(self, sim):
        def proc():
            yield 1.0
            raise RuntimeError("explode")

        process = sim.spawn(proc())
        sim.run()
        assert not process.done.ok
        assert isinstance(process.done.exception, RuntimeError)


class TestComposites:
    def test_all_of_collects_values_in_order(self, sim):
        results = []

        def proc():
            values = yield AllOf([sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")])
            results.append((sim.now, values))

        sim.spawn(proc())
        sim.run()
        assert results == [(5.0, ["slow", "fast"])]

    def test_all_of_empty_resumes_immediately(self, sim):
        results = []

        def proc():
            values = yield AllOf([])
            results.append(values)

        sim.spawn(proc())
        sim.run()
        assert results == [[]]

    def test_any_of_returns_first(self, sim):
        results = []

        def proc():
            index, value = yield AnyOf(
                [sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")]
            )
            results.append((sim.now, index, value))

        sim.spawn(proc())
        sim.run()
        assert results == [(1.0, 1, "fast")]

    def test_any_of_with_processes(self, sim):
        def child(delay, value):
            yield delay
            return value

        results = []

        def parent():
            index, value = yield AnyOf(
                [sim.spawn(child(9.0, "a")), sim.spawn(child(2.0, "b"))]
            )
            results.append((index, value))

        sim.spawn(parent())
        sim.run()
        assert results == [(1, "b")]

    def test_all_of_propagates_failure(self, sim):
        evt = sim.event()
        caught = []

        def proc():
            try:
                yield AllOf([sim.timeout(1.0), evt])
            except KeyError as exc:
                caught.append(type(exc).__name__)

        sim.spawn(proc())
        sim.schedule(2.0, lambda: evt.fail(KeyError("k")))
        sim.run()
        assert caught == ["KeyError"]
