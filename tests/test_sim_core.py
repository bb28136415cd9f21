"""Tests for the discrete-event simulator kernel."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Event, SimulationError, Simulator
from tests.oracles import eager_schedule_each


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_runs_callback_at_time(self, sim):
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_callbacks_run_in_time_order(self, sim):
        seen = []
        sim.schedule(10.0, lambda: seen.append("b"))
        sim.schedule(5.0, lambda: seen.append("a"))
        sim.schedule(15.0, lambda: seen.append("c"))
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_same_time_callbacks_run_fifo(self, sim):
        seen = []
        for label in ("first", "second", "third"):
            sim.schedule(3.0, lambda l=label: seen.append(l))
        sim.run()
        assert seen == ["first", "second", "third"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.timeout(float("nan"))
        assert not sim.pending

    def test_a_refused_nan_leaves_the_clock_and_the_order_alone(self, sim):
        seen = []
        sim.schedule(2.0, seen.append, "b")
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), seen.append, "nan")
        sim.schedule(1.0, seen.append, "a")
        assert sim.run() == 2.0
        assert seen == ["a", "b"] and sim.now == 2.0

    def test_zero_delay_runs_at_current_time(self, sim):
        seen = []
        sim.schedule(0.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [0.0]

    def test_callback_args_passed(self, sim):
        seen = []
        sim.schedule(1.0, lambda a, b: seen.append((a, b)), 1, "x")
        sim.run()
        assert seen == [(1, "x")]

    def test_nested_scheduling(self, sim):
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(2.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [3.0]

    def test_run_until_stops_clock_exactly(self, sim):
        sim.schedule(100.0, lambda: None)
        sim.run(until=40.0)
        assert sim.now == 40.0

    def test_run_until_preserves_pending_events(self, sim):
        seen = []
        sim.schedule(100.0, lambda: seen.append("late"))
        sim.run(until=40.0)
        assert seen == []
        sim.run()
        assert seen == ["late"]
        assert sim.now == 100.0

    def test_run_until_past_queue_advances_clock(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run(until=50.0)
        assert sim.now == 50.0

    def test_max_events_limits_execution(self, sim):
        seen = []
        for i in range(5):
            sim.schedule(float(i), lambda i=i: seen.append(i))
        sim.run(max_events=2)
        assert seen == [0, 1]

    def test_same_time_fifo_never_compares_callbacks_or_args(self, sim):
        # Heap entries are (when, sequence, callback, args) tuples: were
        # ordering ever to fall through the unique sequence number it
        # would compare lambdas or dicts and raise TypeError.
        seen = []
        for label in range(50):
            sim.schedule(3.0, lambda payload: seen.append(payload["n"]),
                         {"n": label})
        sim.schedule(3.0, seen.append, "bound")
        sim.run()
        assert seen == list(range(50)) + ["bound"]

    def test_schedule_returns_nothing(self, sim):
        # Nothing to cancel through: a stale timer checks its owner.
        assert sim.schedule(1.0, lambda: None) is None

    def test_run_until_stops_before_a_later_entry(self, sim):
        seen = []
        sim.schedule(40.0, seen.append, "at")
        sim.schedule(40.5, seen.append, "after")
        assert sim.run(until=40.0) == 40.0
        assert seen == ["at"]
        assert sim.now == 40.0
        assert sim.pending == 1

    @pytest.mark.parametrize("k", [1, 100])
    def test_max_events_runs_exactly_k_callbacks(self, sim, k):
        seen = []
        for i in range(150):
            sim.schedule(float(i), seen.append, i)
        sim.run(max_events=k)
        assert seen == list(range(k))
        assert sim.events_processed == k
        assert sim.now == float(k - 1)
        assert sim.pending == 150 - k

    def test_a_stream_keeps_pending_nonzero_while_work_remains(self, sim):
        # ``ProgressReporter`` re-arms and the ledger's ``run_sliced``
        # loops on ``sim.pending``: a stream is one entry, never zero
        # before its last element has run.
        seen = []
        stream_each(sim, [float(i) for i in range(250)], seen.append)
        assert sim.pending == 1
        while sim.pending:
            assert sim.pending == 1
            sim.run(max_events=100)
        assert seen == list(range(250))
        assert sim.events_processed == 250

    def test_events_processed_counter(self, sim):
        for i in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 3

    @pytest.mark.parametrize("guarantee, events", [
        ("ng", 1385), ("lf", 1943), ("op", 2338),
    ])
    def test_a_move_processes_the_pinned_number_of_events(
        self, guarantee, events
    ):
        # Counted at 36111c3, before heap entries became tuples: the
        # event count is part of every ledger digest.
        from repro.harness import run_move_experiment

        result = run_move_experiment(guarantee=guarantee, n_flows=20)
        assert result.deployment.sim.events_processed == events


def stream_each(sim, delays, callback):
    """``eager_schedule_each`` as a stream: one entry, re-armed per element.

    Element 0 is scheduled like any event; the rest run under the
    tie-break numbers reserved right behind it, at the float
    ``schedule(delays[i])`` would have computed now.
    """
    if not delays:
        return
    whens = [sim.now + delay for delay in delays]
    cursor = [0]

    def fire():
        index = cursor[0]
        cursor[0] = index + 1
        if index + 1 < len(whens):
            sim.rearm(whens[index + 1], first_seq + index)
        callback(index)

    sim.schedule(delays[0], fire)
    first_seq = sim.reserve(len(delays) - 1)


#: Quarter steps add exactly; the tenths do not (0.1 + 0.2 != 0.3), so
#: both exact ties and near misses between sources come up.
_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 2.5, 0.1, 0.2, 0.3])
_PLAIN = st.lists(_DELAYS, max_size=6)
_STREAM = st.lists(_DELAYS, max_size=12).map(sorted)
_SEGMENT = st.one_of(
    st.tuples(st.just("until"), st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0])),
    st.tuples(st.just("max_events"), st.integers(1, 7)),
)


def _play(register, start, before, streams, after, spawning, segments):
    """One program on a fresh simulator; the execution log per segment."""
    sim = Simulator()
    log = []

    def plain(tag):
        log.append((sim.now, tag))

    def element(which):
        def run(index):
            log.append((sim.now, "%s[%d]" % (which, index)))
            if index in spawning:
                sim.schedule(0.0, plain, "%s[%d].child" % (which, index))
        return run

    sim.run(until=start)
    for k, delay in enumerate(before):
        sim.schedule(delay, plain, "before%d" % k)
    for which, delays in zip("ab", streams):
        register(sim, delays, element(which))
        sim.schedule(0.25, plain, "between-" + which)
    for k, delay in enumerate(after):
        sim.schedule(delay, plain, "after%d" % k)
    marks = []
    for kind, value in list(segments) + [("until", None)]:
        sim.run(**{kind: value})
        marks.append((len(log), sim.now, sim.events_processed))
    assert not sim.pending
    return log, marks


class TestStreams:
    """``reserve`` + ``rearm`` against the eager loop they replaced."""

    @given(
        start=st.sampled_from([0.0, 0.1, 7.3]),
        before=_PLAIN, streams=st.lists(_STREAM, min_size=1, max_size=2),
        after=_PLAIN, spawning=st.sets(st.integers(0, 11)),
        segments=st.lists(_SEGMENT, max_size=5),
    )
    def test_a_stream_runs_exactly_as_the_eager_loop(
        self, start, before, streams, after, spawning, segments
    ):
        program = (start, before, streams, after, spawning, segments)
        assert _play(stream_each, *program) == \
            _play(eager_schedule_each, *program)

    def test_reserved_numbers_are_never_drawn_again(self, sim):
        sim.schedule(1.0, lambda: None)
        first = sim.reserve(3)
        sim.schedule(1.0, lambda: None)
        second = sim.reserve(0)
        third = sim.reserve(2)
        sim.schedule(1.0, lambda: None)
        drawn = sorted(seq for _when, seq, _cb, _args in sim._queue)
        assert drawn == [first - 1, first + 3, third + 2]
        assert second == third == first + 4

    def test_reserved_numbers_order_a_tie(self, sim):
        seen = []
        stream_each(sim, [1.0, 1.0, 1.0], lambda i: seen.append("s%d" % i))
        sim.schedule(1.0, seen.append, "later")
        sim.run()
        assert seen == ["s0", "s1", "s2", "later"]

    def test_rearm_into_the_past_rejected(self, sim):
        def fire():
            with pytest.raises(SimulationError, match="in the past"):
                sim.rearm(4.0, seq)
            fired.append(sim.now)

        fired = []
        sim.schedule(5.0, fire)
        seq = sim.reserve(1)
        sim.run()
        assert fired == [5.0] and not sim.pending

    def test_rearm_at_nan_rejected(self, sim):
        def fire():
            with pytest.raises(SimulationError):
                sim.rearm(float("nan"), seq)
            fired.append(sim.now)

        fired = []
        sim.schedule(5.0, fire)
        seq = sim.reserve(1)
        assert sim.run() == 5.0
        assert fired == [5.0] and not sim.pending

    def test_rearm_outside_a_running_callback_rejected(self, sim):
        seq = sim.reserve(1)
        with pytest.raises(SimulationError, match="outside"):
            sim.rearm(1.0, seq)
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="outside"):
            sim.rearm(2.0, seq)

    def test_negative_reservation_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.reserve(-1)


class TestEvent:
    def test_event_starts_pending(self, sim):
        evt = sim.event("x")
        assert not evt.triggered
        assert not evt.ok

    def test_trigger_sets_value(self, sim):
        evt = sim.event()
        evt.trigger(42)
        assert evt.triggered and evt.ok
        assert evt.value == 42

    def test_value_before_trigger_raises(self, sim):
        evt = sim.event("pending")
        with pytest.raises(SimulationError):
            _ = evt.value

    def test_double_trigger_rejected(self, sim):
        evt = sim.event()
        evt.trigger()
        with pytest.raises(SimulationError):
            evt.trigger()

    def test_fail_stores_exception(self, sim):
        evt = sim.event()
        evt.fail(ValueError("boom"))
        assert evt.triggered and not evt.ok
        with pytest.raises(ValueError):
            _ = evt.value

    def test_fail_requires_exception_instance(self, sim):
        evt = sim.event()
        with pytest.raises(TypeError):
            evt.fail("not an exception")

    def test_callback_after_trigger_runs_immediately(self, sim):
        evt = sim.event()
        evt.trigger("v")
        seen = []
        evt.add_callback(lambda e: seen.append(e.value))
        assert seen == ["v"]

    def test_callbacks_fire_on_trigger(self, sim):
        evt = sim.event()
        seen = []
        evt.add_callback(lambda e: seen.append("a"))
        evt.add_callback(lambda e: seen.append("b"))
        evt.trigger()
        assert seen == ["a", "b"]

    def test_timeout_triggers_after_delay(self, sim):
        evt = sim.timeout(7.5, "done")
        sim.run()
        assert evt.value == "done"
        assert sim.now == 7.5
