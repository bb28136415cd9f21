"""Core discrete-event simulator: virtual clock, event queue, and events.

The simulator maintains a priority queue of ``(time, sequence, callback,
args)`` entries. Time is a float in *milliseconds* throughout the
reproduction (the paper reports operation times in ms). Entries scheduled
for the same instant run in FIFO order, which keeps runs deterministic.

:class:`Event` is a one-shot, latching synchronization primitive modeled
after simpy's events: it can be triggered with a value or failed with an
exception, callbacks attached after triggering fire immediately, and
processes (see :mod:`repro.sim.process`) can ``yield`` an event to block
until it triggers.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for invalid simulator usage (e.g. scheduling in the past)."""


class Event:
    """A one-shot latching event.

    An event starts *pending*; calling :meth:`trigger` (or :meth:`fail`)
    moves it to *triggered* and invokes all attached callbacks with the
    event itself. Attaching a callback to an already-triggered event calls
    it immediately, so waiters never miss a signal (this is what makes the
    ``wait(GOT_FIRST_PKT_FROM_SW)`` steps in the paper's Figure 6 safe to
    express as plain yields).
    """

    __slots__ = ("sim", "name", "_callbacks", "triggered", "_value", "exception")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._callbacks: List[Callable[["Event"], None]] = []
        #: Whether the event has fired (successfully or with an error).
        #: Like :attr:`exception`, set only by :meth:`trigger` / :meth:`fail`.
        self.triggered = False
        self._value: Any = None
        #: The exception the event failed with, or ``None``.
        self.exception: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        """Whether the event fired successfully (no exception)."""
        return self.triggered and self.exception is None

    @property
    def value(self) -> Any:
        """The value the event was triggered with.

        Raises the stored exception if the event failed, and
        :class:`SimulationError` if the event is still pending.
        """
        if not self.triggered:
            raise SimulationError("event %r has not been triggered" % (self.name,))
        if self.exception is not None:
            raise self.exception
        return self._value

    def trigger(self, value: Any = None) -> "Event":
        """Fire the event successfully with ``value``; idempotent misuse errors."""
        if self.triggered:
            raise SimulationError("event %r already triggered" % (self.name,))
        self.triggered = True
        self._value = value
        if self._callbacks:
            self._flush()
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fire the event with an exception; waiters will see it raised."""
        if self.triggered:
            raise SimulationError("event %r already triggered" % (self.name,))
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.triggered = True
        self.exception = exception
        if self._callbacks:
            self._flush()
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Invoke ``callback(event)`` when the event fires (now if already fired)."""
        if self.triggered:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _flush(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return "<Event %s %s>" % (self.name or hex(id(self)), state)


class Simulator:
    """Deterministic discrete-event simulator with a millisecond clock."""

    def __init__(self) -> None:
        #: Current simulated time in milliseconds. Read it freely; only
        #: :meth:`run` advances it.
        self.now = 0.0
        #: Heap of ``(when, sequence, callback, args)``. The sequence
        #: number is unique, so ordering never reaches the callback.
        self._queue: List[
            Tuple[float, int, Callable[..., None], Tuple[Any, ...]]
        ] = []
        self._sequence = itertools.count()
        #: The entry :meth:`run` is executing (what :meth:`rearm` re-queues).
        self._running: Optional[
            Tuple[float, int, Callable[..., None], Tuple[Any, ...]]
        ] = None
        self._event_count = 0

    @property
    def events_processed(self) -> int:
        """Total callbacks executed so far (useful for runaway detection)."""
        return self._event_count

    @property
    def pending(self) -> int:
        """Queued entries still awaiting execution.

        A cheap liveness probe: the progress reporter re-arms its next
        tick only while this is non-zero, so it can never keep the
        event loop alive on its own.
        """
        return len(self._queue)

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Run ``callback(*args)`` after ``delay`` ms of simulated time.

        A scheduled callback cannot be cancelled: a timer that may go
        stale checks an epoch or a flag of its owner when it fires.
        """
        if delay < 0:
            raise SimulationError("cannot schedule %.3f ms in the past" % delay)
        heappush(
            self._queue, (self.now + delay, next(self._sequence), callback, args)
        )

    def reserve(self, n: int) -> int:
        """Set aside the next ``n`` tie-break numbers; returns the first.

        For a source that owns a time-sorted stream (a trace replay).
        These are the numbers ``n`` consecutive :meth:`schedule` calls
        made now would draw, and nothing else ever draws them: a stream
        that keeps one entry queued and gives it the next of them with
        :meth:`rearm` runs in exactly the order the ``n`` eager calls
        would have.
        """
        if n < 0:
            raise SimulationError("cannot reserve %d sequence numbers" % n)
        first = next(self._sequence)
        self._sequence = itertools.count(first + n)
        return first

    def rearm(self, when: float, seq: int) -> None:
        """Queue the running callback again, at absolute time ``when``.

        Only from inside a callback :meth:`run` is executing; ``seq`` is
        a number from the caller's own :meth:`reserve` block. What is
        queued is the entry :meth:`schedule` built, callback and
        arguments as they are, so a wrapper around ``schedule`` (the
        ledger's tracer labels callbacks there) covers every run of the
        stream, not just the first.
        """
        if when < self.now:
            raise SimulationError(
                "cannot schedule %.3f ms in the past" % (when - self.now)
            )
        running = self._running
        if running is None:
            raise SimulationError("rearm() outside a running callback")
        heappush(self._queue, (when, seq, running[2], running[3]))

    def call_at(
        self, when: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Run ``callback(*args)`` at absolute simulated time ``when``."""
        self.schedule(when - self.now, callback, *args)

    def event(self, name: str = "") -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Event:
        """An event that triggers after ``delay`` ms with ``value``."""
        evt = Event(self, name or "timeout(%g)" % delay)
        self.schedule(delay, evt.trigger, value)
        return evt

    def spawn(self, generator, name: str = ""):
        """Start a cooperative process; see :class:`repro.sim.process.Process`."""
        return Process(self, generator, name)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run the event loop.

        Stops when the queue drains, when simulated time would pass
        ``until`` (the clock is then advanced to exactly ``until``), or
        after ``max_events`` callbacks. Returns the final clock value.
        """
        queue = self._queue
        executed = 0
        try:
            while queue:
                if until is not None and queue[0][0] > until:
                    self.now = until
                    return until
                when, _seq, callback, args = self._running = heappop(queue)
                if when < self.now:
                    raise SimulationError("event queue time went backwards")
                self.now = when
                callback(*args)
                self._event_count += 1
                executed += 1
                if max_events is not None and executed >= max_events:
                    return when
        finally:
            self._running = None
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_until_triggered(self, event: Event, limit: float = 1e12) -> Any:
        """Run until ``event`` fires; return its value. Errors if it never does."""
        while not event.triggered:
            if not self._queue:
                raise SimulationError(
                    "event %r never triggered (queue drained)" % (event.name,)
                )
            if self.now > limit:
                raise SimulationError("simulation exceeded limit while waiting")
            self.run(max_events=1)
        return event.value


# Down here because the two modules need each other: ``process`` takes
# the classes above from this one, and ``spawn`` takes ``Process``.
from repro.sim.process import Process  # noqa: E402
