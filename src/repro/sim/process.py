"""Generator-based cooperative processes for the simulator.

A :class:`Process` wraps a Python generator. The generator expresses
blocking control flow by yielding:

* a number — sleep that many simulated milliseconds;
* an :class:`~repro.sim.core.Event` — block until it triggers (its value
  becomes the result of the ``yield`` expression; a failed event raises
  inside the generator);
* another :class:`Process` — block until it finishes (join);
* :class:`AllOf` / :class:`AnyOf` — composite waits.

The controller's long-running operations (the move pseudo-code in the
paper's Figure 6, the share serialization loop of §5.2.2) are written as
processes, which keeps them a close transcription of the paper.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from repro.sim.core import Event, SimulationError, Simulator


class ProcessKilled(Exception):
    """Raised inside a process generator when :meth:`Process.kill` is called."""


class AllOf:
    """Composite wait: resumes when *all* given events/processes have fired.

    The yield result is the list of values in the given order.
    """

    def __init__(self, waitables: Iterable[Any]) -> None:
        self.waitables = list(waitables)


class AnyOf:
    """Composite wait: resumes when *any* given event/process fires.

    The yield result is ``(index, value)`` of the first to fire.
    """

    def __init__(self, waitables: Iterable[Any]) -> None:
        self.waitables = list(waitables)


class Process:
    """A cooperative process driven by the simulator's event loop."""

    def __init__(self, sim: Simulator, generator, name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise TypeError(
                "Process requires a generator (did you forget to call the "
                "generator function?)"
            )
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self.done = Event(sim, "done:%s" % self.name)
        self._alive = True
        # Start on the next tick so spawn() returns before the body runs.
        sim.schedule(0.0, self._step, None, None)

    @property
    def alive(self) -> bool:
        """Whether the process is still running."""
        return self._alive

    @property
    def result(self) -> Any:
        """Return value of the generator (requires the process to be done)."""
        return self.done.value

    def kill(self, reason: str = "killed") -> None:
        """Throw :class:`ProcessKilled` into the process on the next tick."""
        if not self._alive:
            return
        self.sim.schedule(0.0, self._step, None, ProcessKilled(reason))

    def _step(self, send_value: Any, throw_exc: Optional[BaseException]) -> None:
        if not self._alive:
            return
        try:
            if throw_exc is not None:
                target = self._generator.throw(throw_exc)
            else:
                target = self._generator.send(send_value)
        except StopIteration as stop:
            self._alive = False
            self.done.trigger(stop.value)
            return
        except ProcessKilled as killed:
            self._alive = False
            self.done.fail(killed)
            return
        except Exception as exc:
            # Any other uncaught exception terminates the process; waiters
            # joining it observe the failure through the done event.
            self._alive = False
            self.done.fail(exc)
            return
        # Arm the wake-up for whatever the generator yielded.
        if isinstance(target, (int, float)):
            self.sim.schedule(target, self._step, None, None)
        elif isinstance(target, Event):
            target.add_callback(self._resume_from_event)
        elif isinstance(target, Process):
            target.done.add_callback(self._resume_from_event)
        elif isinstance(target, AllOf):
            self._wait_all(target)
        elif isinstance(target, AnyOf):
            self._wait_any(target)
        else:
            exc = SimulationError(
                "process %r yielded unsupported value %r" % (self.name, target)
            )
            self.sim.schedule(0.0, self._step, None, exc)

    def _resume_from_event(self, event: Event) -> None:
        if event.exception is not None:
            self.sim.schedule(0.0, self._step, None, event.exception)
        else:
            self.sim.schedule(0.0, self._step, event._value, None)

    @staticmethod
    def _as_event(waitable: Any) -> Event:
        if isinstance(waitable, Process):
            return waitable.done
        if isinstance(waitable, Event):
            return waitable
        raise SimulationError("AllOf/AnyOf members must be events or processes")

    def _wait_all(self, group: AllOf) -> None:
        events = [self._as_event(w) for w in group.waitables]
        if not events:
            self.sim.schedule(0.0, self._step, [], None)
            return
        remaining = {"count": len(events)}
        results: List[Any] = [None] * len(events)

        def on_fire(index: int, event: Event) -> None:
            if event.exception is not None:
                if remaining["count"] > 0:
                    remaining["count"] = -1
                    self.sim.schedule(0.0, self._step, None, event.exception)
                return
            results[index] = event._value
            remaining["count"] -= 1
            if remaining["count"] == 0:
                self.sim.schedule(0.0, self._step, results, None)

        for i, evt in enumerate(events):
            evt.add_callback(lambda e, i=i: on_fire(i, e))

    def _wait_any(self, group: AnyOf) -> None:
        events = [self._as_event(w) for w in group.waitables]
        if not events:
            raise SimulationError("AnyOf requires at least one waitable")
        fired = {"done": False}

        def on_fire(index: int, event: Event) -> None:
            if fired["done"]:
                return
            fired["done"] = True
            if event.exception is not None:
                self.sim.schedule(0.0, self._step, None, event.exception)
            else:
                self.sim.schedule(0.0, self._step, (index, event._value), None)

        for i, evt in enumerate(events):
            evt.add_callback(lambda e, i=i: on_fire(i, e))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "done"
        return "<Process %s %s>" % (self.name, state)
