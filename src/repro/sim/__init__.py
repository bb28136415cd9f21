"""Discrete-event simulation kernel.

This package provides the execution substrate for the OpenNF reproduction:
a deterministic event-driven simulator with a virtual clock
(:class:`~repro.sim.core.Simulator`), one-shot latching events
(:class:`~repro.sim.core.Event`), and generator-based cooperative
processes (:class:`~repro.sim.process.Process`).

All network latencies, NF serialization costs, and switch update delays in
the reproduction are expressed as simulated time, which makes every race
condition from the paper reproducible by construction and every experiment
deterministic given a seed.
"""

from repro.sim.core import Event, Simulator, SimulationError
from repro.sim.process import AllOf, AnyOf, Process

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Process",
    "SimulationError",
    "Simulator",
]
