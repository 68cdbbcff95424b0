"""Discrete time-step simulation engine.

The paper's model is "a simple discrete event, time-step based
simulation".  This package provides:

* :class:`~repro.sim.clock.SimClock` — the simulated clock,
* :class:`~repro.sim.events.EventQueue` — a priority-queue discrete-event
  core used for scheduled one-shot events (link degradation, battery
  milestones),
* :class:`~repro.sim.engine.TimeStepEngine` — the outer loop that advances
  the clock one step at a time, fires due events, then runs registered
  per-step processes in a fixed order,
* :mod:`~repro.sim.hooks` — observer hooks for instrumentation.

The scaffolding the two scenario worlds share lives in
:mod:`repro.sim.world`, which this package does not import: it pulls in
faults, observability and traffic.
"""

from repro.sim.clock import SimClock
from repro.sim.engine import Process, StopSimulation, TimeStepEngine
from repro.sim.events import EventQueue, ScheduledEvent
from repro.sim.hooks import HookRegistry

__all__ = [
    "SimClock",
    "TimeStepEngine",
    "Process",
    "StopSimulation",
    "EventQueue",
    "ScheduledEvent",
    "HookRegistry",
]
