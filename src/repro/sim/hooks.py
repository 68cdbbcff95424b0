"""Observer hooks for simulation instrumentation.

Worlds publish named hook points ("step_start", "step_end", …).  Metrics
collectors, trace recorders, and tests subscribe without the world knowing
who is listening.  Callbacks run in subscription order, keeping runs
deterministic.

When a phase profiler is attached (``--profile``), every fire is timed
under a ``hook:<name>`` label — which is where hook-driven subsystems
such as fault injection (``step_start``) accrue their cost.  A callback
subscribed with its own ``phase`` (the invariant checker's
``invariants``) is timed under that label instead, and its time is left
out of the hook's.  Without a profiler the only addition to the hot path
is one attribute check per fire.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["HookRegistry"]

HookCallback = Callable[..., None]


class HookRegistry:
    """A tiny synchronous publish/subscribe registry."""

    def __init__(self) -> None:
        self._subscribers: Dict[str, List[HookCallback]] = defaultdict(list)
        #: the profiler phase of each ``(hook, callback)`` subscribed
        #: with its own.
        self._phases: Dict[Tuple[str, HookCallback], str] = {}
        self._profiler: Optional[Any] = None

    def set_profiler(self, profiler: Optional[Any]) -> None:
        """Attach (or detach, with ``None``) a phase profiler to fires."""
        self._profiler = profiler

    def subscribe(
        self, hook: str, callback: HookCallback, phase: Optional[str] = None
    ) -> None:
        """Register ``callback`` to run whenever ``hook`` fires.

        With a ``phase``, a profiler times the callback under that label
        rather than under ``hook:<hook>``.
        """
        self._subscribers[hook].append(callback)
        if phase is not None:
            self._phases[hook, callback] = phase

    def unsubscribe(self, hook: str, callback: HookCallback) -> None:
        """Remove a previously registered callback (no-op if absent)."""
        callbacks = self._subscribers.get(hook)
        if callbacks and callback in callbacks:
            callbacks.remove(callback)
            if callback not in callbacks:
                self._phases.pop((hook, callback), None)

    def fire(self, hook: str, /, **payload: Any) -> None:
        """Invoke every subscriber of ``hook`` with ``payload`` kwargs.

        Iterates a snapshot so a callback that unsubscribes itself (or
        anyone else) mid-fire cannot skip the next subscriber; callbacks
        subscribed during a fire run from the following fire on.
        """
        profiler = self._profiler
        if profiler is None:
            for callback in tuple(self._subscribers.get(hook, ())):
                callback(**payload)
            return
        started = perf_counter()
        own = 0.0
        for callback in tuple(self._subscribers.get(hook, ())):
            phase = self._phases.get((hook, callback))
            if phase is None:
                callback(**payload)
                continue
            called = perf_counter()
            callback(**payload)
            spent = perf_counter() - called
            profiler.add(phase, spent)
            own += spent
        profiler.add(f"hook:{hook}", perf_counter() - started - own)

    def is_live(self, hook: str) -> bool:
        """Whether firing ``hook`` does anything: a subscriber or a profiler.

        Hot loops check this once so they can skip building a payload
        nobody receives and no profiler times.
        """
        return self._profiler is not None or bool(self._subscribers.get(hook))

    def subscriber_count(self, hook: str) -> int:
        """Number of callbacks currently attached to ``hook``."""
        return len(self._subscribers.get(hook, ()))
