"""Observer hooks for simulation instrumentation.

Worlds publish named hook points ("step_start", "step_end", …).  Metrics
collectors, trace recorders, and tests subscribe without the world knowing
who is listening.  Callbacks run in subscription order, keeping runs
deterministic.

When a phase profiler is attached (``--profile``), every fire is timed
under a ``hook:<name>`` label — which is where hook-driven subsystems
such as fault injection (``step_start``) and invariant checking
(``step_end``) accrue their cost.  Without a profiler the only addition
to the hot path is one attribute check per fire.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

__all__ = ["HookRegistry"]

HookCallback = Callable[..., None]


class HookRegistry:
    """A tiny synchronous publish/subscribe registry."""

    def __init__(self) -> None:
        self._subscribers: Dict[str, List[HookCallback]] = defaultdict(list)
        self._profiler: Optional[Any] = None

    def set_profiler(self, profiler: Optional[Any]) -> None:
        """Attach (or detach, with ``None``) a phase profiler to fires."""
        self._profiler = profiler

    def subscribe(self, hook: str, callback: HookCallback) -> None:
        """Register ``callback`` to run whenever ``hook`` fires."""
        self._subscribers[hook].append(callback)

    def unsubscribe(self, hook: str, callback: HookCallback) -> None:
        """Remove a previously registered callback (no-op if absent)."""
        callbacks = self._subscribers.get(hook)
        if callbacks and callback in callbacks:
            callbacks.remove(callback)

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
        for callback in tuple(self._subscribers.get(hook, ())):
            callback(**payload)
        profiler.add(f"hook:{hook}", perf_counter() - started)

    def is_live(self, hook: str) -> bool:
        """Whether firing ``hook`` does anything: a subscriber or a profiler.

        Hot loops check this once so they can skip building a payload
        nobody receives and no profiler times.
        """
        return self._profiler is not None or bool(self._subscribers.get(hook))

    def subscriber_count(self, hook: str) -> int:
        """Number of callbacks currently attached to ``hook``."""
        return len(self._subscribers.get(hook, ()))
