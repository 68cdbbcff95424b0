"""Resilience metrics: how hard does a fault hit, how fast the recovery.

AntNet validates stigmergetic routing by its behaviour under component
failure; the paper's claim here is the same shape — agents keep the
network mapped and routed while the substrate decays.  This module
turns that into numbers.  A :class:`ResilienceTracker` subscribes to a
world's hooks (no world code knows it exists) and distils the per-step
metric into a :class:`ResilienceReport`:

* **baseline** — mean metric over the window before the first fault,
* **dip depth** — baseline minus the worst value at/after the first
  fault (how deep the churn bit),
* **time to reconverge** — steps between the *last* fault and the first
  subsequent sample back at ``recovery_fraction`` of baseline,
* **agent survival** — fraction of the team still alive at run end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.analysis.series import TimeSeries
from repro.sim.hooks import HookRegistry
from repro.types import Time

__all__ = ["ResilienceReport", "ResilienceTracker"]

#: fraction of the pre-fault baseline that counts as "recovered".
DEFAULT_RECOVERY_FRACTION = 0.9


@dataclass(frozen=True)
class ResilienceReport:
    """Distilled resilience numbers for one faulted run (picklable)."""

    faults_injected: int
    first_fault_time: Optional[Time]
    last_fault_time: Optional[Time]
    baseline: Optional[float]
    dip_depth: Optional[float]
    reconverge_steps: Optional[Time]
    agents_total: int
    agents_alive: int

    @property
    def agent_survival(self) -> float:
        """Fraction of the team alive at run end."""
        if self.agents_total == 0:
            return 1.0
        return self.agents_alive / self.agents_total

    @property
    def recovered(self) -> bool:
        """Whether the metric returned to its recovery band post-fault."""
        return self.reconverge_steps is not None


class ResilienceTracker:
    """Hook subscriber that measures degradation and recovery.

    ``metric_hook``/``value_key`` name the world's per-step metric hook
    ("connectivity_recorded"/"fraction" for routing,
    "knowledge_recorded"/"average" for mapping).  The tracker also
    listens to the injector's ``fault_injected`` hook to learn when
    faults actually fired.
    """

    def __init__(
        self,
        hooks: HookRegistry,
        metric_hook: str,
        value_key: str,
        recovery_fraction: float = DEFAULT_RECOVERY_FRACTION,
    ) -> None:
        self._value_key = value_key
        self._recovery_fraction = recovery_fraction
        self._times: List[Time] = []
        self._values: List[float] = []
        self._fault_times: List[Time] = []
        hooks.subscribe(metric_hook, self._on_metric)
        hooks.subscribe("fault_injected", self._on_fault)

    def _on_metric(self, *, time: Time, **payload: Any) -> None:
        self._times.append(time)
        self._values.append(float(payload[self._value_key]))

    def _on_fault(self, *, time: Time, **payload: Any) -> None:
        del payload
        self._fault_times.append(time)

    def series(self) -> TimeSeries:
        """The recorded metric as a time series."""
        return TimeSeries(list(self._times), list(self._values))

    def report(self, agents_total: int, agents_alive: int) -> ResilienceReport:
        """Distil everything recorded so far into a report."""
        first = self._fault_times[0] if self._fault_times else None
        last = self._fault_times[-1] if self._fault_times else None
        baseline: Optional[float] = None
        dip_depth: Optional[float] = None
        reconverge: Optional[Time] = None
        if first is not None and self._times:
            before = [v for t, v in zip(self._times, self._values) if t < first]
            if before:
                baseline = sum(before) / len(before)
            after_first = [v for t, v in zip(self._times, self._values) if t >= first]
            if baseline is not None and after_first:
                dip_depth = max(0.0, baseline - min(after_first))
            if baseline is not None and last is not None:
                threshold = baseline * self._recovery_fraction
                for t, v in zip(self._times, self._values):
                    if t > last and v >= threshold:
                        reconverge = t - last
                        break
        return ResilienceReport(
            faults_injected=len(self._fault_times),
            first_fault_time=first,
            last_fault_time=last,
            baseline=baseline,
            dip_depth=dip_depth,
            reconverge_steps=reconverge,
            agents_total=agents_total,
            agents_alive=agents_alive,
        )
