"""Per-run observability: configuration, collection, and the report.

:class:`ObsConfig` is the *declarative* switchboard — frozen, hashable,
picklable — that rides inside the (also frozen) world configs across
``multiprocessing`` workers.  When any of its flags is on, a world
builds one :class:`ObsCollector`, which

* subscribes to the world's hooks (``agent_moved``,
  ``knowledge_recorded`` / ``connectivity_recorded``,
  ``fault_injected``, ``link_suspected``) to feed counters, rings, a
  histogram, and the event stream,
* receives per-step aggregates the worlds push only when a collector
  exists (meetings held, routes installed; channel losses, edge flips
  and connectivity hits/walks as cumulative totals it differences), and
* owns the :class:`~repro.obs.profiler.PhaseProfiler` the engine, hook
  registry, and world phases lap into.

**Zero-overhead contract**: with ``obs=None`` (the default) no collector
is built, no hook is subscribed, no event or metric object is ever
allocated, and no RNG is touched — results are bit-identical to a run
without the subsystem, which the integration tests enforce.

At run end :meth:`ObsCollector.finalize` folds in the whole-run totals —
team overhead counters, channel delivery stats, fault/agent survival —
and returns a picklable, JSON-safe :class:`ObsReport` that the
experiment runner merges across runs and workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import PhaseProfiler
from repro.types import Time

__all__ = ["ObsConfig", "ObsCollector", "ObsReport", "OBS_REPORT_SCHEMA"]

#: bumped when the per-run report layout changes incompatibly.
OBS_REPORT_SCHEMA = 1

#: cap on events retained per run (excess counted as dropped).
MAX_EVENTS = 100_000

#: connectivity / knowledge are fractions; ten equal buckets plus overflow.
_FRACTION_BOUNDS = tuple(round(0.1 * i, 1) for i in range(1, 11))


@dataclass(frozen=True)
class ObsConfig:
    """Which observability layers a run records.

    Defaults to everything off; the CLI's ``--metrics-out`` /
    ``--trace-out`` / ``--profile`` flags switch the layers on through
    the ``obs`` field of :class:`repro.experiments.runner.RunDefaults`.
    """

    #: record counters / gauges / histograms / step rings.
    metrics: bool = False
    #: record the structured event stream.
    events: bool = False
    #: record wall-time per engine phase and hook fire.
    profile: bool = False

    @property
    def enabled(self) -> bool:
        """Whether any layer is on (off ⇒ worlds build no collector)."""
        return self.metrics or self.events or self.profile


@dataclass
class ObsReport:
    """The per-run observability outcome (picklable, JSON-safe fields)."""

    schema: int = OBS_REPORT_SCHEMA
    #: :meth:`MetricsRegistry.snapshot` output, or ``None``.
    metrics: Optional[dict] = None
    #: event dicts (``time``/``kind``/``payload``) in order, or ``None``.
    events: Optional[List[dict]] = None
    #: events beyond the cap (only with ``events`` on).
    events_dropped: int = 0
    #: :meth:`PhaseProfiler.as_dict` output, or ``None``.
    profile: Optional[dict] = None


class ObsCollector:
    """Feeds one run's metrics, events, and profile from world hooks."""

    def __init__(
        self,
        config: ObsConfig,
        engine: Any,
        scenario: str,
        edge_totals: Tuple[int, int] = (0, 0),
    ) -> None:
        self.config = config
        self.scenario = scenario
        # The world pushes cumulative totals; each push records the
        # difference from the previous one.  ``edge_totals`` are the
        # topology's (added, removed) counters when the world was built.
        self._last_losses = 0
        self._last_edges = edge_totals
        self._last_cache = (0, 0)
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if config.metrics else None
        )
        #: event dicts in emission order (``None`` with events off); the
        #: ones beyond :data:`MAX_EVENTS` are only counted.
        self.events: Optional[List[dict]] = [] if config.events else None
        self.events_dropped = 0
        self.profiler: Optional[PhaseProfiler] = (
            PhaseProfiler() if config.profile else None
        )
        if self.profiler is not None:
            engine.profiler = self.profiler
            engine.hooks.set_profiler(self.profiler)
        metric = "knowledge" if scenario == "mapping" else "connectivity"
        self._metric_name = metric
        if self.metrics is not None:
            self.metrics.ring(f"{metric}.series")
            self.metrics.histogram(f"{metric}.histogram", _FRACTION_BOUNDS)
        hooks = engine.hooks
        hooks.subscribe("agent_moved", self._on_agent_moved)
        hooks.subscribe("fault_injected", self._on_fault)
        hooks.subscribe("link_suspected", self._on_link_suspected)
        hooks.subscribe("neighbor_quarantined", self._on_quarantined)
        hooks.subscribe("neighbor_rehabilitated", self._on_rehabilitated)
        if scenario == "mapping":
            hooks.subscribe("knowledge_recorded", self._on_knowledge)
        else:
            hooks.subscribe("connectivity_recorded", self._on_connectivity)

    def _emit(self, time: Time, kind: str, /, **payload: Any) -> None:
        """Append one event (no-op with events off).

        ``time`` and ``kind`` are positional-only, so a payload may carry
        its own ``kind`` (a ``fault_injected`` event names the fault's).
        """
        if self.events is None:
            return
        if len(self.events) >= MAX_EVENTS:
            self.events_dropped += 1
            return
        self.events.append({"time": time, "kind": kind, "payload": payload})

    # -- hook subscribers ----------------------------------------------

    def _on_agent_moved(self, *, time: Time, agent: int, to: Any) -> None:
        if self.metrics is not None:
            self.metrics.inc("agents.hops")
        self._emit(time, "agent_moved", agent=agent, to=to)

    def _on_fault(self, *, time: Time, kind: str, target: Any, applied: bool) -> None:
        if self.metrics is not None:
            self.metrics.inc("faults.injected")
            self.metrics.inc(f"faults.kind.{kind}")
        self._emit(
            time, "fault_injected", kind=kind, target=list(target), applied=applied
        )

    def _on_link_suspected(
        self, *, time: Time, node: Any, neighbor: Any, dropped: int
    ) -> None:
        if self.metrics is not None:
            self.metrics.inc("links.suspected")
            self.metrics.inc("routes.invalidated", dropped)
        self._emit(
            time, "link_suspected", node=node, neighbor=neighbor, dropped=dropped
        )

    def _on_quarantined(
        self, *, time: Time, node: Any, neighbor: Any, quality: float
    ) -> None:
        if self.metrics is not None:
            self.metrics.inc("health.quarantines")
        self._emit(
            time, "neighbor_quarantined", node=node, neighbor=neighbor, quality=quality
        )

    def _on_rehabilitated(
        self, *, time: Time, node: Any, neighbor: Any, quality: float
    ) -> None:
        if self.metrics is not None:
            self.metrics.inc("health.rehabilitations")
        self._emit(
            time,
            "neighbor_rehabilitated",
            node=node,
            neighbor=neighbor,
            quality=quality,
        )

    def _record_metric(self, time: Time, value: float) -> None:
        if self.metrics is not None:
            name = self._metric_name
            self.metrics.ring_record(f"{name}.series", time, value)
            self.metrics.observe(f"{name}.histogram", value)

    def _on_knowledge(self, *, time: Time, average: float, minimum: float) -> None:
        self._record_metric(time, average)
        self._emit(time, "knowledge", average=average, minimum=minimum)

    def _on_connectivity(self, *, time: Time, fraction: float) -> None:
        self._record_metric(time, fraction)
        self._emit(time, "connectivity", fraction=fraction)

    # -- world-pushed aggregates (called only when a collector exists) --

    def meetings(self, time: Time, count: int) -> None:
        """Record meetings held this step (no-op for zero)."""
        if count <= 0:
            return
        if self.metrics is not None:
            self.metrics.inc("meetings.held", count)
        self._emit(time, "meetings", count=count)

    def routes_installed(self, time: Time, count: int) -> None:
        """Record route-table installs committed this step."""
        if count <= 0:
            return
        if self.metrics is not None:
            self.metrics.inc("routes.installed", count)
        self._emit(time, "routes_installed", count=count)

    def channel_losses(self, time: Time, total: int) -> None:
        """Record the transfers dropped since the last push, given the
        channel's cumulative loss count."""
        count = total - self._last_losses
        self._last_losses = total
        if count <= 0:
            return
        if self.metrics is not None:
            self.metrics.inc("channel.step_losses", count)
        self._emit(time, "channel_loss", count=count)

    def traffic_step(
        self,
        time: Time,
        generated: int,
        delivered: int,
        buffered: int,
        in_flight: int,
    ) -> None:
        """Record the data plane's per-step queue-occupancy levels."""
        if self.metrics is not None:
            self.metrics.ring_record("traffic.buffered.series", time, buffered)
        self._emit(
            time,
            "traffic",
            generated=generated,
            delivered=delivered,
            buffered=buffered,
            in_flight=in_flight,
        )

    def health_step(
        self, time: Time, quarantined: int, suspicion: float
    ) -> None:
        """Record the health monitor's per-step quarantine/suspicion view."""
        if self.metrics is not None:
            self.metrics.ring_record("health.quarantined.series", time, quarantined)
            self.metrics.ring_record("health.suspicion.series", time, suspicion)
        self._emit(time, "health", quarantined=quarantined, suspicion=suspicion)

    def traffic_totals(self, report: Any) -> None:
        """Fold a run's final :class:`~repro.traffic.plane.TrafficReport`.

        Called once before :meth:`finalize` when the world ran a data
        plane; everything lands under ``traffic.*`` counters so the
        merged experiment view carries delivery/latency/backpressure
        numbers alongside overhead and channel stats.
        """
        if self.metrics is None:
            return
        registry = self.metrics
        registry.inc("traffic.generated", report.generated)
        registry.inc("traffic.delivered", report.delivered)
        registry.inc("traffic.expired", report.expired)
        registry.inc("traffic.dropped", report.dropped)
        registry.inc("traffic.in_flight", report.in_flight)
        registry.inc("traffic.buffered", report.buffered)
        for bound, count in zip(report.latency_bounds, report.latency_counts):
            registry.inc(f"traffic.latency.le_{bound}", count)
        registry.inc("traffic.latency.overflow", report.latency_counts[-1])
        for name, value in sorted(report.counters.items()):
            registry.inc(f"traffic.{name}", value)
        for name, value in sorted(report.queues.items()):
            registry.inc(f"traffic.queue.{name}", value)

    def topology_churn(self, time: Time, added_total: int, removed_total: int) -> None:
        """Record the edge flips since the last push, given the topology's
        cumulative added and removed counts."""
        added = added_total - self._last_edges[0]
        removed = removed_total - self._last_edges[1]
        self._last_edges = (added_total, removed_total)
        if added <= 0 and removed <= 0:
            return
        if self.metrics is not None:
            registry = self.metrics
            if added > 0:
                registry.inc("topology.edges_added", added)
            if removed > 0:
                registry.inc("topology.edges_removed", removed)
        self._emit(time, "topology_delta", added=added, removed=removed)

    def connectivity_cache(self, time: Time, hits_total: int, walks_total: int) -> None:
        """Record how the connectivity metric resolved its starts since the
        last push, given its cumulative hit and walk counts."""
        hits = hits_total - self._last_cache[0]
        walks = walks_total - self._last_cache[1]
        self._last_cache = (hits_total, walks_total)
        if hits <= 0 and walks <= 0:
            return
        if self.metrics is not None:
            registry = self.metrics
            if hits > 0:
                registry.inc("connectivity.cache_hits", hits)
            if walks > 0:
                registry.inc("connectivity.cache_walks", walks)
        self._emit(time, "connectivity_cache", hits=hits, walks=walks)

    # -- finalization ---------------------------------------------------

    def finalize(
        self,
        overhead: Any,
        channel_stats: Any,
        agents_total: int,
        agents_alive: int,
        steps: Time,
    ) -> ObsReport:
        """Fold whole-run totals into the registry; return the report.

        ``overhead`` is the team :class:`~repro.core.overhead.OverheadMeter`;
        its counters land under ``overhead.*`` so one metrics JSON
        carries agent overhead, fault, and channel numbers together.
        """
        metrics_snapshot = None
        if self.metrics is not None:
            registry = self.metrics
            for name, value in overhead.as_dict().items():
                registry.inc(f"overhead.{name}", value)
            registry.inc("channel.attempts", channel_stats.attempts)
            registry.inc("channel.losses", channel_stats.losses)
            for kind, count in sorted(channel_stats.losses_by_kind.items()):
                registry.inc(f"channel.losses.{kind}", count)
            registry.gauge_set("agents.total", agents_total)
            registry.gauge_set("agents.alive", agents_alive)
            registry.gauge_set("steps.simulated", steps)
            registry.inc("runs", 1)
            metrics_snapshot = registry.snapshot()
        profile = self.profiler.as_dict() if self.profiler is not None else None
        return ObsReport(
            metrics=metrics_snapshot,
            events=self.events,
            events_dropped=self.events_dropped,
            profile=profile,
        )
