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
  exists (meetings held, routes installed, channel losses), and
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

from repro.obs.events import EventBus, MemorySink
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import PhaseProfiler
from repro.types import Time

__all__ = ["ObsConfig", "ObsCollector", "ObsReport", "OBS_REPORT_SCHEMA"]

#: bumped when the per-run report layout changes incompatibly.
OBS_REPORT_SCHEMA = 1

#: default cap on events retained per run (excess counted as dropped).
DEFAULT_MAX_EVENTS = 100_000

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
    #: restrict the event stream to these kinds (``None`` = all).
    event_kinds: Optional[Tuple[str, ...]] = None
    #: per-run cap on retained events.
    max_events: int = DEFAULT_MAX_EVENTS
    #: capacity of the per-step time-series rings.
    ring_capacity: int = 512

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

    def to_dict(self) -> dict:
        """The JSON-safe form (checkpoint journal entry)."""
        return {
            "schema": self.schema,
            "metrics": self.metrics,
            "events": self.events,
            "events_dropped": self.events_dropped,
            "profile": self.profile,
        }

    @staticmethod
    def from_dict(payload: Optional[dict]) -> Optional["ObsReport"]:
        """Rebuild a report from :meth:`to_dict` output (``None`` safe)."""
        if payload is None:
            return None
        return ObsReport(
            schema=payload.get("schema", OBS_REPORT_SCHEMA),
            metrics=payload.get("metrics"),
            events=payload.get("events"),
            events_dropped=payload.get("events_dropped", 0),
            profile=payload.get("profile"),
        )


class ObsCollector:
    """Feeds one run's metrics, events, and profile from world hooks."""

    def __init__(self, config: ObsConfig, engine: Any, scenario: str) -> None:
        self.config = config
        self.scenario = scenario
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if config.metrics else None
        )
        self._sink: Optional[MemorySink] = None
        self._bus: Optional[EventBus] = None
        if config.events:
            self._sink = MemorySink(max_events=config.max_events)
            self._bus = EventBus([self._sink], kinds=config.event_kinds)
        self.profiler: Optional[PhaseProfiler] = (
            PhaseProfiler() if config.profile else None
        )
        if self.profiler is not None:
            engine.profiler = self.profiler
            engine.hooks.set_profiler(self.profiler)
        metric = "knowledge" if scenario == "mapping" else "connectivity"
        self._metric_name = metric
        if self.metrics is not None:
            self.metrics.ring(f"{metric}.series", config.ring_capacity)
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

    # -- hook subscribers ----------------------------------------------

    def _on_agent_moved(self, *, time: Time, agent: int, to: Any) -> None:
        if self.metrics is not None:
            self.metrics.inc("agents.hops")
        if self._bus is not None:
            self._bus.emit(time, "agent_moved", agent=agent, to=to)

    def _on_fault(self, *, time: Time, kind: str, target: Any, applied: bool) -> None:
        if self.metrics is not None:
            self.metrics.inc("faults.injected")
            self.metrics.inc(f"faults.kind.{kind}")
        if self._bus is not None:
            self._bus.emit(
                time, "fault_injected", kind=kind, target=list(target), applied=applied
            )

    def _on_link_suspected(
        self, *, time: Time, node: Any, neighbor: Any, dropped: int
    ) -> None:
        if self.metrics is not None:
            self.metrics.inc("links.suspected")
            self.metrics.inc("routes.invalidated", dropped)
        if self._bus is not None:
            self._bus.emit(
                time, "link_suspected", node=node, neighbor=neighbor, dropped=dropped
            )

    def _on_quarantined(
        self, *, time: Time, node: Any, neighbor: Any, quality: float
    ) -> None:
        if self.metrics is not None:
            self.metrics.inc("health.quarantines")
        if self._bus is not None:
            self._bus.emit(
                time,
                "neighbor_quarantined",
                node=node,
                neighbor=neighbor,
                quality=quality,
            )

    def _on_rehabilitated(
        self, *, time: Time, node: Any, neighbor: Any, quality: float
    ) -> None:
        if self.metrics is not None:
            self.metrics.inc("health.rehabilitations")
        if self._bus is not None:
            self._bus.emit(
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
        if self._bus is not None:
            self._bus.emit(time, "knowledge", average=average, minimum=minimum)

    def _on_connectivity(self, *, time: Time, fraction: float) -> None:
        self._record_metric(time, fraction)
        if self._bus is not None:
            self._bus.emit(time, "connectivity", fraction=fraction)

    # -- world-pushed aggregates (called only when a collector exists) --

    def meetings(self, time: Time, count: int) -> None:
        """Record meetings held this step (no-op for zero)."""
        if count <= 0:
            return
        if self.metrics is not None:
            self.metrics.inc("meetings.held", count)
        if self._bus is not None:
            self._bus.emit(time, "meetings", count=count)

    def routes_installed(self, time: Time, count: int) -> None:
        """Record route-table installs committed this step."""
        if count <= 0:
            return
        if self.metrics is not None:
            self.metrics.inc("routes.installed", count)
        if self._bus is not None:
            self._bus.emit(time, "routes_installed", count=count)

    def channel_losses(self, time: Time, count: int) -> None:
        """Record channel-dropped transfers observed this step."""
        if count <= 0:
            return
        if self.metrics is not None:
            self.metrics.inc("channel.step_losses", count)
        if self._bus is not None:
            self._bus.emit(time, "channel_loss", count=count)

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
            self.metrics.ring(
                "traffic.buffered.series", self.config.ring_capacity
            )
            self.metrics.ring_record("traffic.buffered.series", time, buffered)
        if self._bus is not None:
            self._bus.emit(
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
            registry = self.metrics
            registry.ring("health.quarantined.series", self.config.ring_capacity)
            registry.ring_record("health.quarantined.series", time, quarantined)
            registry.ring("health.suspicion.series", self.config.ring_capacity)
            registry.ring_record("health.suspicion.series", time, suspicion)
        if self._bus is not None:
            self._bus.emit(
                time, "health", quarantined=quarantined, suspicion=suspicion
            )

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

    def topology_churn(self, time: Time, added: int, removed: int) -> None:
        """Record the topology engine's edge flips this step."""
        if added <= 0 and removed <= 0:
            return
        if self.metrics is not None:
            registry = self.metrics
            if added > 0:
                registry.inc("topology.edges_added", added)
            if removed > 0:
                registry.inc("topology.edges_removed", removed)
        if self._bus is not None:
            self._bus.emit(time, "topology_delta", added=added, removed=removed)

    def connectivity_cache(self, time: Time, hits: int, walks: int) -> None:
        """Record how the connectivity metric resolved this step's starts."""
        if hits <= 0 and walks <= 0:
            return
        if self.metrics is not None:
            registry = self.metrics
            if hits > 0:
                registry.inc("connectivity.cache_hits", hits)
            if walks > 0:
                registry.inc("connectivity.cache_walks", walks)
        if self._bus is not None:
            self._bus.emit(time, "connectivity_cache", hits=hits, walks=walks)

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
        events = None
        dropped = 0
        if self._sink is not None:
            events = [event.to_dict() for event in self._sink.events]
            dropped = self._sink.dropped
        profile = self.profiler.as_dict() if self.profiler is not None else None
        return ObsReport(
            metrics=metrics_snapshot,
            events=events,
            events_dropped=dropped,
            profile=profile,
        )
