"""The scaffolding the mapping and routing worlds share.

The paper runs two scenarios around the same agent-step skeleton:
mapping (§II-B) and dynamic routing (§III-C).  Everything around that
skeleton is built the same way in both, and lives here:

* the substrate — the seed spawner, the engine, the stigmergy field,
  the channel with reliable migration, and the optional health monitor;
* the checks — fault injection with its resilience tracker, runtime
  invariant checking, and the observability collector;
* the data plane, registered after the world's own step process;
* the end-of-run fold of meetings, overhead, resilience, traffic,
  health and obs reports;
* the config fields and result fields both scenarios carry
  (:class:`ScenarioConfig`, :class:`ScenarioResult`).

A subclass calls these in order around its own agents, metric and step.
Hooks are subscribed in a fixed order — injector, resilience tracker,
invariants, obs collector, the world step, then the traffic plane — and
every stream is keyed by a name under the scenario's own spawner child,
so the order of construction never changes a seeded outcome.

This module is not re-exported from :mod:`repro.sim`: importing the
engine package must not pull in faults, obs and traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.migration import ReliableMigration
from repro.core.overhead import aggregate_overheads
from repro.core.stigmergy import StigmergyField
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.metrics import ResilienceReport, ResilienceTracker
from repro.faults.plan import FaultPlan
from repro.net.channel import ChannelConfig, ChannelModel
from repro.net.health import HealthConfig, HealthMonitor, HealthReport
from repro.net.topology import Topology
from repro.obs.collector import ObsCollector, ObsConfig, ObsReport
from repro.rng import SeedSpawner
from repro.sim.engine import TimeStepEngine
from repro.sim.invariants import InvariantChecker, default_invariants_enabled
from repro.traffic.plane import TrafficConfig, TrafficPlane, TrafficReport
from repro.types import Time

__all__ = ["ScenarioConfig", "ScenarioResult", "ScenarioWorld"]


@dataclass(frozen=True)
class ScenarioConfig:
    """The config fields both scenarios carry.

    Base of :class:`~repro.mapping.world.MappingWorldConfig` and
    :class:`~repro.routing.world.RoutingWorldConfig`, which each give
    ``population`` and ``footprint_freshness`` their own default.
    """

    #: agents in the team.
    population: int
    #: steps a footprint stays fresh (``None``: marks never fade).
    footprint_freshness: Optional[int]
    fault_plan: Optional[FaultPlan] = None
    #: ``None`` means a lossless channel (identical to ``ChannelConfig()``).
    channel: Optional[ChannelConfig] = None
    #: ``None`` (default) attaches no health monitor — next-hop choice
    #: and custody transfer never consult quarantine state; a
    #: :class:`~repro.net.health.HealthConfig` switches the defense on.
    health: Optional[HealthConfig] = None
    #: ``None`` defers to the ``REPRO_CHECK_INVARIANTS`` environment
    #: variable (tests switch it on); ``True``/``False`` force it.
    check_invariants: Optional[bool] = None
    #: ``None`` (default) records nothing — the zero-overhead path;
    #: an :class:`~repro.obs.collector.ObsConfig` switches layers on.
    obs: Optional[ObsConfig] = None
    #: ``None`` (default) moves no payloads — bit-identical to a run
    #: without the traffic subsystem; a
    #: :class:`~repro.traffic.plane.TrafficConfig` builds the plane.
    traffic: Optional[TrafficConfig] = None

    def __post_init__(self) -> None:
        if self.population < 1:
            raise ConfigurationError(f"population must be >= 1, got {self.population}")


@dataclass
class ScenarioResult:
    """The result fields both scenarios report.

    Base of :class:`~repro.mapping.world.MappingResult` and
    :class:`~repro.routing.world.RoutingResult`; every field but
    ``times`` is filled by :meth:`ScenarioWorld._fold_reports`.
    """

    #: the step of each recorded metric value.
    times: List[Time] = field(default_factory=list)
    #: co-located knowledge exchanges held over the run.
    meetings: int = 0
    #: team overhead per decision.
    overhead: Dict[str, float] = field(default_factory=dict)
    resilience: Optional[ResilienceReport] = None
    obs: Optional[ObsReport] = None
    traffic: Optional[TrafficReport] = None
    health: Optional[HealthReport] = None


class ScenarioWorld:
    """Base of :class:`~repro.mapping.world.MappingWorld` and
    :class:`~repro.routing.world.RoutingWorld`.

    Subclasses name their ``scenario`` and define ``_make_agent`` and
    ``_step``; their configs are :class:`ScenarioConfig` subclasses, and
    their ``_step`` adds the meetings it holds to ``meetings``.
    """

    #: ``"mapping"`` or ``"routing"``: the spawner child every seeded
    #: stream of the world derives from, and the obs collector's metric.
    scenario: str
    agents: List[Any]

    def _build_substrate(self, topology: Topology, config: ScenarioConfig, seed: int) -> None:
        """Spawner, engine, field, channel, migration and health monitor."""
        self.topology = topology
        self.config = config
        self.meetings = 0
        self._spawner = SeedSpawner(seed).child(self.scenario)
        self.engine = TimeStepEngine()
        self.field = StigmergyField(freshness=config.footprint_freshness)
        self.channel = ChannelModel(
            topology,
            config.channel if config.channel is not None else ChannelConfig(),
            self._spawner.seed_for("channel"),
        )
        self._migration = ReliableMigration(self.channel)
        # Health monitoring is strictly opt-in: with health unset nothing
        # is built and the hot loop takes only `is None` branches.
        self.health: Optional[HealthMonitor] = None
        if config.health is not None:
            self.health = HealthMonitor(config.health, self.engine.hooks)

    def _build_checks(self, metric_hook: str, metric_field: str) -> None:
        """Fault injector, resilience tracker, invariants and obs collector.

        Built after the agents: the injector and the checker read them.
        ``metric_hook`` is the hook the world fires with its per-step
        metric under the keyword ``metric_field``.
        """
        config = self.config
        self.injector: Optional[FaultInjector] = None
        self.resilience: Optional[ResilienceTracker] = None
        if config.fault_plan is not None:
            self.injector = FaultInjector(
                self, config.fault_plan, self._spawner.stream("faults")
            )
            self.injector.install()
            self.resilience = ResilienceTracker(
                self.engine.hooks, metric_hook, metric_field
            )
        self.invariants: Optional[InvariantChecker] = None
        check = config.check_invariants
        if check or (check is None and default_invariants_enabled()):
            self.invariants = InvariantChecker(self)
            self.invariants.install()
        # Observability is strictly opt-in: with obs unset no collector
        # exists and the hot loop takes only `is None` branches.
        self._obs: Optional[ObsCollector] = None
        self._profiler = None
        if config.obs is not None and config.obs.enabled:
            # A cached static topology carries its churn counters from
            # earlier runs; the collector reports only this run's share.
            stats = self.topology.stats
            self._obs = ObsCollector(
                config.obs,
                self.engine,
                scenario=self.scenario,
                edge_totals=(stats.edges_added, stats.edges_removed),
            )
            self._profiler = self._obs.profiler

    def _start(
        self, traffic: Optional[TrafficConfig], tables: Any = None, unicast: bool = False
    ) -> None:
        """Register the world step, then the data plane after it.

        The plane runs as its own process *after* the world step, so
        payloads move over the state the agents just wrote.  With
        ``traffic`` unset nothing is built — the zero-overhead path.
        """
        self.engine.add_process(self._step)
        self.traffic: Optional[TrafficPlane] = None
        if traffic is not None:
            self.traffic = TrafficPlane(
                self.topology,
                traffic,
                self._spawner.child("traffic"),
                channel=self.channel,
                tables=tables,
                obs=self._obs,
                unicast=unicast,
                health=self.health,
            )
            self.traffic.install(self.engine)

    def _spawn_agents(self) -> List[Any]:
        """``config.population`` agents, each placed on a node drawn from
        the ``placement`` stream and given its own ``agent:{id}`` stream."""
        placement = self._spawner.stream("placement")
        node_ids = list(self.topology.node_ids)
        return [
            self._make_agent(
                agent_id, placement.choice(node_ids), self._spawner.stream(f"agent:{agent_id}")
            )
            for agent_id in range(self.config.population)
        ]

    def _active_agents(self) -> List[Any]:
        """Agents acting this step (faults may kill or suspend some)."""
        if self.injector is None:
            return self.agents
        return self.injector.active_agents()

    def _observe_links(self, now: Time) -> None:
        """Push this step's channel losses and health view (obs on only)."""
        self._obs.channel_losses(now, self.channel.stats.losses)
        if self.health is not None:
            self._obs.health_step(
                now, self.health.quarantined_count(), self.health.max_suspicion()
            )

    def _fold_reports(self, steps: Time) -> Dict[str, Any]:
        """The end-of-run reports both results carry, by result field.

        Meetings held, team overhead per decision, and the resilience,
        traffic, health and obs reports of whichever subsystems were
        built (``None`` for the others).
        """
        team_overhead = aggregate_overheads(agent.overhead for agent in self.agents)
        agents_total = agents_alive = len(self.agents)
        resilience = None
        if self.injector is not None:
            agents_total, agents_alive = self.injector.resilience_counts()
            resilience = self.resilience.report(agents_total, agents_alive)
        traffic = None
        if self.traffic is not None:
            traffic = self.traffic.report()
            if self._obs is not None:
                self._obs.traffic_totals(traffic)
        obs = None
        if self._obs is not None:
            obs = self._obs.finalize(
                overhead=team_overhead,
                channel_stats=self.channel.stats,
                agents_total=agents_total,
                agents_alive=agents_alive,
                steps=steps,
            )
        return {
            "meetings": self.meetings,
            "overhead": team_overhead.per_decision(),
            "resilience": resilience,
            "traffic": traffic,
            "health": self.health.report() if self.health is not None else None,
            "obs": obs,
        }
