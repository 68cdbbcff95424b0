"""The dynamic-routing world: MANET + agents + tables + metric.

Each simulated step, in order:

* the substrate advances — batteries drain, mobile nodes move, the link
  topology is recomputed, stale routing-table entries expire;
* every agent runs the paper's four phases (§III-C): (1) it looks at the
  current neighbours and decides where to go, (2) co-located *visiting*
  agents exchange best routes and histories, (3) it moves, learning the
  edge it travels, (4) it updates the routing table of the node it now
  occupies using its gateway tracks;
* the connectivity fraction is measured and recorded.

Decisions (phase 1) are all taken before any exchange or movement, so
within a step no agent sees another's same-step action — matching the
paper's simultaneous time-step semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.core.ant_agents import AntRoutingAgent
from repro.core.batch import BatchAgentEngine, batch_agents_supported
from repro.core.comms import exchange_routing_knowledge
from repro.core.migration import ABANDONED, DELIVERED, ReliableMigration
from repro.core.overhead import aggregate_overheads
from repro.core.routing_agents import RoutingAgent, make_routing_agent
from repro.core.stigmergy import StigmergyField
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.metrics import ResilienceReport, ResilienceTracker
from repro.faults.plan import FaultPlan
from repro.net.channel import ChannelConfig, ChannelModel
from repro.net.health import HealthConfig, HealthMonitor, HealthReport
from repro.net.topology import Topology
from repro.obs.collector import ObsCollector, ObsConfig, ObsReport
from repro.routing.connectivity import (
    DEFAULT_WALK_TTL,
    FunctionalConnectivity,
    connectivity_fraction,
)
from repro.core.pheromone import PheromoneField
from repro.routing.table import RouteEntry, TableBank, TableGuard
from repro.rng import SeedSpawner
from repro.sim.engine import TimeStepEngine
from repro.sim.invariants import InvariantChecker, default_invariants_enabled
from repro.traffic.plane import TrafficConfig, TrafficPlane, TrafficReport
from repro.types import NodeId, Time

__all__ = ["RoutingWorldConfig", "RoutingResult", "RoutingWorld", "run_routing"]

#: How far ahead of the clock a corrupted agent stamps its forged
#: sequence numbers — "stale-but-renumbered" knowledge that, undefended,
#: raises the per-gateway floors and blocks honest refreshes for this
#: many steps.  The table guard's future-sequence check rejects it.
_FORGED_SEQUENCE_AHEAD = 50


@dataclass(frozen=True)
class RoutingWorldConfig:
    """Agent-team and protocol parameters for one routing run."""

    agent_kind: str = "oldest-node"
    population: int = 100
    history_size: int = 10
    visiting: bool = False
    stigmergic: bool = False
    footprint_capacity: int = 16
    footprint_freshness: Optional[int] = 8
    route_ttl: Optional[int] = 150
    walk_ttl: int = DEFAULT_WALK_TTL
    total_steps: int = 300
    converged_after: Time = 150
    # --- ant (pheromone) agents only ---------------------------------
    pheromone_evaporation: float = 0.05
    ant_follow_probability: float = 0.85
    # --- fault injection ----------------------------------------------
    fault_plan: Optional[FaultPlan] = None
    # --- lossy channel -------------------------------------------------
    #: ``None`` means a lossless channel (identical to ``ChannelConfig()``).
    channel: Optional[ChannelConfig] = None
    # --- adversarial resilience -----------------------------------------
    #: ``None`` (default) attaches no health monitor — next-hop choice
    #: and custody transfer never consult quarantine state; a
    #: :class:`~repro.net.health.HealthConfig` switches the defense on.
    health: Optional[HealthConfig] = None
    #: ``None`` (default) leaves table writes unguarded; a
    #: :class:`~repro.routing.table.TableGuard` bounds how much one
    #: agent visit can move an entry (sequence + hop-delta sanity).
    table_guard: Optional[TableGuard] = None
    # --- runtime invariant checking -------------------------------------
    #: ``None`` defers to the ``REPRO_CHECK_INVARIANTS`` environment
    #: variable (tests switch it on); ``True``/``False`` force it.
    check_invariants: Optional[bool] = None
    # --- connectivity metric ---------------------------------------------
    #: serve the per-step metric from the pointer-doubling
    #: :class:`~repro.routing.connectivity.FunctionalConnectivity`
    #: evaluator (identical result, walks only routing loops);
    #: ``False`` re-walks every node every step, the reference path.
    connectivity_cache: bool = True
    # --- observability ---------------------------------------------------
    #: ``None`` (default) records nothing — the zero-overhead path;
    #: an :class:`~repro.obs.collector.ObsConfig` switches layers on.
    obs: Optional[ObsConfig] = None
    # --- data plane ------------------------------------------------------
    #: ``None`` (default) moves no payloads — bit-identical to a run
    #: without the traffic subsystem; a
    #: :class:`~repro.traffic.plane.TrafficConfig` builds the plane.
    traffic: Optional[TrafficConfig] = None
    # --- batch agent engine ----------------------------------------------
    #: drive the agent phases through the vectorized SoA engine
    #: (:class:`~repro.core.batch.BatchAgentEngine`, bit-identical to
    #: the per-object path).  ``None`` auto-enables it when the agent
    #: kind is supported and numpy is importable; ``False`` forces the
    #: per-object oracle; ``True`` demands the engine (and raises if the
    #: kind or environment cannot support it).
    batch_agents: Optional[bool] = None
    # --- sharded arena ---------------------------------------------------
    #: partition the arena into this many spatial tiles and step them as
    #: independent workers exchanging only boundary state (see
    #: :mod:`repro.shard`).  ``None`` (default) runs the serial world;
    #: the sharded world is bit-identical at any shard count.
    shards: Optional[int] = None
    #: explicit tile edge length; overrides the tile shape derived from
    #: ``shards`` (the shard count then follows from the arena size).
    tile_size: Optional[float] = None

    def __post_init__(self) -> None:
        if self.population < 1:
            raise ConfigurationError(f"population must be >= 1, got {self.population}")
        if self.history_size < 1:
            raise ConfigurationError(
                f"history_size must be >= 1, got {self.history_size}"
            )
        if self.total_steps < 1:
            raise ConfigurationError(f"total_steps must be >= 1, got {self.total_steps}")
        if not 0 <= self.converged_after <= self.total_steps:
            raise ConfigurationError(
                "converged_after must lie within the run "
                f"(0..{self.total_steps}), got {self.converged_after}"
            )
        if self.shards is not None and self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        if self.tile_size is not None and self.tile_size <= 0:
            raise ConfigurationError(
                f"tile_size must be > 0, got {self.tile_size}"
            )


@dataclass
class RoutingResult:
    """Outcome of one routing run."""

    times: List[Time] = field(default_factory=list)
    connectivity: List[float] = field(default_factory=list)
    converged_after: Time = 150
    meetings: int = 0
    overhead: Dict[str, float] = field(default_factory=dict)
    #: raw table-guard rejection count (``overhead`` is per-decision).
    guard_rejections: int = 0
    resilience: Optional[ResilienceReport] = None
    obs: Optional[ObsReport] = None
    traffic: Optional[TrafficReport] = None
    health: Optional[HealthReport] = None

    @property
    def mean_connectivity(self) -> float:
        """Paper's performance number: mean connectivity after convergence."""
        window = [
            value
            for time, value in zip(self.times, self.connectivity)
            if time >= self.converged_after
        ]
        if not window:
            return 0.0
        return sum(window) / len(window)

    @property
    def connectivity_stability(self) -> float:
        """Standard deviation of connectivity in the converged window.

        The paper reports qualitative "stability"; smaller is steadier.
        """
        window = [
            value
            for time, value in zip(self.times, self.connectivity)
            if time >= self.converged_after
        ]
        if len(window) < 2:
            return 0.0
        mean = sum(window) / len(window)
        variance = sum((value - mean) ** 2 for value in window) / (len(window) - 1)
        return variance**0.5


class RoutingWorld:
    """One seeded dynamic-routing simulation."""

    def __init__(self, topology: Topology, config: RoutingWorldConfig, seed: int) -> None:
        if not topology.gateway_ids:
            raise ConfigurationError("routing world needs at least one gateway")
        self.topology = topology
        self.config = config
        self._spawner = SeedSpawner(seed).child("routing")
        self.engine = TimeStepEngine()
        self.tables = TableBank(
            topology.node_count, ttl=config.route_ttl, guard=config.table_guard
        )
        self.field = StigmergyField(
            capacity=config.footprint_capacity,
            freshness=config.footprint_freshness,
        )
        self._gateways = set(topology.gateway_ids)
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
        self.agents: List[RoutingAgent] = self._spawn_agents()
        self.pheromone: Optional[PheromoneField] = None
        ants = [agent for agent in self.agents if isinstance(agent, AntRoutingAgent)]
        if ants:
            self.pheromone = PheromoneField(
                evaporation=config.pheromone_evaporation
            )
            for ant in ants:
                ant.pheromone = self.pheromone
        self.result = RoutingResult(converged_after=config.converged_after)
        self.injector: Optional[FaultInjector] = None
        self.resilience: Optional[ResilienceTracker] = None
        if config.fault_plan is not None:
            self.injector = FaultInjector(
                self, config.fault_plan, self._spawner.stream("faults")
            )
            self.injector.install()
            self.resilience = ResilienceTracker(
                self.engine.hooks, "connectivity_recorded", "fraction"
            )
        self.invariants: Optional[InvariantChecker] = None
        check = config.check_invariants
        if check or (check is None and default_invariants_enabled()):
            self.invariants = InvariantChecker(self)
            self.invariants.install()
        self._conn_cache: Optional[FunctionalConnectivity] = None
        if config.connectivity_cache:
            self._conn_cache = FunctionalConnectivity(
                topology, self.tables, config.walk_ttl
            )
        # Observability is strictly opt-in: with obs unset no collector
        # exists and the hot loop below takes only `is None` branches.
        self._obs: Optional[ObsCollector] = None
        self._profiler = None
        if config.obs is not None and config.obs.enabled:
            self._obs = ObsCollector(config.obs, self.engine, scenario="routing")
            self._profiler = self._obs.profiler
            self._obs_last_losses = 0
            # Churn/cache counters are cumulative at the source; push
            # per-step diffs against these snapshots.
            stats = topology.stats
            self._obs_last_topo = (stats.edges_added, stats.edges_removed)
            self._obs_last_cache = (0, 0)
        # The batch engine loads its arrays from the freshly spawned
        # agents; building it last keeps the load a pure snapshot.
        self._batch: Optional[BatchAgentEngine] = None
        use_batch = config.batch_agents
        if use_batch is None:
            use_batch = batch_agents_supported(config.agent_kind)
        if use_batch:
            self._batch = BatchAgentEngine(self)
        self.engine.add_process(self._step)
        # The data plane runs as its own process *after* the world step,
        # so payloads move over the tables the agents just wrote.  With
        # traffic unset nothing is built — the zero-overhead path.
        self.traffic: Optional[TrafficPlane] = None
        if config.traffic is not None:
            self.traffic = TrafficPlane(
                topology,
                config.traffic,
                self._spawner.child("traffic"),
                channel=self.channel,
                tables=self.tables,
                obs=self._obs,
                health=self.health,
            )
            self.traffic.install(self.engine)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _spawn_agents(self) -> List[RoutingAgent]:
        placement_rng = self._spawner.stream("placement")
        node_ids = list(self.topology.node_ids)
        kind_specific = {}
        if self.config.agent_kind == "ant":
            kind_specific["follow_probability"] = self.config.ant_follow_probability
        agents = []
        for agent_id in range(self.config.population):
            start = placement_rng.choice(node_ids)
            agents.append(
                make_routing_agent(
                    self.config.agent_kind,
                    agent_id,
                    start,
                    self._spawner.stream(f"agent:{agent_id}"),
                    history_size=self.config.history_size,
                    visiting=self.config.visiting,
                    stigmergic=self.config.stigmergic,
                    **kind_specific,
                )
            )
            # Every agent remembers where it started (starting on a
            # gateway also seeds a zero-hop track immediately).  Without
            # the uniform seed, off-gateway starters treated their own
            # start node as never-visited while gateway starters did not.
            agents[-1].stay(0, here_is_gateway=start in self._gateways)
        return agents

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------

    def _active_agents(self) -> List[RoutingAgent]:
        """Agents acting this step (faults may kill or suspend some)."""
        if self.injector is None:
            return self.agents
        return self.injector.active_agents()

    def _step(self, now: Time) -> None:
        # Profiling laps partition the step into the paper's phases; with
        # no profiler (the default) each guard is a single None check.
        profiler = self._profiler
        if profiler is not None:
            step_started = phase_started = perf_counter()
        topology = self.topology
        config = self.config
        # Substrate: motion, battery, links, route expiry, evaporation.
        topology.advance()
        self.tables.expire_all(now)
        if self.pheromone is not None:
            self.pheromone.evaporate()
        if self.health is not None:
            self.health.advance(now)
        if profiler is not None:
            phase_started = profiler.lap("decay", phase_started)
        # Agent phases 1-4 (decide / meet / move / install), via the SoA
        # batch engine or the per-object oracle — bit-identical twins.
        stepper = (
            self._batch.step_agents
            if self._batch is not None
            else self._step_agents_objects
        )
        if profiler is None:
            step_installs, __ = stepper(now, None, 0.0)
        else:
            step_installs, phase_started = stepper(now, profiler, phase_started)
        if self._obs is not None:
            self._obs.routes_installed(now, step_installs)
            losses = self.channel.stats.losses
            self._obs.channel_losses(now, losses - self._obs_last_losses)
            self._obs_last_losses = losses
            if self.health is not None:
                self._obs.health_step(
                    now,
                    self.health.quarantined_count(),
                    self.health.max_suspicion(),
                )
        # Metric.
        if self._conn_cache is not None:
            fraction = len(self._conn_cache.connected()) / topology.node_count
        else:
            fraction = connectivity_fraction(topology, self.tables, config.walk_ttl)
        if self._obs is not None:
            stats = topology.stats
            last = self._obs_last_topo
            self._obs.topology_churn(
                now,
                added=stats.edges_added - last[0],
                removed=stats.edges_removed - last[1],
            )
            self._obs_last_topo = (stats.edges_added, stats.edges_removed)
            if self._conn_cache is not None:
                cache_stats = self._conn_cache.stats
                last_cache = self._obs_last_cache
                self._obs.connectivity_cache(
                    now,
                    hits=cache_stats.hits - last_cache[0],
                    walks=cache_stats.walks - last_cache[1],
                )
                self._obs_last_cache = (cache_stats.hits, cache_stats.walks)
        self.result.times.append(now)
        self.result.connectivity.append(fraction)
        self.engine.hooks.fire("connectivity_recorded", time=now, fraction=fraction)
        if profiler is not None:
            phase_started = profiler.lap("record", phase_started)
            profiler.add("step", phase_started - step_started)

    def _step_agents_objects(
        self, now: Time, profiler, phase_started: float
    ) -> Tuple[int, float]:
        """The per-object agent phases — the batch engine's oracle twin."""
        topology = self.topology
        config = self.config
        agents = self._active_agents()
        # Phase 1: every agent decides from the *new* neighbourhood — or,
        # mid-migration, retries/waits per the reliable-hop protocol.
        decisions: List[Optional[NodeId]] = []
        footprint_due: List[bool] = []
        adjacency = topology.adjacency_view()
        for agent in agents:
            neighbors = adjacency[agent.location]
            needs_decision, forced = self._migration.resolve_intent(
                agent, now, neighbors
            )
            if needs_decision:
                if self.health is not None:
                    neighbors = self.health.filter_targets(
                        agent.location, neighbors
                    )
                decisions.append(agent.decide(neighbors, now, field=self.field))
                footprint_due.append(True)
            else:
                # Forced retry keeps the original intent; waiting out a
                # backoff yields no target.  Neither re-stamps footprints.
                decisions.append(forced)
                footprint_due.append(False)
        if profiler is not None:
            phase_started = profiler.lap("decide", phase_started)
        # Phase 2: visiting agents exchange knowledge where co-located.
        if config.visiting:
            held = exchange_routing_knowledge(agents, channel=self.channel, now=now)
            self.result.meetings += held
            if self._obs is not None:
                self._obs.meetings(now, held)
        if profiler is not None:
            phase_started = profiler.lap("meet", phase_started)
        # Phases 3 & 4: move (if the channel delivers) and install routes.
        live_gateways = {
            g for g in self._gateways if not topology.is_down(g)
        }
        moves: List[Tuple[RoutingAgent, NodeId]] = []
        for agent, target, fresh in zip(agents, decisions, footprint_due):
            if target is None:
                agent.stay(now, here_is_gateway=agent.location in live_gateways)
            else:
                if fresh:
                    agent.leave_footprint(target, now, self.field)
                moves.append((agent, target))
        step_installs = 0
        for agent, target in moves:
            # Agent hops are control-plane traffic and deliberately feed
            # no evidence into the health monitor: a gray-failed node
            # relays agents perfectly well, and counting those successes
            # would launder its reputation back above the quarantine
            # threshold while it keeps swallowing payloads.  Data-plane
            # outcomes (payload + ack) observed by the traffic routers
            # are the only suspicion signal here.
            outcome = self._migration.attempt_hop(agent, target, now)
            if outcome != DELIVERED:
                agent.stay(now, here_is_gateway=agent.location in live_gateways)
                if outcome == ABANDONED:
                    self._suspect_link(agent, target, now)
                continue
            came_from = agent.move_to(target, now, target in live_gateways)
            if self._obs is not None:
                # The routing hot loop has no other agent_moved consumer,
                # so the fire stays behind the obs guard (zero-cost off).
                self.engine.hooks.fire(
                    "agent_moved", time=now, agent=agent.agent_id, to=target
                )
            routes = agent.installable_routes(came_from)
            if not routes:
                continue  # nothing to write: the node's table stays unbuilt
            table = self.tables.table(agent.location)
            corrupted = self.injector is not None and self.injector.is_corrupted(
                agent.agent_id
            )
            rejected_before = table.guard_rejections
            for gateway, next_hop, hops, seen_at in routes:
                agent.overhead.routes_installed += 1
                step_installs += 1
                if corrupted:
                    # Forged knowledge — a sinkhole: a one-hop route
                    # pointing back where the agent came from, with a
                    # sequence stamped ahead of the clock so undefended
                    # tables prefer it and floor out honest refreshes.
                    # Pairing it with the reverse link turns the poison
                    # into forwarding loops instead of a merely-wrong
                    # hop count.
                    hops = 1
                    seen_at = now + _FORGED_SEQUENCE_AHEAD
                    if came_from is not None:
                        next_hop = came_from
                table.install(
                    RouteEntry(
                        gateway=gateway,
                        next_hop=next_hop,
                        hops=hops,
                        installed_at=now,
                        gateway_seen_at=seen_at,
                        sequence=seen_at,
                    )
                )
            agent.overhead.routes_rejected += (
                table.guard_rejections - rejected_before
            )
        if profiler is not None:
            phase_started = profiler.lap("move", phase_started)
        return step_installs, phase_started

    def _suspect_link(self, agent: RoutingAgent, target: NodeId, now: Time) -> None:
        """Turn an abandoned hop into link-quality evidence.

        ``hop_retries`` consecutive losses toward one neighbour say the
        link is effectively dead even if the topology still lists it;
        routes at the agent's node that forward through that neighbour
        are dropped so the connectivity metric stops trusting them.
        """
        dropped = self.tables.table(agent.location).drop_routes_via_next_hop(target)
        agent.overhead.routes_invalidated += dropped
        self.engine.hooks.fire(
            "link_suspected",
            time=now,
            node=agent.location,
            neighbor=target,
            dropped=dropped,
        )

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self) -> RoutingResult:
        """Run the configured number of steps; return the result."""
        steps = self.engine.run(self.config.total_steps)
        if self._batch is not None:
            # Write the SoA arrays back so the aggregation below (and any
            # caller inspecting agents) sees the complete per-object state.
            self._batch.flush()
        team_overhead = aggregate_overheads(agent.overhead for agent in self.agents)
        self.result.overhead = team_overhead.per_decision()
        self.result.guard_rejections = self.tables.total_guard_rejections()
        agents_total = agents_alive = len(self.agents)
        if self.resilience is not None and self.injector is not None:
            agents_total, agents_alive = self.injector.resilience_counts()
            self.result.resilience = self.resilience.report(agents_total, agents_alive)
        if self.traffic is not None:
            self.result.traffic = self.traffic.report()
            if self._obs is not None:
                self._obs.traffic_totals(self.result.traffic)
        if self.health is not None:
            self.result.health = self.health.report()
        if self._obs is not None:
            self.result.obs = self._obs.finalize(
                overhead=team_overhead,
                channel_stats=self.channel.stats,
                agents_total=agents_total,
                agents_alive=agents_alive,
                steps=steps,
            )
        return self.result


def run_routing(topology: Topology, config: RoutingWorldConfig, seed: int) -> RoutingResult:
    """Convenience: build a world and run it."""
    return RoutingWorld(topology, config, seed).run()
