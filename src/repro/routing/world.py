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
from random import Random
from time import perf_counter
from typing import List, Optional, Tuple

from repro.core.ant_agents import AntRoutingAgent
from repro.core.batch import BATCH_MIN_POPULATION, BatchAgentEngine, batch_unsupported
from repro.core.comms import exchange_routing_knowledge
from repro.core.migration import ABANDONED, DELIVERED
from repro.core.pheromone import PheromoneField
from repro.core.routing_agents import (
    _FORGED_SEQUENCE_AHEAD,
    RoutingAgent,
    make_routing_agent,
)
from repro.errors import ConfigurationError
from repro.net.topology import Topology
from repro.routing.connectivity import DEFAULT_WALK_TTL, FunctionalConnectivity
from repro.routing.table import RouteEntry, TableBank, TableGuard
from repro.sim.world import ScenarioConfig, ScenarioResult, ScenarioWorld
from repro.types import NodeId, Time

__all__ = ["RoutingWorldConfig", "RoutingResult", "RoutingWorld", "run_routing"]

@dataclass(frozen=True)
class RoutingWorldConfig(ScenarioConfig):
    """Agent-team and protocol parameters for one routing run."""

    population: int = 100
    footprint_freshness: Optional[int] = 8
    agent_kind: str = "oldest-node"
    history_size: int = 10
    visiting: bool = False
    stigmergic: bool = False
    route_ttl: Optional[int] = 150
    walk_ttl: int = DEFAULT_WALK_TTL
    total_steps: int = 300
    converged_after: Time = 150
    #: ``None`` (default) leaves table writes unguarded; a
    #: :class:`~repro.routing.table.TableGuard` bounds how much one
    #: agent visit can move an entry (sequence + hop-delta sanity).
    table_guard: Optional[TableGuard] = None
    #: drive the agent phases through the vectorized SoA engine
    #: (:class:`~repro.core.batch.BatchAgentEngine`, bit-identical to
    #: the per-object path).  ``None`` enables it on the configuration
    #: it models (see :func:`~repro.core.batch.batch_unsupported`) for
    #: teams of at least :data:`~repro.core.batch.BATCH_MIN_POPULATION`
    #: agents; ``False`` forces the per-object oracle; ``True`` demands
    #: the engine and raises :class:`ConfigurationError` naming any
    #: feature it does not model.
    batch_agents: Optional[bool] = None
    #: partition the arena into this many spatial tiles and step them as
    #: independent workers exchanging only boundary state (see
    #: :mod:`repro.shard`).  ``None`` (default) runs the serial world;
    #: the sharded world is bit-identical at any shard count.
    shards: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.history_size < 1:
            raise ConfigurationError(
                f"history_size must be >= 1, got {self.history_size}"
            )
        if self.route_ttl is not None and self.route_ttl < 1:
            raise ConfigurationError(
                f"route_ttl must be >= 1 or None, got {self.route_ttl}"
            )
        if self.walk_ttl < 1:
            raise ConfigurationError(f"walk_ttl must be >= 1, got {self.walk_ttl}")
        if self.total_steps < 1:
            raise ConfigurationError(f"total_steps must be >= 1, got {self.total_steps}")
        if not 0 <= self.converged_after <= self.total_steps:
            raise ConfigurationError(
                "converged_after must lie within the run "
                f"(0..{self.total_steps}), got {self.converged_after}"
            )
        if self.shards is not None and self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")


@dataclass
class RoutingResult(ScenarioResult):
    """Outcome of one routing run."""

    connectivity: List[float] = field(default_factory=list)
    converged_after: Time = 150
    #: raw table-guard rejection count (``overhead`` is per-decision).
    guard_rejections: int = 0

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


class RoutingWorld(ScenarioWorld):
    """One seeded dynamic-routing simulation."""

    scenario = "routing"

    def __init__(self, topology: Topology, config: RoutingWorldConfig, seed: int) -> None:
        if not topology.gateway_ids:
            raise ConfigurationError("routing world needs at least one gateway")
        self._build_substrate(topology, config, seed)
        self.tables = TableBank(
            topology.node_count, ttl=config.route_ttl, guard=config.table_guard
        )
        self._gateways = set(topology.gateway_ids)
        self.agents: List[RoutingAgent] = self._spawn_agents()
        self.pheromone: Optional[PheromoneField] = None
        ants = [agent for agent in self.agents if isinstance(agent, AntRoutingAgent)]
        if ants:
            self.pheromone = PheromoneField()
            for ant in ants:
                ant.pheromone = self.pheromone
        self.result = RoutingResult(converged_after=config.converged_after)
        self._build_checks("connectivity_recorded", "fraction")
        self._connectivity = FunctionalConnectivity(topology, self.tables, config.walk_ttl)
        # The batch engine loads its arrays from the freshly spawned
        # agents; building it last keeps the load a pure snapshot.
        self._batch: Optional[BatchAgentEngine] = None
        use_batch = config.batch_agents
        if use_batch is None:
            use_batch = (
                config.population >= BATCH_MIN_POPULATION
                and batch_unsupported(config) is None
            )
        if use_batch:
            self._batch = BatchAgentEngine(self)
        self._start(config.traffic, tables=self.tables)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _make_agent(self, agent_id: int, start: NodeId, rng: Random) -> RoutingAgent:
        config = self.config
        agent = make_routing_agent(
            config.agent_kind,
            agent_id,
            start,
            rng,
            history_size=config.history_size,
            visiting=config.visiting,
            stigmergic=config.stigmergic,
        )
        # Every agent remembers where it started (starting on a gateway
        # also seeds a zero-hop track immediately).  Without the uniform
        # seed, off-gateway starters treated their own start node as
        # never-visited while gateway starters did not.
        agent.stay(0, here_is_gateway=start in self._gateways)
        return agent

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------

    def _step(self, now: Time) -> None:
        # Profiling laps partition the step into the paper's phases; with
        # no profiler (the default) each guard is a single None check.
        profiler = self._profiler
        if profiler is not None:
            step_started = phase_started = perf_counter()
        topology = self.topology
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
            self._observe_links(now)
        # Metric.
        fraction = len(self._connectivity.connected()) / topology.node_count
        if self._obs is not None:
            stats = topology.stats
            self._obs.topology_churn(now, stats.edges_added, stats.edges_removed)
            cache_stats = self._connectivity.stats
            self._obs.connectivity_cache(now, cache_stats.hits, cache_stats.walks)
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
            self.meetings += held
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
        hooks = self.engine.hooks
        announce = hooks.is_live("agent_moved")
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
            if announce:
                hooks.fire("agent_moved", time=now, agent=agent.agent_id, to=target)
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
        for name, value in self._fold_reports(steps).items():
            setattr(self.result, name, value)
        self.result.guard_rejections = self.tables.total_guard_rejections()
        return self.result


def run_routing(topology: Topology, config: RoutingWorldConfig, seed: int) -> RoutingResult:
    """Convenience: build a world and run it."""
    return RoutingWorld(topology, config, seed).run()
