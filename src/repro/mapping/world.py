"""The mapping world: network + agents + engine, wired per the paper.

Each simulated step (§II-B.1) every agent, in id order:

1. learns the out-edges of the node it stands on (first-hand),
2. learns everything co-located agents know (second-hand),
3. chooses its next node,
4. leaves a footprint if stigmergic,

then all moves commit *simultaneously* — the iteration order of agents
within a step can never leak information.  The run stops at the first
step where every agent knows every directed edge (the finishing time) or
at ``max_steps``.

Optional mid-run link degradation (§II-A's "degradation on a percentage
of radio links") is modelled by scheduling an event that degrades a
sample of node radios and recomputes the topology; after the event the
*current* edge set is what agents must learn, so earlier knowledge of
vanished edges does not block finishing (knowledge is measured against
the live topology).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from random import Random
from time import perf_counter
from typing import List, Optional, Tuple

from repro.core.comms import exchange_mapping_knowledge
from repro.core.knowledge import EdgeBits, EdgeIndex
from repro.core.mapping_agents import MappingAgent, make_mapping_agent
from repro.core.migration import ABANDONED, DELIVERED
from repro.errors import ConfigurationError
from repro.mapping.metrics import KnowledgeTracker
from repro.net.radio import HeterogeneousRange
from repro.net.topology import Topology
from repro.sim.engine import StopSimulation
from repro.sim.world import ScenarioConfig, ScenarioResult, ScenarioWorld
from repro.types import NodeId, Time

__all__ = ["MappingWorldConfig", "MappingResult", "MappingWorld"]


@dataclass(frozen=True)
class MappingWorldConfig(ScenarioConfig):
    """Agent-team and protocol parameters for one mapping run.

    ``traffic`` sends unicast payloads: the mapping world has no
    gateways, so ``store-and-forward`` runs as ``epidemic``.
    """

    population: int = 1
    # Marks repel for a short window only: a footprint says "someone just
    # went that way", not "that node is claimed forever".  Permanent marks
    # measurably wall off the last unexplored nodes and stall teams (see
    # the abl1 ablation); 10 steps reproduced the paper's team speed-ups.
    footprint_freshness: Optional[int] = 10
    agent_kind: str = "conscientious"
    stigmergic: bool = False
    #: probability of a uniformly random move (Minar's dispersal fix).
    epsilon: float = 0.0
    cooperation: bool = True
    max_steps: int = 50_000
    degrade_at: Optional[Time] = None
    degrade_fraction: float = 0.1
    degrade_amount: float = 0.3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_steps < 1:
            raise ConfigurationError(f"max_steps must be >= 1, got {self.max_steps}")
        if not 0.0 <= self.degrade_fraction <= 1.0:
            raise ConfigurationError(
                f"degrade_fraction must be in [0, 1], got {self.degrade_fraction}"
            )
        if not 0.0 <= self.degrade_amount < 1.0:
            raise ConfigurationError(
                f"degrade_amount must be in [0, 1), got {self.degrade_amount}"
            )
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigurationError(f"epsilon must be in [0, 1], got {self.epsilon}")


@dataclass
class MappingResult(ScenarioResult):
    """Outcome of one mapping run."""

    finishing_time: Optional[Time] = None
    steps_simulated: Time = 0
    average_knowledge: List[float] = field(default_factory=list)
    minimum_knowledge: List[float] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        """Whether every agent reached a perfect map."""
        return self.finishing_time is not None


class MappingWorld(ScenarioWorld):
    """One seeded mapping simulation."""

    scenario = "mapping"

    def __init__(self, topology: Topology, config: MappingWorldConfig, seed: int) -> None:
        self._build_substrate(topology, config, seed)
        #: The bit of every edge in every agent's knowledge: the initial
        #: edges in packed order, later ones appended as they appear.
        self.edge_index = EdgeIndex(topology.node_count, topology.packed_edges())
        self.agents: List[MappingAgent] = self._spawn_agents()
        # Sorted out-neighbours and row bits per node, for one topology
        # epoch (see _neighbor_rows).
        self._rows: List[Optional[Tuple[List[NodeId], int]]] = []
        self._rows_epoch = -1
        self.tracker = KnowledgeTracker(topology.edge_count)
        # Once the topology can mutate mid-run, completeness has to be
        # checked against the live edge set, not a simple count.
        mutable = config.degrade_at is not None or config.fault_plan is not None
        self._live_edges = self._live_edge_mask() if mutable else None
        self._build_checks("knowledge_recorded", "average")
        traffic = config.traffic
        if traffic is not None and traffic.router == "store-and-forward":
            # The mapping scenario has no routing tables for custody
            # forwarding to ride; degrade to the table-less epidemic
            # router instead of refusing the workload outright.
            traffic = dataclasses.replace(traffic, router="epidemic")
        self._start(traffic, unicast=True)
        if config.degrade_at is not None:
            self.engine.schedule_at(
                config.degrade_at, self._apply_degradation, label="degrade-links"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _make_agent(self, agent_id: int, start: NodeId, rng: Random) -> MappingAgent:
        config = self.config
        return make_mapping_agent(
            config.agent_kind,
            agent_id,
            start,
            rng,
            self.topology.node_count,
            stigmergic=config.stigmergic,
            epsilon=config.epsilon,
            index=self.edge_index,
        )

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------

    def _apply_degradation(self) -> None:
        """Degrade a sample of node radios and refresh the topology."""
        config = self.config
        rng = self._spawner.stream("degradation")
        count = int(round(config.degrade_fraction * self.topology.node_count))
        victims = rng.sample(list(self.topology.node_ids), count)
        for node_id in victims:
            radio = self.topology.node(node_id).radio
            if isinstance(radio, HeterogeneousRange):
                radio.degrade(config.degrade_amount)
        self.topology.invalidate()
        self.fault_topology_changed()

    def fault_topology_changed(self) -> None:
        """Re-baseline completeness after the topology mutated mid-run.

        The map to learn changed (degradation, crash, recovery, link
        blackout); the tracker target and the live edge set completeness
        is measured against must follow the current topology.
        """
        self.tracker.total_edges = self.topology.edge_count
        self._live_edges = self._live_edge_mask()

    def _live_edge_mask(self) -> EdgeBits:
        return EdgeBits.from_packed(self.topology.packed_edges(), self.edge_index)

    def _neighbor_rows(self) -> List[Optional[Tuple[List[NodeId], int]]]:
        """Per node, its sorted out-neighbours and their row bits, or ``None``.

        Rows are filled on first use and dropped whenever the topology's
        epoch moves (degradation, faults), so every agent observes and
        chooses from the current links.
        """
        topology = self.topology
        topology.adjacency_view()  # apply any pending refresh first
        if topology.epoch != self._rows_epoch:
            self._rows_epoch = topology.epoch
            self._rows = [None] * topology.node_count
        return self._rows

    def _fill_row(self, node: NodeId) -> Tuple[List[NodeId], int]:
        neighbors = self.topology.out_neighbors(node)
        row = self._rows[node] = (neighbors, self.edge_index.row_bits(node, neighbors))
        return row

    def _step(self, now: Time) -> None:
        # Profiling laps partition the step into the paper's phases; with
        # no profiler (the default) each guard is a single None check.
        profiler = self._profiler
        if profiler is not None:
            step_started = phase_started = perf_counter()
        agents = self._active_agents()
        if not agents:
            raise StopSimulation("all-agents-dead")
        topology = self.topology
        health = self.health
        if health is not None:
            health.advance(now)
        # Phase 1: first-hand observation.
        rows = self._neighbor_rows()
        for agent in agents:
            row = rows[agent.location]
            if row is None:
                row = self._fill_row(agent.location)
            agent.observe(row[0], now, row[1])
        if profiler is not None:
            phase_started = profiler.lap("observe", phase_started)
        # Phase 2: meetings.
        if self.config.cooperation and len(agents) > 1:
            held = exchange_mapping_knowledge(agents, channel=self.channel, now=now)
            self.meetings += held
            if self._obs is not None:
                self._obs.meetings(now, held)
        if profiler is not None:
            phase_started = profiler.lap("meet", phase_started)
        # Phases 3 & 4: choose (or retry a pending hop), footprint; moves
        # commit afterwards, each gated on the channel delivering it.  An
        # agent with no pending hop always decides afresh, so the
        # retry/backoff protocol is consulted only for the others.
        field = self.field
        moves: List[Tuple[MappingAgent, NodeId]] = []
        for agent in agents:
            neighbors = rows[agent.location][0]
            if agent.migration.target is not None:
                needs_decision, forced = self._migration.resolve_intent(
                    agent, now, neighbors
                )
                if not needs_decision:
                    if forced is not None:
                        # Retry without re-planning or re-stamping.
                        moves.append((agent, forced))
                    continue  # otherwise waiting out a backoff
            if health is not None:
                neighbors = health.filter_targets(agent.location, neighbors)
            target = agent.choose_next(neighbors, now, field=field)
            if target is None:
                continue
            agent.leave_footprint(target, now, field)
            moves.append((agent, target))
        if profiler is not None:
            phase_started = profiler.lap("decide", phase_started)
        if self.channel.hops_lossless:
            self._deliver_all(moves, now)
        else:
            self._attempt_all(moves, now)
        if profiler is not None:
            phase_started = profiler.lap("move", phase_started)
        if self._obs is not None:
            self._observe_links(now)
            stats = topology.stats
            self._obs.topology_churn(now, stats.edges_added, stats.edges_removed)
        finished = self.tracker.record(now, agents, live_edges=self._live_edges)
        hooks = self.engine.hooks
        if hooks.is_live("knowledge_recorded"):
            hooks.fire(
                "knowledge_recorded",
                time=now,
                average=self.tracker.average_knowledge[-1],
                minimum=self.tracker.minimum_knowledge[-1],
            )
        if profiler is not None:
            phase_started = profiler.lap("record", phase_started)
            profiler.add("step", phase_started - step_started)
        if finished:
            raise StopSimulation("perfect-knowledge")

    def _deliver_all(self, moves: List[Tuple[MappingAgent, NodeId]], now: Time) -> None:
        """Commit every move when no hop can be lost.

        Exactly what :meth:`ReliableMigration.attempt_hop` does for a hop
        that delivers, without the per-hop call: one attempt counted on
        the agent and on the channel, and any pending hop cleared.  The
        ``agent_moved`` payload is built only when someone receives it.
        """
        stats = self.channel.stats
        health = self.health
        hooks = self.engine.hooks
        announce = hooks.is_live("agent_moved")
        for agent, target in moves:
            agent.overhead.hops_attempted += 1
            stats.attempts += 1
            if agent.migration.target is not None:
                agent.migration.reset()
            if health is not None:
                health.observe(agent.location, target, True, now)
                # A callback of the monitor's hooks may have subscribed.
                announce = hooks.is_live("agent_moved")
            agent.move_to(target)
            if announce:
                hooks.fire("agent_moved", time=now, agent=agent.agent_id, to=target)

    def _attempt_all(self, moves: List[Tuple[MappingAgent, NodeId]], now: Time) -> None:
        """Attempt every move through the retry/backoff protocol."""
        health = self.health
        hooks = self.engine.hooks
        for agent, target in moves:
            origin = agent.location
            outcome = self._migration.attempt_hop(agent, target, now)
            if health is not None:
                health.observe(origin, target, outcome == DELIVERED, now)
            if outcome != DELIVERED:
                if outcome == ABANDONED:
                    hooks.fire(
                        "link_suspected",
                        time=now,
                        node=agent.location,
                        neighbor=target,
                        dropped=0,
                    )
                continue
            agent.move_to(target)
            if hooks.is_live("agent_moved"):
                hooks.fire("agent_moved", time=now, agent=agent.agent_id, to=target)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self) -> MappingResult:
        """Run to finishing time or ``max_steps``; return the result."""
        steps = self.engine.run(self.config.max_steps)
        return MappingResult(
            finishing_time=self.tracker.finishing_time,
            steps_simulated=steps,
            times=list(self.tracker.times),
            average_knowledge=list(self.tracker.average_knowledge),
            minimum_knowledge=list(self.tracker.minimum_knowledge),
            **self._fold_reports(steps),
        )

def run_mapping(
    topology: Topology, config: MappingWorldConfig, seed: int
) -> MappingResult:
    """Convenience: build a world and run it."""
    return MappingWorld(topology, config, seed).run()
