"""The sharded routing world: tile workers + a thin global coordinator.

:class:`ShardedRoutingWorld` steps ``config.shards`` spatial tiles
(each a :class:`~repro.shard.worker.TileWorker`) through the serial
world's per-step phases, exchanging only boundary state between
rounds.  The tiles run in the coordinator's process over one shared
topology, each recomputing adjacency over its own halo with the serial
link kernel.  The coordinator holds no arena state of its own: it
routes hand-over and agent-transfer payloads between tiles, merges the
per-tile edge deltas into a mirror of the global adjacency, and
replays every table write of the step onto a replica
:class:`~repro.routing.table.TableBank` in global agent order — giving
the connectivity metric, observability, and result aggregation exactly
the serial world's inputs.

The run is bit-identical to :class:`~repro.routing.world.RoutingWorld`
at any shard count; the property suite pins results, tables, and obs
metrics.  On one core it is about as fast as the serial world.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as _np

from repro.core.overhead import aggregate_overheads
from repro.errors import ConfigurationError
from repro.net.channel import ChannelStats
from repro.net.generator import GeneratorConfig, manet_blueprint
from repro.net.topology import AdjacencyView, edge_delta
from repro.obs.collector import ObsCollector
from repro.routing.connectivity import FunctionalConnectivity
from repro.routing.table import RouteEntry, TableBank
from repro.routing.world import RoutingResult, RoutingWorldConfig
from repro.shard.tiles import TileGrid
from repro.shard.worker import TileWorker
from repro.sim.engine import TimeStepEngine
from repro.types import Time

__all__ = ["ShardedRoutingWorld", "run_sharded_routing"]

#: agent kinds whose phases are node/agent-local (no global state reads
#: beyond the neighbourhood the tile already has).
_SUPPORTED_KINDS = ("oldest-node", "random")


def _check_supported(config: RoutingWorldConfig) -> None:
    """Reject configurations whose subsystems read global state.

    The sharded world covers the scaling surface — the core routing
    protocol with visiting/stigmergy, lossy channels, table guards and
    TTLs.  Subsystems that observe or mutate the whole arena each step
    (fault injection, health quarantine, the traffic data plane, the
    pheromone field, event/profile observability, the invariant
    walker) stay serial-only; asking for them here is a configuration
    error, not a silent downgrade.  ``check_invariants=None`` (the
    ambient default, which tests force on via the environment) is
    treated as *disabled* — only an explicit ``True`` raises.
    """
    if config.agent_kind not in _SUPPORTED_KINDS:
        raise ConfigurationError(
            f"sharded world supports agent kinds {_SUPPORTED_KINDS}, "
            f"got {config.agent_kind!r}"
        )
    if config.fault_plan is not None:
        raise ConfigurationError("sharded world does not support fault plans")
    if config.health is not None:
        raise ConfigurationError("sharded world does not support health monitoring")
    if config.traffic is not None:
        raise ConfigurationError("sharded world does not support the traffic plane")
    if config.batch_agents is True:
        raise ConfigurationError(
            "sharded tiles run the per-object stepper; batch_agents=True "
            "cannot be honoured (leave it unset)"
        )
    if config.check_invariants is True:
        raise ConfigurationError(
            "the invariant walker needs the full serial world; "
            "run with check_invariants unset (treated as disabled) or False"
        )
    if config.obs is not None and (config.obs.events or config.obs.profile):
        raise ConfigurationError(
            "sharded world supports metrics-only observability "
            "(events/profile need the serial step loop)"
        )


class _MirrorTopology:
    """The coordinator's view of the global adjacency.

    Duck-types the slice of :class:`~repro.net.topology.Topology` the
    connectivity metric reads: out-neighbour rows, gateway/node ids and
    liveness (nothing goes down in sharded scope).  Holds the sorted
    packed edge array, fed per step from the merged packed tile deltas,
    and serves rows through the topology's own :class:`AdjacencyView`.
    """

    def __init__(self, node_count: int, gateways: Tuple[int, ...], edges) -> None:
        self.node_count = node_count
        self._gateways = list(gateways)
        self._edges = edges
        self._view: Optional[AdjacencyView] = None
        #: cumulative edge flips applied, as ``Topology.stats`` counts them.
        self.edges_added = 0
        self.edges_removed = 0

    @property
    def gateway_ids(self) -> List[int]:
        return list(self._gateways)

    @property
    def node_ids(self):
        return range(self.node_count)

    @property
    def down_ids(self):
        return frozenset()

    def is_down(self, node: int) -> bool:
        return False

    def adjacency_view(self) -> AdjacencyView:
        if self._view is None:
            self._view = AdjacencyView(self._edges, self.node_count)
        return self._view

    def apply(self, added, removed) -> None:
        """Fold one step's merged sorted packed tile deltas into the edges."""
        self.edges_added += added.size
        self.edges_removed += removed.size
        if not added.size and not removed.size:
            return
        kept = edge_delta(self._edges, removed)[0]
        self._edges = _np.sort(_np.concatenate((kept, added)))
        self._view = None


def _merged(arrays):
    """The per-tile packed edge arrays as one sorted array."""
    return _np.sort(_np.concatenate(arrays))


class ShardedRoutingWorld:
    """One seeded routing run, stepped as spatial tiles."""

    def __init__(
        self,
        generator_config: GeneratorConfig,
        config: RoutingWorldConfig,
        network_seed: int,
        seed: int,
    ) -> None:
        _check_supported(config)
        if generator_config.gateway_count < 1:
            raise ConfigurationError("routing world needs at least one gateway")
        self.generator_config = generator_config
        self.config = config
        self.grid = TileGrid(
            generator_config.arena_width,
            generator_config.arena_height,
            shards=config.shards or 1,
        )
        n = generator_config.node_count
        self.node_count = n
        self.engine = TimeStepEngine()
        #: the replica bank — fed the same writes in the same order as
        #: the tiles' banks, so metric and aggregation read serial state.
        self.tables = TableBank(
            n, ttl=config.route_ttl, guard=config.table_guard
        )
        self.result = RoutingResult(converged_after=config.converged_after)
        # The generator lays gateways out first, so their ids are fixed
        # by the config alone.
        gateways = tuple(range(generator_config.gateway_count))
        self._topology = manet_blueprint(generator_config, network_seed).topology()
        self._workers = [
            TileWorker(tile, self.grid, config, seed, self._topology)
            for tile in range(self.grid.tiles)
        ]
        initial = _merged([worker.initial_edges() for worker in self._workers])
        self._mirror = _MirrorTopology(n, gateways, initial)
        self._connectivity = FunctionalConnectivity(self._mirror, self.tables, config.walk_ttl)
        self._obs: Optional[ObsCollector] = None
        if config.obs is not None and config.obs.enabled:
            self._obs = ObsCollector(config.obs, self.engine, scenario="routing")
        self.agents: List = []
        self.engine.add_process(self._step)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def _step(self, now: Time) -> None:
        workers = self._workers
        # The tiles share one topology, so motion advances once here.
        self._topology.advance()
        # Round 1: motion + node hand-over.
        inboxes: List[List[dict]] = [[] for __ in workers]
        for worker in workers:
            for destination, payloads in worker.begin_step(now).items():
                inboxes[destination].extend(payloads)
        # Round 2: local phases 1-4a + agent transfer.
        arrivals: List[List[tuple]] = [[] for __ in workers]
        for worker, inbox in zip(workers, inboxes):
            for destination, items in worker.step_core(now, inbox).items():
                arrivals[destination].extend(items)
        # Round 3: globally sorted table writes + reports.
        reports = [
            worker.finish_step(now, batch) for worker, batch in zip(workers, arrivals)
        ]
        self._apply_reports(now, reports)

    def _apply_reports(self, now: Time, reports) -> None:
        """Merge tile reports into the global mirror, replica and obs.

        Everything here reproduces the serial ``_step`` tail: the same
        writes in the same (agent-id) order against the replica bank,
        the same hook fires, the same obs pushes, the same metric
        evaluation over the merged adjacency.
        """
        config = self.config
        obs = self._obs
        added = _merged([report.added for report in reports])
        removed = _merged([report.removed for report in reports])
        self._mirror.apply(added, removed)
        # Replica: expiry first (as at the serial step top), then the
        # step's writes in global agent order — identical interleaving
        # to the serial phase-4 loop, hence identical guard outcomes.
        self.tables.expire_all(now)
        actions = [action for report in reports for action in report.actions]
        actions.sort(key=lambda action: action[1])
        hooks = self.engine.hooks
        for action in actions:
            if action[0] == "suspect":
                __, agent_id, node, target = action
                dropped = self.tables.table(node).drop_routes_via_next_hop(target)
                hooks.fire(
                    "link_suspected",
                    time=now,
                    node=node,
                    neighbor=target,
                    dropped=dropped,
                )
            else:
                __, agent_id, target, routes = action
                if obs is not None:
                    hooks.fire("agent_moved", time=now, agent=agent_id, to=target)
                if not routes:
                    continue
                table = self.tables.table(target)
                for gateway, next_hop, hops, seen_at in routes:
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
        if config.visiting:
            held = sum(report.held for report in reports)
            self.result.meetings += held
            if obs is not None:
                obs.meetings(now, held)
        if obs is not None:
            obs.routes_installed(
                now, sum(report.installs for report in reports)
            )
            obs.channel_losses(now, sum(report.channel[1] for report in reports))
        # Metric, over exactly the serial world's inputs.
        fraction = len(self._connectivity.connected()) / self.node_count
        if obs is not None:
            mirror = self._mirror
            obs.topology_churn(now, mirror.edges_added, mirror.edges_removed)
            cache_stats = self._connectivity.stats
            obs.connectivity_cache(now, cache_stats.hits, cache_stats.walks)
        self.result.times.append(now)
        self.result.connectivity.append(fraction)
        hooks.fire("connectivity_recorded", time=now, fraction=fraction)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self) -> RoutingResult:
        """Run the configured number of steps; return the result."""
        steps = self.engine.run(self.config.total_steps)
        finals = [worker.finalize() for worker in self._workers]
        agents = [agent for tile_agents, __ in finals for agent in tile_agents]
        agents.sort(key=lambda agent: agent.agent_id)
        self.agents = agents
        team_overhead = aggregate_overheads(agent.overhead for agent in agents)
        self.result.overhead = team_overhead.per_decision()
        self.result.guard_rejections = self.tables.total_guard_rejections()
        if self._obs is not None:
            stats = ChannelStats()
            for __, (attempts, losses, by_kind) in finals:
                stats.attempts += attempts
                stats.losses += losses
                for kind, count in by_kind.items():
                    stats.losses_by_kind[kind] = (
                        stats.losses_by_kind.get(kind, 0) + count
                    )
            self.result.obs = self._obs.finalize(
                overhead=team_overhead,
                channel_stats=stats,
                agents_total=len(agents),
                agents_alive=len(agents),
                steps=steps,
            )
        return self.result


def run_sharded_routing(
    generator_config: GeneratorConfig,
    config: RoutingWorldConfig,
    network_seed: int,
    seed: int,
) -> RoutingResult:
    """Convenience: build a sharded world and run it."""
    return ShardedRoutingWorld(generator_config, config, network_seed, seed).run()
