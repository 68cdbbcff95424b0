"""The sharded routing world: tile workers + a thin global coordinator.

:class:`ShardedRoutingWorld` steps ``config.shards`` spatial tiles
(each a :class:`~repro.shard.worker.TileWorker`) through the serial
world's per-step phases, exchanging only boundary state between
rounds.  The coordinator itself holds no arena: it routes hand-over
and agent-transfer payloads between tiles, merges the per-tile edge
deltas into a mirror of the global adjacency, and replays every table
write of the step onto a replica :class:`~repro.routing.table.TableBank`
in global agent order — giving the connectivity metric, observability,
and result aggregation exactly the serial world's inputs.

Two execution modes share the wire protocol:

* **inline** (default): the tiles run in the coordinator process over
  one shared topology, each recomputing adjacency over its own halo
  with the serial link kernel — on one core about as fast as the
  serial world.
* **processes**: each tile runs in a spawned worker process with its
  own topology replica (replicated seeded motion is cheaper than
  shipping positions), talking over pipes.

Both are bit-identical to :class:`~repro.routing.world.RoutingWorld`
at any shard count; the property suite pins results, tables, and obs
metrics.
"""

from __future__ import annotations

import multiprocessing
from typing import List, Optional, Tuple

import numpy as _np

from repro.core.overhead import aggregate_overheads
from repro.errors import ConfigurationError
from repro.net.channel import ChannelStats
from repro.net.generator import GeneratorConfig, manet_blueprint
from repro.net.topology import AdjacencyView, edge_delta
from repro.obs.collector import ObsCollector
from repro.routing.connectivity import FunctionalConnectivity, connectivity_fraction
from repro.routing.table import RouteEntry, TableBank
from repro.routing.world import RoutingResult, RoutingWorldConfig
from repro.shard.tiles import TileGrid
from repro.shard.worker import TileWorker, worker_main
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
        if not added.size and not removed.size:
            return
        kept = edge_delta(self._edges, removed)[0]
        self._edges = _np.sort(_np.concatenate((kept, added)))
        self._view = None


def _merged(arrays):
    """The per-tile packed edge arrays as one sorted array."""
    return _np.sort(_np.concatenate(arrays))


class _InlineHandle:
    """Drives a tile worker in-process with the pipe protocol's shape."""

    def __init__(self, worker: TileWorker) -> None:
        self.worker = worker
        self._pending = None

    def initial_edges(self):
        return self.worker.initial_edges()

    def send(self, message) -> None:
        command = message[0]
        worker = self.worker
        if command == "begin":
            self._pending = worker.begin_step(message[1])
        elif command == "core":
            self._pending = worker.step_core(message[1], message[2])
        elif command == "finish":
            self._pending = worker.finish_step(message[1], message[2])
        elif command == "finalize":
            self._pending = worker.finalize()
        else:  # pragma: no cover - protocol bug guard
            raise RuntimeError(f"unknown shard command {command!r}")

    def recv(self):
        pending, self._pending = self._pending, None
        return pending

    def close(self) -> None:
        pass


class _ProcessHandle:
    """One spawned tile worker behind a duplex pipe."""

    def __init__(self, ctx, payload: dict) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self._conn = parent_conn
        self._process = ctx.Process(
            target=worker_main, args=(child_conn, payload), daemon=True
        )
        self._process.start()
        child_conn.close()
        self._initial = parent_conn.recv()  # ready handshake

    def initial_edges(self):
        return self._initial

    def send(self, message) -> None:
        self._conn.send(message)

    def recv(self):
        return self._conn.recv()

    def close(self) -> None:
        try:
            self._conn.send(("close",))
        except (BrokenPipeError, OSError):  # pragma: no cover - dead worker
            pass
        self._conn.close()
        self._process.join(timeout=60)


class ShardedRoutingWorld:
    """One seeded routing run, stepped as spatial tiles."""

    def __init__(
        self,
        generator_config: GeneratorConfig,
        config: RoutingWorldConfig,
        network_seed: int,
        seed: int,
        processes: bool = False,
    ) -> None:
        _check_supported(config)
        if generator_config.gateway_count < 1:
            raise ConfigurationError("routing world needs at least one gateway")
        self.generator_config = generator_config
        self.config = config
        self.grid = TileGrid(
            generator_config.arena_width,
            generator_config.arena_height,
            shards=config.shards,
            tile_size=config.tile_size,
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
        # by the config alone — the coordinator never needs a topology.
        gateways = tuple(range(generator_config.gateway_count))
        self._topology = None
        if processes:
            ctx = multiprocessing.get_context("spawn")
            self._handles: List = [
                _ProcessHandle(
                    ctx,
                    {
                        "tile": tile,
                        "grid": self.grid,
                        "generator_config": generator_config,
                        "world_config": config,
                        "network_seed": network_seed,
                        "world_seed": seed,
                    },
                )
                for tile in range(self.grid.tiles)
            ]
        else:
            topology = manet_blueprint(generator_config, network_seed).topology()
            self._topology = topology
            self._handles = [
                _InlineHandle(
                    TileWorker(
                        tile,
                        self.grid,
                        generator_config,
                        config,
                        network_seed,
                        seed,
                        topology=topology,
                    )
                )
                for tile in range(self.grid.tiles)
            ]
        initial = _merged([handle.initial_edges() for handle in self._handles])
        self._mirror = _MirrorTopology(n, gateways, initial)
        self._conn_cache: Optional[FunctionalConnectivity] = None
        if config.connectivity_cache:
            self._conn_cache = FunctionalConnectivity(
                self._mirror, self.tables, config.walk_ttl
            )
        self._obs: Optional[ObsCollector] = None
        if config.obs is not None and config.obs.enabled:
            self._obs = ObsCollector(config.obs, self.engine, scenario="routing")
            self._obs_last_losses = 0
            self._obs_last_cache = (0, 0)
        self.agents: List = []
        self._closed = False
        self.engine.add_process(self._step)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def _step(self, now: Time) -> None:
        handles = self._handles
        if self._topology is not None:
            # Inline mode shares one topology; advance it once here
            # (process-mode replicas advance themselves in round 1).
            self._topology.advance()
        # Round 1: motion + node hand-over.
        for handle in handles:
            handle.send(("begin", now))
        outboxes = [handle.recv() for handle in handles]
        inboxes: List[List[dict]] = [[] for __ in handles]
        for outbox in outboxes:
            for destination, payloads in outbox.items():
                inboxes[destination].extend(payloads)
        # Round 2: local phases 1-4a + agent transfer.
        for handle, inbox in zip(handles, inboxes):
            handle.send(("core", now, inbox))
        transfer_maps = [handle.recv() for handle in handles]
        arrivals: List[List[tuple]] = [[] for __ in handles]
        for transfers in transfer_maps:
            for destination, items in transfers.items():
                arrivals[destination].extend(items)
        # Round 3: globally sorted table writes + reports.
        for handle, batch in zip(handles, arrivals):
            handle.send(("finish", now, batch))
        reports = [handle.recv() for handle in handles]
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
            losses = sum(report.channel[1] for report in reports)
            obs.channel_losses(now, losses - self._obs_last_losses)
            self._obs_last_losses = losses
        # Metric, over exactly the serial world's inputs.
        if self._conn_cache is not None:
            fraction = len(self._conn_cache.connected()) / self.node_count
        else:
            fraction = connectivity_fraction(
                self._mirror, self.tables, config.walk_ttl
            )
        if obs is not None:
            obs.topology_churn(now, added=added.size, removed=removed.size)
            if self._conn_cache is not None:
                cache_stats = self._conn_cache.stats
                last_cache = self._obs_last_cache
                obs.connectivity_cache(
                    now,
                    hits=cache_stats.hits - last_cache[0],
                    walks=cache_stats.walks - last_cache[1],
                )
                self._obs_last_cache = (cache_stats.hits, cache_stats.walks)
        self.result.times.append(now)
        self.result.connectivity.append(fraction)
        hooks.fire("connectivity_recorded", time=now, fraction=fraction)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self) -> RoutingResult:
        """Run the configured number of steps; return the result."""
        try:
            steps = self.engine.run(self.config.total_steps)
            for handle in self._handles:
                handle.send(("finalize",))
            finals = [handle.recv() for handle in self._handles]
        finally:
            self.close()
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

    def close(self) -> None:
        """Release the tile workers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            handle.close()


def run_sharded_routing(
    generator_config: GeneratorConfig,
    config: RoutingWorldConfig,
    network_seed: int,
    seed: int,
    processes: bool = False,
) -> RoutingResult:
    """Convenience: build a sharded world and run it."""
    return ShardedRoutingWorld(
        generator_config, config, network_seed, seed, processes=processes
    ).run()
