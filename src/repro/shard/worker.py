"""One tile's worker: local stepping plus the boundary-exchange rounds.

A :class:`TileWorker` owns everything node-local inside its tile
rectangle — routing tables, stigmergy boards, resident agents, and the
tile's slice of the adjacency — and steps them with *exactly* the
serial world's phase semantics.  Determinism carries across tiles
because every source of randomness is either node-local (meetings form
from co-located agents only), agent-local (decision rngs travel with
the agent object), or keyed-stateless (the lossy channel derives each
verdict from ``(seed, step, agent)``, so any tile computes the same
outcome for the same agent).  The only cross-tile coupling is the
three exchange rounds the coordinator drives per step:

1. **hand-over** (after motion): nodes whose position crossed a tile
   edge move banks — table state, stigmergy board, resident agents,
   and the node's previous out-edge rows (so the next delta diff is
   continuous, never a spurious remove+add burst);
2. **transfer** (after local phases 1–4a): agents whose delivered hop
   landed on another tile's node are shipped to that tile;
3. **apply** (sorted replay): every table write of the step — route
   installs by movers and drop-backs by suspected links — applies in
   global ascending agent id, the same interleaving the serial
   phase-4 loop produces, on the owning tile *and* on the
   coordinator's replica bank.

All tiles share one topology, which the coordinator advances once per
step before round 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as _np

from repro.core.comms import exchange_routing_knowledge
from repro.core.migration import ABANDONED, DELIVERED
from repro.routing.table import RouteEntry
from repro.routing.world import RoutingWorld
from repro.shard.tiles import TileAdjacency, TileGrid

__all__ = ["TileWorker", "TileReport", "inner_world_config"]


def inner_world_config(config):
    """The per-tile world config: serial semantics, no global services.

    Connectivity, observability and the batch engine are coordinator
    concerns (the metric needs the *global* adjacency); the tile runs
    the per-object oracle stepper, which is the semantics the sharded
    world is pinned bit-identical against.
    """
    return replace(
        config,
        batch_agents=False,
        obs=None,
        check_invariants=False,
        shards=None,
    )


@dataclass
class TileReport:
    """One tile's per-step outcome, merged by the coordinator."""

    tile: int
    added: object  # packed int64 array
    removed: object  # packed int64 array
    #: replayable table writes: ("move", agent_id, target, routes) and
    #: ("suspect", agent_id, node, target) in local agent-id order.
    actions: List[tuple]
    #: meetings held this step (None when visiting is off).
    held: Optional[int]
    #: install attempts this step (the serial ``step_installs``).
    installs: int
    #: cumulative channel stats: (attempts, losses, losses_by_kind).
    channel: Tuple[int, int, Dict[str, int]]


class TileWorker:
    """The state and step phases of one spatial tile."""

    def __init__(
        self,
        tile: int,
        grid: TileGrid,
        world_config,
        world_seed: int,
        topology,
    ) -> None:
        self.tile = tile
        self.grid = grid
        self.topology = topology
        self.config = inner_world_config(world_config)
        # Build a full serial world and harvest its state: identical
        # construction order means identical rng stream consumption, so
        # every tile (and the serial reference) spawns identical agents.
        inner = RoutingWorld(topology, self.config, world_seed)
        self.bank = inner.tables
        self.field = inner.field
        self.channel = inner.channel
        self.migration = inner._migration
        self.gateways = inner._gateways
        self.n = topology.node_count
        ax, ay, ar = topology.motion_state()
        self._own = grid.owners(ax, ay)
        self.agents = {
            agent.agent_id: agent
            for agent in inner.agents
            if int(self._own[agent.location]) == tile
        }
        # Halo pad: the largest range any node will ever have (ranges
        # only shrink), padded a hair so a receiver exactly at range on
        # the halo edge is never dropped.
        pad = float(ar.max()) * 1.000001 + 1e-9
        self.adj = TileAdjacency(self.n, grid.bounds(tile), pad)
        # Seed the adjacency from the construction-time (t=0) positions:
        # step reports then carry true motion deltas from step one on,
        # exactly like the serial topology's churn counters.
        owned = _np.flatnonzero(self._own == tile)
        self._initial, __ = self.adj.refresh(owned, ax, ay, ar)
        self._step_added = None
        self._step_removed = None
        self._step_held: Optional[int] = None
        self._step_installs = 0
        self._actions: List[tuple] = []

    def initial_edges(self):
        """Packed out-edges of this tile's nodes at t=0 (mirror seed)."""
        return self._initial

    # ------------------------------------------------------------------
    # Round 1: node hand-over after motion
    # ------------------------------------------------------------------

    def begin_step(self, now: int) -> Dict[int, List[dict]]:
        """Re-derive ownership from the advanced positions; emit hand-overs."""
        ax, ay, __ = self.topology.motion_state()
        own_new = self.grid.owners(ax, ay)
        tile = self.tile
        departing = _np.flatnonzero((self._own == tile) & (own_new != tile))
        outbox: Dict[int, List[dict]] = {}
        if departing.size:
            by_node: Dict[int, List[int]] = {}
            for agent_id, agent in self.agents.items():
                by_node.setdefault(agent.location, []).append(agent_id)
            rows = self.adj.extract_rows(departing)
            for node in departing.tolist():
                table = self.bank.get(node)
                payload = {
                    "node": node,
                    "table": None if table is None else table.export_state(),
                    "board": self.field._boards.pop(node, None),
                    "agents": [
                        self.agents.pop(agent_id)
                        for agent_id in by_node.get(node, ())
                    ],
                    "edges": rows.get(node),
                }
                outbox.setdefault(int(own_new[node]), []).append(payload)
        self._own = own_new
        return outbox

    def _apply_handovers(self, arrivals: List[dict]) -> None:
        rows = []
        for payload in arrivals:
            node = payload["node"]
            if payload["table"] is not None:
                self.bank.table(node).adopt_state(payload["table"])
            if payload["board"] is not None:
                self.field._boards[node] = payload["board"]
            for agent in payload["agents"]:
                self.agents[agent.agent_id] = agent
            if payload["edges"] is not None:
                rows.append(payload["edges"])
        if rows:
            self.adj.absorb_rows(rows)

    # ------------------------------------------------------------------
    # Round 2: local phases 1-4a
    # ------------------------------------------------------------------

    def step_core(
        self, now: int, arrivals: List[dict]
    ) -> Dict[int, List[tuple]]:
        """Expiry, adjacency, decide/meet/move; returns agent transfers."""
        self._apply_handovers(arrivals)
        self.bank.expire_all(now)
        ax, ay, ar = self.topology.motion_state()
        owned = _np.flatnonzero(self._own == self.tile)
        self._step_added, self._step_removed = self.adj.refresh(owned, ax, ay, ar)

        config = self.config
        migration = self.migration
        field = self.field
        agents = [self.agents[agent_id] for agent_id in sorted(self.agents)]
        # Phase 1: decide (or retry/wait per the migration protocol).
        neighbor_sets: Dict[int, set] = {}
        decisions: List[Optional[int]] = []
        footprint_due: List[bool] = []
        for agent in agents:
            location = agent.location
            neighbors = neighbor_sets.get(location)
            if neighbors is None:
                neighbors = neighbor_sets[location] = self.adj.neighbors_of(location)
            needs_decision, forced = migration.resolve_intent(agent, now, neighbors)
            if needs_decision:
                decisions.append(agent.decide(neighbors, now, field=field))
                footprint_due.append(True)
            else:
                decisions.append(forced)
                footprint_due.append(False)
        # Phase 2: meetings are node-local, so tile-local.
        self._step_held = None
        if config.visiting:
            self._step_held = exchange_routing_knowledge(
                agents, channel=self.channel, now=now
            )
        # Phase 3 + 4a: footprints, stays, hop attempts.  Table writes
        # (installs, suspicion drops) are *deferred* to the sorted apply
        # round so they interleave in global agent order exactly as the
        # serial phase-4 loop writes them.
        live_gateways = self.gateways
        moves: List[Tuple[object, int]] = []
        for agent, target, fresh in zip(agents, decisions, footprint_due):
            if target is None:
                agent.stay(now, here_is_gateway=agent.location in live_gateways)
            else:
                if fresh:
                    agent.leave_footprint(target, now, field)
                moves.append((agent, target))
        actions: List[tuple] = []
        transfers: Dict[int, List[tuple]] = {}
        own = self._own
        tile = self.tile
        for agent, target in moves:
            outcome = migration.attempt_hop(agent, target, now)
            if outcome != DELIVERED:
                agent.stay(now, here_is_gateway=agent.location in live_gateways)
                if outcome == ABANDONED:
                    actions.append(("suspect", agent, target))
                continue
            destination = int(own[target])
            if destination == tile:
                actions.append(("move", agent, target))
            else:
                del self.agents[agent.agent_id]
                transfers.setdefault(destination, []).append((agent, target))
        self._actions = actions
        return transfers

    # ------------------------------------------------------------------
    # Round 3: sorted apply + report
    # ------------------------------------------------------------------

    def finish_step(self, now: int, arrivals: List[tuple]) -> TileReport:
        """Apply the step's table writes in global agent order; report."""
        actions = self._actions
        for agent, target in arrivals:
            actions.append(("move", agent, target))
        actions.sort(key=lambda action: action[1].agent_id)
        live_gateways = self.gateways
        bank = self.bank
        installs = 0
        records: List[tuple] = []
        for kind, agent, target in actions:
            if kind == "suspect":
                node = agent.location
                dropped = bank.table(node).drop_routes_via_next_hop(target)
                agent.overhead.routes_invalidated += dropped
                records.append(("suspect", agent.agent_id, node, target))
                continue
            came_from = agent.move_to(target, now, target in live_gateways)
            self.agents[agent.agent_id] = agent
            routes = agent.installable_routes(came_from)
            records.append(("move", agent.agent_id, target, routes))
            if not routes:
                continue  # nothing to write: the node's table stays unbuilt
            table = bank.table(target)
            rejected_before = table.guard_rejections
            for gateway, next_hop, hops, seen_at in routes:
                agent.overhead.routes_installed += 1
                installs += 1
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
            agent.overhead.routes_rejected += table.guard_rejections - rejected_before
        self._actions = []
        stats = self.channel.stats
        return TileReport(
            tile=self.tile,
            added=self._step_added,
            removed=self._step_removed,
            actions=records,
            held=self._step_held,
            installs=installs,
            channel=(stats.attempts, stats.losses, dict(stats.losses_by_kind)),
        )

    def finalize(self) -> Tuple[List[object], Tuple[int, int, Dict[str, int]]]:
        """Final resident agents + cumulative channel stats."""
        stats = self.channel.stats
        agents = [self.agents[agent_id] for agent_id in sorted(self.agents)]
        return agents, (stats.attempts, stats.losses, dict(stats.losses_by_kind))
