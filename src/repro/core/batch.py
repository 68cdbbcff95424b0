"""Vectorized batch agent engine: whole populations step as arrays.

After the substrate went incremental, per-object agent stepping
dominated ``routing_world_step``.  This module rebuilds the routing
agents' four-phase step (decide / meet / move / install, paper §III-C)
as a handful of numpy passes over structure-of-arrays state:

* ``loc``            — ``int64[P]`` agent locations,
* ``track_hops``     — ``int64[P, G]`` gateway tracks keyed by gateway
  *column* (``-1`` = no track), with ``track_seen`` holding the
  matching ``visited_at`` stamps,
* ``vt``             — ``int64[P, N]`` dense visit-history times
  (``NEVER`` = not remembered) plus a per-agent entry count,
* one ``int64[P]`` delta array per :class:`OverheadMeter` counter.

The engine models exactly one configuration — the paper's routing
figures: plain random or oldest-node agents, with or without visiting,
over hops that always deliver (:func:`batch_unsupported` names the
first feature outside it).  Left to choose (``batch_agents`` unset), a
routing world steps it only for teams of :data:`BATCH_MIN_POPULATION`
or more agents, below which the per-object step is as fast.  Faults, the table guard, corrupted agents,
traffic, invariants and observability all run on it.  Every other
configuration — stigmergy, health monitoring, a lossy channel, loss
bursts, ant agents — runs the per-object step, which is also the
engine's oracle twin: hypothesis property tests drive both to
bit-identical :class:`~repro.routing.world.RoutingResult`\\ s, agent
state and tables.  Bit-identity constrains the design in two places:

* **RNG alignment** — ``rng.choice(seq)`` is ``seq[rng._randbelow(len(seq))]``
  on every supported CPython, and ``_randbelow`` consumes a
  length-dependent amount of the Mersenne stream.  The decide pass makes
  *exactly* the draws the per-object code makes, in the same per-agent
  order: oldest-node draws only on ties, random draws once per decision,
  and single-candidate ties draw nothing.
* **Shared mutable substrates** — the routing tables are the real
  objects, written in the agent order the per-object loop writes them.

Because no hop can be lost, no agent ever has a hop in flight: every
acting agent decides afresh each step, every mover arrives, and each
mover batch accounts its channel attempts with one ``attempts`` bump.

Agent *objects* stay allocated and authoritative for cold state
(identity, rng, :class:`MigrationState`, the lifetime
:class:`OverheadMeter`); locations are flushed back every step so the
fault injector and the invariant checker always observe truthful
positions.  :meth:`BatchAgentEngine.flush` writes everything else back
when the run ends.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Any, Dict, List, Optional, Tuple

import numpy as _np

from repro.core.overhead import OverheadMeter
from repro.core.routing_agents import _FORGED_SEQUENCE_AHEAD, GatewayTrack
from repro.errors import ConfigurationError
from repro.types import NEVER, NodeId, Time

__all__ = [
    "BATCH_AGENT_KINDS",
    "BATCH_MIN_POPULATION",
    "batch_unsupported",
    "BatchAgentEngine",
]

#: Agent kinds the batch engine vectorizes; others run per-object.
BATCH_AGENT_KINDS = frozenset({"random", "oldest-node"})

#: Sentinel larger than any visit time; masks padded candidate slots.
_BIG = 1 << 62

#: Overhead counters mirrored as per-agent delta arrays.  The meters on
#: the agent objects stay authoritative (the install pass writes guard
#: rejections to them directly); these arrays hold only the increments
#: the vectorized passes produce, flushed additively.
_OH_FIELDS = tuple(f.name for f in dataclass_fields(OverheadMeter))


#: The smallest team the engine steps when ``batch_agents`` is unset.
#: On fig8's PAPER grid (250-node MANET, 300 steps, both kinds, visiting
#: on and off, 5 alternating pairs per cell; EXPERIMENTS.md, "Batch
#: engine crossover") the median per-object/engine time ratio read
#: 0.70-0.89 at 10 agents, 0.86-0.95 at 25, 0.94-1.00 at 50,
#: 0.98-1.17 at 75, 1.06-1.20 at 100 and 1.24-1.39 at 200.
BATCH_MIN_POPULATION = 75


def batch_unsupported(config: Any) -> Optional[str]:
    """The first feature of a routing config the engine does not model.

    ``None`` means the engine can drive the run.  Loss bursts are the
    only way a lossless channel loses a hop mid-run (gray failures drop
    data-plane payloads only), so a plan that schedules one is out too.
    """
    if config.agent_kind not in BATCH_AGENT_KINDS:
        return f"{config.agent_kind!r} agents"
    if config.stigmergic:
        return "stigmergic routing"
    if config.health is not None:
        return "health monitoring"
    if config.channel is not None and not config.channel.lossless:
        return "a lossy channel"
    plan = config.fault_plan
    if plan is not None and any(event.kind == "lossburst" for event in plan.events):
        return "loss bursts"
    return None


class BatchAgentEngine:
    """Structure-of-arrays execution of one routing world's agent phases."""

    def __init__(self, world: Any) -> None:
        unsupported = batch_unsupported(world.config)
        if unsupported is not None:
            raise ConfigurationError(
                f"the batch agent engine does not model {unsupported}; "
                "leave batch_agents unset to run the per-object step"
            )
        self._world = world
        self._random_kind = world.config.agent_kind == "random"
        agents = world.agents
        self._agents = agents
        self._population = len(agents)
        topology = world.topology
        self._node_count = topology.node_count
        gateways: List[NodeId] = list(topology.all_gateway_ids)
        self._gw_ids = gateways
        self._gw_col = _np.full(self._node_count, -1, dtype=_np.int64)
        for column, gateway in enumerate(gateways):
            self._gw_col[gateway] = column
        self._gw_mask = self._gw_col >= 0
        self._capacity = world.config.history_size
        self._hist = world.config.history_size
        # Per-agent CPython rngs, the agent objects' own, so the engine
        # draws exactly the streams the per-object oracle would.  The
        # bound ``_randbelow`` skips one method dispatch per tie-break;
        # it is a stable CPython API (3.2+) and exactly what
        # ``random.choice`` calls.
        self._randbelow = [agent._rng._randbelow for agent in agents]
        self._all_idx = _np.arange(self._population, dtype=_np.int64)
        # SoA state + overhead delta arrays.
        self.loc = _np.zeros(self._population, dtype=_np.int64)
        self.track_hops = _np.full(
            (self._population, len(gateways)), -1, dtype=_np.int64
        )
        self.track_seen = _np.zeros(
            (self._population, len(gateways)), dtype=_np.int64
        )
        self.vt = _np.full(
            (self._population, self._node_count), NEVER, dtype=_np.int64
        )
        self.visit_count = _np.zeros(self._population, dtype=_np.int64)
        #: compact per-agent remembered-node ids: the first
        #: ``visit_count`` slots of each row hold the nodes whose ``vt``
        #: entry is live (order arbitrary), plus one spare slot for the
        #: record-then-evict overshoot.  Keeps history eviction
        #: O(capacity) per agent instead of an O(node_count) row scan.
        self.visit_nodes = _np.full(
            (self._population, self._capacity + 1), -1, dtype=_np.int64
        )
        # Grow-as-needed workspaces for the per-step candidate matrix
        # (unique-location rows + the per-agent gather); rebuilding them
        # every step dominated decide-phase allocation at scale.
        self._cand_pad = _np.empty((0, 0), dtype=_np.int64)
        self._cand_rows = _np.empty((0, 0), dtype=_np.int64)
        self._oh = {
            name: _np.zeros(self._population, dtype=_np.int64)
            for name in _OH_FIELDS
        }
        for index in range(self._population):
            self._load_row(index)

    # ------------------------------------------------------------------
    # Object <-> array synchronisation
    # ------------------------------------------------------------------

    def _load_row(self, index: int) -> None:
        """(Re)load one agent's hot state from its object (spawn/respawn)."""
        agent = self._agents[index]
        self.loc[index] = agent.location
        row = self.track_hops[index]
        row.fill(-1)
        seen_row = self.track_seen[index]
        seen_row.fill(0)
        gw_col = self._gw_col
        for gateway, track in agent.tracks.items():
            column = int(gw_col[gateway])
            row[column] = track.hops
            seen_row[column] = track.visited_at
        vt_row = self.vt[index]
        vt_row.fill(NEVER)
        visits = agent.history._visits
        for node, time in visits.items():
            vt_row[node] = time
        self.visit_count[index] = len(visits)
        nodes_row = self.visit_nodes[index]
        nodes_row.fill(-1)
        if visits:
            nodes_row[: len(visits)] = list(visits)

    def _reload_respawned(self) -> None:
        """Pull rows for agents the fault layer rebuilt since last step.

        Locations are flushed object-side every step, so a mismatch can
        only mean the injector called ``reset_for_respawn`` (a respawn
        never lands on the crashed node, hence never on the old spot).
        """
        loc = self.loc
        for index, agent in enumerate(self._agents):
            if agent.location != loc[index]:
                self._load_row(index)

    def _flush_locations(self) -> None:
        locations = self.loc.tolist()
        for agent, location in zip(self._agents, locations):
            agent.location = location

    def flush(self) -> None:
        """Write every array back to the agent objects.

        Called at the end of :meth:`RoutingWorld.run`.  Track/history
        dicts are rebuilt in gateway-column / node-id order; their
        *content* matches the oracle exactly (no behaviour reads dict
        order), their insertion order may not.
        """
        self._flush_locations()
        gw_ids = self._gw_ids
        for index, agent in enumerate(self._agents):
            hops_row = self.track_hops[index]
            seen_row = self.track_seen[index]
            tracks: Dict[NodeId, GatewayTrack] = {}
            for column in _np.nonzero(hops_row >= 0)[0].tolist():
                tracks[gw_ids[column]] = GatewayTrack(
                    hops=int(hops_row[column]), visited_at=int(seen_row[column])
                )
            agent.tracks = tracks
            vt_row = self.vt[index]
            nodes = _np.nonzero(vt_row != NEVER)[0]
            agent.history._visits = dict(
                zip(nodes.tolist(), vt_row[nodes].tolist())
            )
            meter = agent.overhead
            for name, deltas in self._oh.items():
                delta = int(deltas[index])
                if delta:
                    setattr(meter, name, getattr(meter, name) + delta)
        for deltas in self._oh.values():
            deltas.fill(0)

    # ------------------------------------------------------------------
    # The step
    # ------------------------------------------------------------------

    def step_agents(
        self, now: Time, profiler: Any, phase_started: float
    ) -> Tuple[int, float]:
        """Run decide/meet/move/install for one step; returns installs.

        Mirrors the agent section of ``RoutingWorld._step`` phase for
        phase, including the profiler lap boundaries and obs hooks.
        """
        world = self._world
        injector = world.injector
        if injector is not None:
            self._reload_respawned()
            down = world.topology.down_ids
            loc_list = self.loc.tolist()
            acting = [
                index
                for index, agent in enumerate(self._agents)
                if agent.agent_id not in injector._dead
                and loc_list[index] not in down
            ]
            acts = _np.asarray(acting, dtype=_np.int64)
        else:
            acts = self._all_idx
        # Phase 1: decide.
        targets = _np.full(self._population, -1, dtype=_np.int64)
        self._decide(acts, targets)
        if profiler is not None:
            phase_started = profiler.lap("decide", phase_started)
        # Phase 2: visiting exchanges.
        if world.config.visiting:
            held = self._meet(acts)
            world.meetings += held
            if world._obs is not None:
                world._obs.meetings(now, held)
        if profiler is not None:
            phase_started = profiler.lap("meet", phase_started)
        # Phases 3 & 4: move, then install routes.
        step_installs = self._move_and_install(acts, now, targets)
        self._flush_locations()
        if profiler is not None:
            phase_started = profiler.lap("move", phase_started)
        return step_installs, phase_started

    # ------------------------------------------------------------------
    # Phase 1: decide
    # ------------------------------------------------------------------

    def _decide(self, acts: "_np.ndarray", targets: "_np.ndarray") -> None:
        """Vectorized decisions for every acting agent."""
        cand, deg, valid = self._candidate_matrix(acts)
        if cand is None:
            return
        rows = _np.nonzero(deg > 0)[0]
        if not len(rows):
            return
        moving = acts[rows]
        self._oh["decisions"][moving] += 1
        self._oh["candidates_examined"][moving] += deg[rows]
        randbelow = self._randbelow
        if self._random_kind:
            # random.choice draws _randbelow(len) for every decision.
            draws = [
                randbelow[agent](int(count))
                for agent, count in zip(moving.tolist(), deg[rows].tolist())
            ]
            cols = _np.asarray(draws, dtype=_np.int64)
            targets[moving] = cand[rows, cols]
            return
        # oldest-node: minimum last-visit time, ties broken by one
        # rng.choice over the tied candidates (ascending id order).
        times = self.vt[moving[:, None], _np.where(valid, cand, 0)[rows]]
        times = _np.where(valid[rows], times, _BIG)
        best = times.min(axis=1)
        ties = times == best[:, None]
        tie_counts = ties.sum(axis=1)
        draws = _np.zeros(len(rows), dtype=_np.int64)
        multi = _np.nonzero(tie_counts > 1)[0]
        if len(multi):
            movers_list = moving.tolist()
            counts_list = tie_counts.tolist()
            for row in multi.tolist():
                draws[row] = randbelow[movers_list[row]](counts_list[row])
        chosen = ties & (ties.cumsum(axis=1) == (draws + 1)[:, None])
        cols = chosen.argmax(axis=1)
        targets[moving] = cand[rows, cols]

    def _candidate_matrix(
        self, acts: "_np.ndarray"
    ) -> Tuple[Optional["_np.ndarray"], Optional["_np.ndarray"], Optional["_np.ndarray"]]:
        """Sorted-neighbour candidate rows for the acting agents.

        Returns ``(cand, deg, valid)`` where ``cand`` is ``(R, W)`` of
        node ids padded with ``-1``, ``deg`` the per-row candidate count
        and ``valid`` the pad mask.  Rows are the topology's packed edge
        array read as CSR, so candidates ascend within each row — the
        order of the rows the per-object path reads.
        ``cand`` is a view into a per-engine workspace, valid only until
        the next call (the decide pass consumes it immediately).
        """
        locs = self.loc[acts]
        edges = self._world.topology.packed_edges()
        n = self._node_count
        occupied = _np.unique(locs)
        lo = _np.searchsorted(edges, occupied * n)
        counts = _np.searchsorted(edges, occupied * n + n) - lo
        width = int(counts.max()) if len(counts) else 0
        if width == 0:
            return None, None, None
        pad_buf = self._cand_pad
        if pad_buf.shape[0] < len(occupied) or pad_buf.shape[1] < width:
            pad_buf = self._cand_pad = _np.empty(
                (max(pad_buf.shape[0], len(occupied)), max(pad_buf.shape[1], width)),
                dtype=_np.int64,
            )
        padded = pad_buf[: len(occupied), :width]
        padded.fill(-1)
        # Ragged gather of the occupied rows: entry k of row i is edge
        # lo[i] + k, and its column the edge's receiver.
        firsts = _np.cumsum(counts) - counts
        at = _np.arange(int(counts.sum()))
        slot = at - _np.repeat(firsts, counts)
        at += _np.repeat(lo - firsts, counts)
        padded[_np.repeat(_np.arange(len(occupied)), counts), slot] = edges[at] % n
        occ_rows = _np.searchsorted(occupied, locs)
        row_buf = self._cand_rows
        if row_buf.shape[0] < len(locs) or row_buf.shape[1] < width:
            row_buf = self._cand_rows = _np.empty(
                (max(row_buf.shape[0], len(locs)), max(row_buf.shape[1], width)),
                dtype=_np.int64,
            )
        cand = row_buf[: len(locs), :width]
        _np.take(padded, occ_rows, axis=0, out=cand)
        return cand, counts[occ_rows], cand >= 0

    # ------------------------------------------------------------------
    # Phase 2: visiting meetings
    # ------------------------------------------------------------------

    def _meet(self, acts: "_np.ndarray") -> int:
        """Group co-located agents and merge tracks + histories.

        The array mirror of
        :func:`repro.core.comms.exchange_routing_knowledge`: per group,
        the best track per gateway (fewest hops, then freshest) and the
        freshest-per-node merged history are computed from pre-exchange
        snapshots; every receiving participant adopts both, with the
        merged history trimmed to capacity by evicting the stalest
        ``(time, id)`` entries — `record()`'s tie-break.  Every
        participant receives: the channel loses no meeting payload.
        """
        groups: Dict[int, List[int]] = {}
        loc_list = self.loc.tolist()
        for index in acts.tolist():
            groups.setdefault(loc_list[index], []).append(index)
        channel_stats = self._world.channel.stats
        capacity = self._capacity
        meetings = 0
        oh_meetings = self._oh["meetings"]
        oh_received = self._oh["items_received"]
        for members in groups.values():
            if len(members) < 2:
                continue
            meetings += 1
            rows = _np.asarray(members, dtype=_np.int64)
            hops = self.track_hops[rows]
            seen = self.track_seen[rows]
            present = hops >= 0
            any_track = present.any(axis=0)
            hop_masked = _np.where(present, hops, _BIG)
            best_hops = hop_masked.min(axis=0)
            seen_masked = _np.where(
                present & (hops == best_hops[None, :]), seen, -_BIG
            )
            best_seen = seen_masked.max(axis=0)
            merged = self.vt[rows].max(axis=0)
            merged_nodes = _np.nonzero(merged != NEVER)[0]
            merged_count = len(merged_nodes)
            payload = int(any_track.sum()) + merged_count
            if merged_count > capacity:
                times = merged[merged_nodes]
                order = _np.lexsort((merged_nodes, times))
                merged = merged.copy()
                merged[merged_nodes[order[: merged_count - capacity]]] = NEVER
                merged_nodes = _np.sort(
                    merged_nodes[order[merged_count - capacity :]]
                )
                merged_count = capacity
            new_hops = _np.where(any_track, best_hops, -1)
            new_seen = _np.where(any_track, best_seen, 0)
            oh_meetings[rows] += 1
            channel_stats.attempts += len(members)
            self.track_hops[rows] = new_hops
            self.track_seen[rows] = new_seen
            self.vt[rows] = merged
            self.visit_count[rows] = merged_count
            nodes_row = _np.full(capacity + 1, -1, dtype=_np.int64)
            nodes_row[:merged_count] = merged_nodes
            self.visit_nodes[rows] = nodes_row
            oh_received[rows] += payload
        return meetings

    # ------------------------------------------------------------------
    # Phases 3 & 4: move and install
    # ------------------------------------------------------------------

    def _move_and_install(
        self, acts: "_np.ndarray", now: Time, targets: "_np.ndarray"
    ) -> int:
        """Move every decided agent, install its routes, record visits.

        Every hop delivers, so one pass moves the whole mover batch and
        advances its tracks; installs then follow in agent order, and
        agents without a target stay.
        """
        world = self._world
        down = world.topology.down_ids
        gw_mask = self._gw_mask
        if down:
            live_gw = gw_mask.copy()
            live_gw[list(down)] = False
        else:
            live_gw = gw_mask
        movers = acts[targets[acts] >= 0]
        step_installs = self._move(movers, targets, now, live_gw)
        # Stayers standing on a live gateway refresh their zero-hop track
        # (RoutingAgent.stay); movers already took their arrival tracks.
        if len(movers) < len(acts):
            stay_mask = _np.ones(self._population, dtype=bool)
            stay_mask[movers] = False
            stayers = acts[stay_mask[acts]]
            on_gateway = stayers[live_gw[self.loc[stayers]]]
            if len(on_gateway):
                columns = self._gw_col[self.loc[on_gateway]]
                self.track_hops[on_gateway, columns] = 0
                self.track_seen[on_gateway, columns] = now
        # Every acting agent records exactly one visit at its final spot.
        self._record_visits(acts, now)
        return step_installs

    def _move(
        self,
        movers: "_np.ndarray",
        targets: "_np.ndarray",
        now: Time,
        live_gw: "_np.ndarray",
    ) -> int:
        """Deliver every mover in one pass, then install its routes.

        Exactly what a delivered :meth:`ReliableMigration.attempt_hop`
        plus ``RoutingAgent.move_to`` do per agent: one attempt counted
        on the agent and on the channel, tracks aged by one hop (dropped
        past the history size), a zero-hop track at a live gateway.
        ``agent_moved`` fires per mover in agent order, and its payload
        is built only when someone receives it.
        """
        if not len(movers):
            return 0
        dest = targets[movers]
        self._oh["hops_attempted"][movers] += 1
        world = self._world
        world.channel.stats.attempts += len(movers)
        origins = self.loc[movers].copy()
        self.loc[movers] = dest
        hops = self.track_hops[movers]
        advanced = hops + 1
        keep = (hops >= 0) & (advanced <= self._hist)
        self.track_hops[movers] = _np.where(keep, advanced, -1)
        arrival_cols = self._gw_col[dest]
        at_gateway = (arrival_cols >= 0) & live_gw[dest]
        if at_gateway.any():
            rows = movers[at_gateway]
            cols = arrival_cols[at_gateway]
            self.track_hops[rows, cols] = 0
            self.track_seen[rows, cols] = now
        hooks = world.engine.hooks
        if hooks.is_live("agent_moved"):
            agents = self._agents
            for index, target in zip(movers.tolist(), dest.tolist()):
                hooks.fire(
                    "agent_moved", time=now, agent=agents[index].agent_id, to=target
                )
        return self._install_batch(movers, origins, dest, now)

    def _install_batch(
        self,
        movers: "_np.ndarray",
        origins: "_np.ndarray",
        dest: "_np.ndarray",
        now: Time,
    ) -> int:
        """Install every delivered mover's live tracks, in agent order."""
        world = self._world
        tables = world.tables
        guard = tables.guard
        injector = world.injector
        gw_ids = self._gw_ids
        track_sub = self.track_hops[movers]
        pair_rows, pair_cols = _np.nonzero(track_sub > 0)
        if not len(pair_rows):
            return 0
        agents = self._agents
        oh_installed = self._oh["routes_installed"]
        hops_flat = track_sub[pair_rows, pair_cols].tolist()
        seen_flat = self.track_seen[movers][pair_rows, pair_cols].tolist()
        movers_list = movers.tolist()
        origins_list = origins.tolist()
        dest_list = dest.tolist()
        step_installs = len(pair_rows)
        current_row = -1
        install = None
        index = origin = 0
        corrupted = False
        table = None
        rejected_before = 0
        forged_ahead = _FORGED_SEQUENCE_AHEAD
        for row, column, hops, seen_at in zip(
            pair_rows.tolist(), pair_cols.tolist(), hops_flat, seen_flat
        ):
            if row != current_row:
                if guard is not None and table is not None:
                    agents[index].overhead.routes_rejected += (
                        table.guard_rejections - rejected_before
                    )
                current_row = row
                index = movers_list[row]
                origin = origins_list[row]
                table = tables.table(dest_list[row])
                install = table.install_fast
                corrupted = injector is not None and injector.is_corrupted(
                    agents[index].agent_id
                )
                if guard is not None:
                    rejected_before = table.guard_rejections
            oh_installed[index] += 1
            if corrupted:
                install(gw_ids[column], origin, 1, now, now + forged_ahead,
                        now + forged_ahead)
            else:
                install(gw_ids[column], origin, hops, now, seen_at, seen_at)
        if guard is not None and table is not None:
            agents[index].overhead.routes_rejected += (
                table.guard_rejections - rejected_before
            )
        return step_installs

    def _record_visits(self, acts: "_np.ndarray", now: Time) -> None:
        """Vectorized ``VisitHistory.record`` for every acting agent.

        Eviction scans only the compact ``visit_nodes`` rows — O(capacity)
        per over-full agent, not an O(node_count) sweep of ``vt``.  The
        stalest entry is the minimum of packed ``time * n + node``, which
        is exactly ``record()``'s min-(time, node) tie-break; it is then
        swap-removed with the row's last occupied slot.
        """
        where = self.loc[acts]
        previous = self.vt[acts, where]
        self.vt[acts, where] = now
        appended = previous == NEVER
        if appended.any():
            new_rows = acts[appended]
            slots = self.visit_count[new_rows]
            self.visit_nodes[new_rows, slots] = where[appended]
            self.visit_count[new_rows] = slots + 1
        over = acts[self.visit_count[acts] > self._capacity]
        if len(over):
            nodes = self.visit_nodes[over]
            occupied = nodes >= 0
            safe = _np.where(occupied, nodes, 0)
            times = self.vt[over[:, None], safe]
            packed = _np.where(
                occupied, times * self._node_count + safe, _BIG
            )
            evict_col = packed.argmin(axis=1)
            row_idx = _np.arange(len(over), dtype=_np.int64)
            self.vt[over, nodes[row_idx, evict_col]] = NEVER
            last = self.visit_count[over] - 1
            self.visit_nodes[over, evict_col] = self.visit_nodes[over, last]
            self.visit_nodes[over, last] = -1
            self.visit_count[over] = last

