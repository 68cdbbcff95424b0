"""Vectorized batch agent engine: whole populations step as arrays.

PR 4 made the *substrate* incremental; after it, per-object agent
stepping dominated ``routing_world_step``.  This module rebuilds the
routing agents' four-phase step (decide / meet / move / install,
paper §III-C) as a handful of numpy passes over structure-of-arrays
state:

* ``loc``            — ``int64[P]`` agent locations,
* ``track_hops``     — ``int64[P, G]`` gateway tracks keyed by gateway
  *column* (``-1`` = no track), with ``track_seen`` holding the
  matching ``visited_at`` stamps,
* ``vt``             — ``int64[P, N]`` dense visit-history times
  (``NEVER`` = not remembered) plus a per-agent entry count,
* one ``int64[P]`` delta array per :class:`OverheadMeter` counter.

The engine is an *optimization twin*, not a fork: the per-object
:class:`~repro.core.routing_agents.RoutingAgent` path stays the semantic
oracle (exactly how the naive rebuild stays the topology's), and
hypothesis property tests drive both to bit-identical
:class:`~repro.routing.world.RoutingResult`\\ s under faults, loss,
visiting, and stigmergy.  Bit-identity constrains the design in three
places:

* **RNG alignment** — ``rng.choice(seq)`` is ``seq[rng._randbelow(len(seq))]``
  on every supported CPython, and ``_randbelow`` consumes a
  length-dependent amount of the Mersenne stream.  The batch paths make
  *exactly* the draws the per-object code makes, in the same per-agent
  order: oldest-node draws only on ties, random draws once per decision,
  and single-candidate ties draw nothing.
* **Keyed channel** — loss draws hash ``(step, key)``, so outcomes are
  iteration-order independent and the lossless fast path can account a
  whole mover batch with one ``attempts`` bump.
* **Shared mutable substrates** — tables, stigmergy boards, and the
  health monitor are the real objects; scalar fallbacks touch them in
  the same agent order the per-object loop would.

Slow features degrade gracefully instead of forking semantics: with
stigmergy or a health monitor the decide pass runs a scalar mirror per
agent (same candidate ordering, same counters, same rng calls), and a
lossy channel routes movement through the real
:class:`~repro.core.migration.ReliableMigration` protocol per mover.
Only the clean configuration — the benchmark path — is fully
vectorized.

Agent *objects* stay allocated and authoritative for cold state
(identity, rng, :class:`MigrationState`, the lifetime
:class:`OverheadMeter`); locations are flushed back every step so the
fault injector, the invariant checker, and the channel's distance terms
always observe truthful positions.  :meth:`BatchAgentEngine.flush`
writes everything else back when the run ends.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as _np

from repro.core.migration import ABANDONED, DELIVERED
from repro.core.overhead import OverheadMeter
from repro.core.routing_agents import GatewayTrack
from repro.errors import ConfigurationError
from repro.types import NEVER, NodeId, Time

__all__ = ["BATCH_AGENT_KINDS", "batch_agents_supported", "BatchAgentEngine"]

#: Agent kinds the batch engine vectorizes; others fall back per-object.
BATCH_AGENT_KINDS = frozenset({"random", "oldest-node"})

#: Sentinel larger than any visit time; masks padded candidate slots.
_BIG = 1 << 62

#: Overhead counters mirrored as per-agent delta arrays.  The meters on
#: the agent objects stay authoritative (scalar fallbacks and the
#: migration protocol write them directly); these arrays hold only the
#: increments the vectorized passes produce, flushed additively.
_OH_FIELDS = tuple(f.name for f in dataclass_fields(OverheadMeter))


def batch_agents_supported(agent_kind: str) -> bool:
    """Whether the batch engine can drive ``agent_kind``."""
    return agent_kind in BATCH_AGENT_KINDS


class BatchAgentEngine:
    """Structure-of-arrays execution of one routing world's agent phases."""

    def __init__(self, world: Any) -> None:
        kind = world.config.agent_kind
        if kind not in BATCH_AGENT_KINDS:
            raise ConfigurationError(
                f"batch agent engine supports {sorted(BATCH_AGENT_KINDS)}, "
                f"not {kind!r}"
            )
        self._world = world
        self._kind = kind
        self._random_kind = kind == "random"
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
        # Per-agent CPython rngs (shared with the agent objects, so the
        # oracle path continues the same streams after a toggle).  The
        # bound ``_randbelow`` skips one method dispatch per tie-break;
        # it is a stable CPython API (3.2+) and exactly what
        # ``random.choice`` calls.
        self._rngs = [agent._rng for agent in agents]
        self._randbelow = [rng._randbelow for rng in self._rngs]
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
        #: indices of agents with a hop in flight (retry/backoff state on
        #: the agent's own MigrationState).  Empty over a lossless
        #: channel — which is what lets the batch move pass skip
        #: ``resolve_intent`` entirely (the migration fast path).
        self._pending: Set[int] = set()
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
        if agent.migration.target is None:
            self._pending.discard(index)
        else:
            self._pending.add(index)

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
        topology = world.topology
        config = world.config
        adjacency = topology.adjacency_view()
        injector = world.injector
        if injector is not None:
            self._reload_respawned()
            down = topology.down_ids
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
        # Phase 1: decide (or resolve an in-flight hop).
        targets = _np.full(self._population, -1, dtype=_np.int64)
        fresh = _np.zeros(self._population, dtype=bool)
        if config.stigmergic or world.health is not None:
            self._decide_scalar(acts, now, adjacency, targets, fresh)
        else:
            self._decide_vector(acts, now, adjacency, targets, fresh)
        if profiler is not None:
            phase_started = profiler.lap("decide", phase_started)
        # Phase 2: visiting exchanges.
        if config.visiting:
            held = self._meet(acts, now)
            world.result.meetings += held
            if world._obs is not None:
                world._obs.meetings(now, held)
        if profiler is not None:
            phase_started = profiler.lap("meet", phase_started)
        # Phases 3 & 4: move over the channel, then install routes.
        step_installs = self._move_and_install(acts, now, targets, fresh)
        self._flush_locations()
        if profiler is not None:
            phase_started = profiler.lap("move", phase_started)
        return step_installs, phase_started

    # ------------------------------------------------------------------
    # Phase 1: decide
    # ------------------------------------------------------------------

    def _decide_vector(
        self,
        acts: "_np.ndarray",
        now: Time,
        adjacency: Sequence[Sequence[NodeId]],
        targets: "_np.ndarray",
        fresh: "_np.ndarray",
    ) -> None:
        """Vectorized decisions for every acting agent (clean config)."""
        pending = self._pending
        if pending:
            # Migration fast path: only *acting* agents with a hop in
            # flight pay the per-agent resolve_intent; everyone else
            # goes vector.  (Inactive pending agents keep their state
            # untouched, exactly like the per-object loop.)
            resolved = self._world._migration.resolve_intents_batch(
                self._agents,
                [index for index in acts.tolist() if index in pending],
                now,
                adjacency,
                self.loc,
            )
            vector_rows = []
            for index in acts.tolist():
                decision = resolved.get(index)
                if decision is None:
                    vector_rows.append(index)
                    continue
                needs_decision, forced = decision
                if needs_decision:
                    pending.discard(index)
                    vector_rows.append(index)
                else:
                    if forced is not None:
                        targets[index] = forced
                    # waiting out a backoff: stay, no footprint re-stamp
            acts = _np.asarray(vector_rows, dtype=_np.int64)
            if not len(acts):
                return
        fresh[acts] = True
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

    def _decide_scalar(
        self,
        acts: "_np.ndarray",
        now: Time,
        adjacency: Sequence[Sequence[NodeId]],
        targets: "_np.ndarray",
        fresh: "_np.ndarray",
    ) -> None:
        """Per-agent decide mirror for stigmergic / health-filtered runs.

        Line-for-line the logic of ``RoutingWorld._step``'s decide loop
        plus ``RoutingAgent.decide``, reading SoA state instead of the
        (stale) agent attributes.  Speed is irrelevant here; equivalence
        is what the property tests pin.
        """
        world = self._world
        migration = world._migration
        field = world.field
        health = world.health
        stigmergic = world.config.stigmergic
        pending = self._pending
        agents = self._agents
        vt = self.vt
        oh_decisions = self._oh["decisions"]
        oh_lookups = self._oh["footprint_lookups"]
        oh_examined = self._oh["candidates_examined"]
        for index in acts.tolist():
            location = int(self.loc[index])
            neighbors = adjacency[location]
            if index in pending:
                agent = agents[index]
                needs_decision, forced = migration.resolve_intent(
                    agent, now, neighbors
                )
                if not needs_decision:
                    if forced is not None:
                        targets[index] = forced
                    continue
                pending.discard(index)
            fresh[index] = True
            if health is not None:
                neighbors = health.filter_targets(location, neighbors)
            candidates = sorted(neighbors)
            if not candidates:
                continue
            oh_decisions[index] += 1
            if stigmergic and field is not None:
                oh_lookups[index] += 1
                candidates = field.filter_candidates(location, candidates, now)
            oh_examined[index] += len(candidates)
            if self._random_kind:
                targets[index] = self._rngs[index].choice(candidates)
                continue
            row = vt[index]
            best_time = None
            best: List[NodeId] = []
            for candidate in candidates:
                visited = int(row[candidate])
                if best_time is None or visited < best_time:
                    best_time = visited
                    best = [candidate]
                elif visited == best_time:
                    best.append(candidate)
            if len(best) == 1:
                targets[index] = best[0]
            else:
                targets[index] = self._rngs[index].choice(best)

    # ------------------------------------------------------------------
    # Phase 2: visiting meetings
    # ------------------------------------------------------------------

    def _meet(self, acts: "_np.ndarray", now: Time) -> int:
        """Group co-located agents and merge tracks + histories.

        The array mirror of
        :func:`repro.core.comms.exchange_routing_knowledge`: per group,
        the best track per gateway (fewest hops, then freshest) and the
        freshest-per-node merged history are computed from pre-exchange
        snapshots; every receiving participant adopts both, with the
        merged history trimmed to capacity by evicting the stalest
        ``(time, id)`` entries — `record()`'s tie-break.
        """
        groups: Dict[int, List[int]] = {}
        loc_list = self.loc.tolist()
        for index in acts.tolist():
            groups.setdefault(loc_list[index], []).append(index)
        channel = self._world.channel
        channel_fast = channel.hops_lossless
        capacity = self._capacity
        agents = self._agents
        meetings = 0
        oh_meetings = self._oh["meetings"]
        oh_received = self._oh["items_received"]
        oh_lost = self._oh["payloads_lost"]
        for location, members in groups.items():
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
            if channel_fast:
                channel.stats.attempts += len(members)
                receivers = members
            else:
                receivers = [
                    index
                    for index in members
                    if channel.attempt(
                        location,
                        location,
                        now,
                        f"meet:{agents[index].agent_id}",
                    )
                ]
                lost = [i for i in members if i not in receivers]
                if lost:
                    oh_lost[_np.asarray(lost, dtype=_np.int64)] += 1
            if receivers:
                rec = _np.asarray(receivers, dtype=_np.int64)
                self.track_hops[rec] = new_hops
                self.track_seen[rec] = new_seen
                self.vt[rec] = merged
                self.visit_count[rec] = merged_count
                nodes_row = _np.full(capacity + 1, -1, dtype=_np.int64)
                nodes_row[:merged_count] = merged_nodes
                self.visit_nodes[rec] = nodes_row
                oh_received[rec] += payload
        return meetings

    # ------------------------------------------------------------------
    # Phases 3 & 4: move and install
    # ------------------------------------------------------------------

    def _move_and_install(
        self,
        acts: "_np.ndarray",
        now: Time,
        targets: "_np.ndarray",
        fresh: "_np.ndarray",
    ) -> int:
        world = self._world
        topology = world.topology
        down = topology.down_ids
        gw_mask = self._gw_mask
        if down:
            live_gw = gw_mask.copy()
            live_gw[list(down)] = False
        else:
            live_gw = gw_mask
        # Stamp footprints before any movement, in agent order — the
        # same point the per-object loop calls leave_footprint.
        if world.config.stigmergic:
            field = world.field
            stamped = _np.nonzero((targets >= 0) & fresh)[0]
            if len(stamped):
                self._oh["footprints_stamped"][stamped] += 1
                agents = self._agents
                loc_list = self.loc.tolist()
                for index in stamped.tolist():
                    field.stamp(
                        loc_list[index],
                        agents[index].agent_id,
                        int(targets[index]),
                        now,
                    )
        mover_rows = _np.nonzero(targets[acts] >= 0)[0]
        movers = acts[mover_rows]
        channel = world.channel
        channel_fast = channel.hops_lossless
        if channel_fast and world._obs is None and not self._pending:
            step_installs, stayed = self._move_fast(acts, movers, targets, now, live_gw)
        else:
            step_installs, stayed = self._move_scalar(movers, targets, now, live_gw)
        # Stayers standing on a live gateway refresh their zero-hop track
        # (RoutingAgent.stay), movers already handled arrival tracks.
        if len(movers) < len(acts) or stayed:
            stay_mask = _np.ones(self._population, dtype=bool)
            stay_mask[movers] = False
            if stayed:
                stay_mask[stayed] = True
            stayers = acts[stay_mask[acts]]
            on_gateway = stayers[live_gw[self.loc[stayers]]]
            if len(on_gateway):
                columns = self._gw_col[self.loc[on_gateway]]
                self.track_hops[on_gateway, columns] = 0
                self.track_seen[on_gateway, columns] = now
        # Every acting agent records exactly one visit at its final spot.
        self._record_visits(acts, now)
        return step_installs

    def _move_fast(
        self,
        acts: "_np.ndarray",
        movers: "_np.ndarray",
        targets: "_np.ndarray",
        now: Time,
        live_gw: "_np.ndarray",
    ) -> Tuple[int, List[int]]:
        """Lossless-channel movement: every hop delivers, in one pass."""
        if not len(movers):
            return 0, []
        dest = targets[movers]
        self._oh["hops_attempted"][movers] += 1
        channel = self._world.channel
        channel.stats.attempts += len(movers)
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
        return self._install_batch(movers, origins, dest, now), []

    def _move_scalar(
        self,
        movers: "_np.ndarray",
        targets: "_np.ndarray",
        now: Time,
        live_gw: "_np.ndarray",
    ) -> Tuple[int, List[int]]:
        """Movement through the full reliable-migration protocol.

        One mover at a time in agent order — exactly the per-object
        loop: a lost hop leaves the agent in place (it "stays" this
        step), an abandoned target drops routes through the dead link,
        a delivery advances tracks and installs routes immediately.
        """
        world = self._world
        migration = world._migration
        agents = self._agents
        obs = world._obs
        hooks = world.engine.hooks
        injector = world.injector
        tables = world.tables
        guard = tables.guard
        pending = self._pending
        gw_ids = self._gw_ids
        hist = self._hist
        step_installs = 0
        stayed: List[int] = []
        oh_installed = self._oh["routes_installed"]
        for index in movers.tolist():
            agent = agents[index]
            target = int(targets[index])
            outcome = migration.attempt_hop(agent, target, now)
            if outcome != DELIVERED:
                if outcome == ABANDONED:
                    world._suspect_link(agent, target, now)
                    pending.discard(index)
                else:
                    pending.add(index)
                stayed.append(index)
                continue
            pending.discard(index)
            origin = int(self.loc[index])
            self.loc[index] = target
            row = self.track_hops[index]
            live = row >= 0
            advanced = row + 1
            keep = live & (advanced <= hist)
            self.track_hops[index] = _np.where(keep, advanced, -1)
            column = int(self._gw_col[target])
            if column >= 0 and live_gw[target]:
                row[column] = 0
                self.track_seen[index, column] = now
            if obs is not None:
                hooks.fire(
                    "agent_moved", time=now, agent=agent.agent_id, to=target
                )
            track_row = self.track_hops[index]
            columns = _np.nonzero(track_row > 0)[0].tolist()
            if not columns:
                continue  # nothing to write: the node's table stays unbuilt
            table = tables.table(target)
            corrupted = injector is not None and injector.is_corrupted(
                agent.agent_id
            )
            rejected_before = table.guard_rejections if guard is not None else 0
            install = table.install_fast
            seen_row = self.track_seen[index]
            for column in columns:
                oh_installed[index] += 1
                step_installs += 1
                hops = int(track_row[column])
                seen_at = int(seen_row[column])
                next_hop = origin
                if corrupted:
                    hops = 1
                    seen_at = now + _forged_sequence_ahead()
                install(gw_ids[column], next_hop, hops, now, seen_at, seen_at)
            if guard is not None:
                agent.overhead.routes_rejected += (
                    table.guard_rejections - rejected_before
                )
        return step_installs, stayed

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
        forged_ahead = _forged_sequence_ahead()
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


def _forged_sequence_ahead() -> int:
    """The corrupted-agent forgery offset (single source in the world)."""
    from repro.routing import world as routing_world

    return routing_world._FORGED_SEQUENCE_AHEAD
