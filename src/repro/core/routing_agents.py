"""Routing agents: random and oldest-node, with visiting and stigmergy.

A routing agent wanders the MANET carrying *gateway tracks*: for every
gateway it passed through recently it remembers how many hops ago that
was.  Each time it arrives at a node it installs, for every live track, a
route entry "to reach gateway G, go back to the node I just came from" —
the entries it leaves along its walk chain together into a reverse path
to the gateway.  A track is forgotten once its hop count exceeds the
agent's history size: a small memory can only seed short routes, which is
exactly the paper's history-size effect (§III-E).

Movement policies:

* **random** — uniform choice among reachable neighbours (baseline),
* **oldest-node** — the neighbour last visited longest ago, never
  visited, or no longer remembered (bounded :class:`VisitHistory`).

Options:

* ``visiting`` — the paper's direct communication (§III-F): co-located
  agents merge gateway tracks (adopting the best known route) *and*
  visit histories (becoming "identical in terms of history knowledge",
  which is what makes visiting counterproductive for oldest-node agents).
* ``stigmergic`` — the paper's future work brought to the routing task:
  agents imprint their next target and avoid freshly targeted nodes,
  using the same :class:`~repro.core.stigmergy.StigmergyField` mechanism
  as the mapping scenario.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.history import VisitHistory
from repro.core.migration import MigrationState
from repro.core.overhead import OverheadMeter
from repro.core.stigmergy import StigmergyField
from repro.errors import ConfigurationError
from repro.types import NEVER, AgentId, NodeId, Time

__all__ = [
    "GatewayTrack",
    "RoutingAgent",
    "RandomRoutingAgent",
    "OldestNodeAgent",
    "ROUTING_AGENT_KINDS",
    "make_routing_agent",
]

#: How far ahead of the clock a corrupted agent stamps its forged
#: sequence numbers — "stale-but-renumbered" knowledge that, undefended,
#: raises the per-gateway floors and blocks honest refreshes for this
#: many steps.  The table guard's future-sequence check rejects it.
_FORGED_SEQUENCE_AHEAD = 50


@dataclass(frozen=True)
class GatewayTrack:
    """How far (in the agent's own hops) a gateway is behind the agent."""

    hops: int
    visited_at: Time

    def stepped(self) -> "GatewayTrack":
        """The track after the agent takes one more hop."""
        return GatewayTrack(hops=self.hops + 1, visited_at=self.visited_at)

    def better_than(self, other: "GatewayTrack") -> bool:
        """Preference order for merging: fewer hops, then fresher."""
        if self.hops != other.hops:
            return self.hops < other.hops
        return self.visited_at > other.visited_at


class RoutingAgent:
    """Base class with track bookkeeping and the 4-phase step protocol."""

    kind: str = "base"

    def __init__(
        self,
        agent_id: AgentId,
        start: NodeId,
        rng: random.Random,
        history_size: int = 10,
        visiting: bool = False,
        stigmergic: bool = False,
    ) -> None:
        if history_size < 1:
            raise ConfigurationError(f"history_size must be >= 1, got {history_size}")
        self.agent_id = agent_id
        self.location = start
        self.history_size = history_size
        self.visiting = visiting
        self.stigmergic = stigmergic
        self.history = VisitHistory(history_size)
        self.tracks: Dict[NodeId, GatewayTrack] = {}
        self.overhead = OverheadMeter()
        self.migration = MigrationState()
        self._rng = rng

    # -- phase 1: decide --------------------------------------------------

    def decide(
        self,
        out_neighbors: Sequence[NodeId],
        time: Time,
        field: Optional[StigmergyField] = None,
    ) -> Optional[NodeId]:
        """Pick the next node from current neighbours (``None`` = stay)."""
        candidates: List[NodeId] = sorted(out_neighbors)
        if not candidates:
            return None
        self.overhead.decisions += 1
        if self.stigmergic and field is not None:
            self.overhead.footprint_lookups += 1
            candidates = field.filter_candidates(self.location, candidates, time)
        self.overhead.candidates_examined += len(candidates)
        return self._pick(candidates)

    def _pick(self, candidates: List[NodeId]) -> NodeId:
        raise NotImplementedError

    # -- phases 3 & 4: move, then install routes ---------------------------

    def leave_footprint(self, target: NodeId, time: Time, field: StigmergyField) -> None:
        """Imprint the chosen target on the node being left (if stigmergic)."""
        if self.stigmergic:
            self.overhead.footprints_stamped += 1
            field.stamp(self.location, self.agent_id, target, time)

    def move_to(self, target: NodeId, time: Time, target_is_gateway: bool) -> NodeId:
        """Commit the move; returns the node the agent came from.

        Advances every gateway track by one hop, drops tracks that grew
        beyond the history size (the agent no longer remembers the path),
        records the visit, and — when the target is a gateway — resets
        that gateway's track to zero hops.
        """
        origin = self.location
        self.location = target
        advanced = {
            gateway: track.stepped()
            for gateway, track in self.tracks.items()
            if track.hops + 1 <= self.history_size
        }
        self.tracks = advanced
        if target_is_gateway:
            self.tracks[target] = GatewayTrack(hops=0, visited_at=time)
        self.history.record(target, time)
        return origin

    def stay(self, time: Time, here_is_gateway: bool) -> None:
        """No reachable neighbour: the agent waits in place this step."""
        if here_is_gateway:
            self.tracks[self.location] = GatewayTrack(hops=0, visited_at=time)
        self.history.record(self.location, time)

    def reset_for_respawn(self, start: NodeId, time: Time) -> None:
        """Restart this agent fresh at ``start`` after its node crashed.

        A respawned agent is a new process on a surviving node: gateway
        tracks and visit history died with the host, so carrying them
        across the teleport would fabricate routes no walk ever took.
        Pending-hop retry/backoff state dies too; the overhead meter
        survives — it accounts for the whole run, respawns included.
        """
        self.location = start
        self.tracks = {}
        self.history = VisitHistory(self.history_size)
        self.history.record(start, time)
        self.migration.reset()

    def installable_routes(self, came_from: NodeId) -> List:
        """Route entries to install at the current node after a move.

        Each live track becomes ``(gateway, next_hop=came_from, hops,
        gateway_seen_at)``; the caller stamps the installation time.
        Zero-hop tracks (the agent is standing *on* that gateway) install
        nothing — a gateway needs no route to itself.
        """
        return [
            (gateway, came_from, track.hops, track.visited_at)
            for gateway, track in self.tracks.items()
            if track.hops > 0
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        options = []
        if self.visiting:
            options.append("visiting")
        if self.stigmergic:
            options.append("stigmergic")
        suffix = f" [{', '.join(options)}]" if options else ""
        return f"<{self.kind} routing agent {self.agent_id} at {self.location}{suffix}>"


class RandomRoutingAgent(RoutingAgent):
    """Moves to a uniformly random reachable neighbour (paper baseline)."""

    kind = "random"

    def _pick(self, candidates: List[NodeId]) -> NodeId:
        return self._rng.choice(candidates)


class OldestNodeAgent(RoutingAgent):
    """Prefers the neighbour visited longest ago or not remembered at all."""

    kind = "oldest-node"

    def _pick(self, candidates: List[NodeId]) -> NodeId:
        visits = self.history._visits  # hot path: skip the method call
        best_time = None
        best: List[NodeId] = []
        for candidate in candidates:
            visited = visits.get(candidate, NEVER)
            if best_time is None or visited < best_time:
                best_time = visited
                best = [candidate]
            elif visited == best_time:
                best.append(candidate)
        if len(best) == 1:
            return best[0]
        return self._rng.choice(best)


#: kind-string -> class, for configs and the CLI.
ROUTING_AGENT_KINDS = {
    RandomRoutingAgent.kind: RandomRoutingAgent,
    OldestNodeAgent.kind: OldestNodeAgent,
}


def make_routing_agent(
    kind: str,
    agent_id: AgentId,
    start: NodeId,
    rng: random.Random,
    history_size: int = 10,
    visiting: bool = False,
    stigmergic: bool = False,
    **kind_specific,
) -> RoutingAgent:
    """Instantiate a routing agent by kind name.

    ``kind_specific`` keyword arguments are forwarded to the agent class
    (e.g. ``follow_probability`` for the ``"ant"`` kind).
    """
    try:
        cls = ROUTING_AGENT_KINDS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown routing agent kind {kind!r}; "
            f"expected one of {sorted(ROUTING_AGENT_KINDS)}"
        ) from None
    return cls(
        agent_id,
        start,
        rng,
        history_size=history_size,
        visiting=visiting,
        stigmergic=stigmergic,
        **kind_specific,
    )
