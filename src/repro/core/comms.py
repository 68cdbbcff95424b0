"""Direct communication: what happens when agents meet on a node.

Both scenarios let co-located agents talk.  Exchanges must be
*order-independent* — the outcome cannot depend on which agent the world
iterates first — so every protocol here works from snapshots taken
before anyone absorbs anything.

Mapping (§II-B.1 phase 2): every agent on a node learns everything every
other agent there knows, stored as second-hand knowledge.  We compute the
group's combined knowledge once and let each member absorb it; absorbing
one's own contribution is a harmless no-op for movement (an agent's own
first-hand recency already dominates its combined view), and it turns a
quadratic all-pairs exchange into a linear one.  The pooled map is one
edge bitset over the world's shared edge index (one bit per network
edge) and one visit vector (see :mod:`repro.core.knowledge`), so pooling
and absorbing are word-level ``|`` and ``np.maximum``; the payload size
counts the edges and the visited nodes in it.

Routing (§III-F, only when ``visiting`` is enabled): the group adopts the
best gateway track per gateway and every member ends up with the merged
visit history — the paper's "after a meeting, all participating agents
are going to be identical in terms of history knowledge".
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.history import VisitHistory
from repro.core.knowledge import pool_knowledge
from repro.core.mapping_agents import MappingAgent
from repro.core.routing_agents import GatewayTrack, RoutingAgent
from repro.net.channel import ChannelModel
from repro.types import NEVER, NodeId, Time

__all__ = [
    "group_by_location",
    "exchange_mapping_knowledge",
    "exchange_routing_knowledge",
]


def group_by_location(agents: Sequence) -> Dict[NodeId, List]:
    """Bucket agents by the node they currently stand on."""
    groups: Dict[NodeId, List] = defaultdict(list)
    for agent in agents:
        groups[agent.location].append(agent)
    return groups


def _apart(agents: Sequence) -> bool:
    """Whether no two of ``agents`` stand on one node, so none can meet."""
    locations = [agent.location for agent in agents]
    return len(set(locations)) == len(locations)


def _payload_received(
    channel: Optional[ChannelModel], agent, now: Time
) -> bool:
    """Whether one meeting payload reached ``agent`` over the channel.

    Loss is modelled at reception: the group broadcast is computed once
    but each listener may independently miss it (short-range collisions
    and fading hit receivers, not the shared medium).  Keying the draw
    by the receiving agent keeps the outcome independent of iteration
    order.  With no channel (or a lossless one) every payload arrives.
    """
    if channel is None:
        return True
    if channel.attempt(agent.location, agent.location, now, f"meet:{agent.agent_id}"):
        return True
    agent.overhead.payloads_lost += 1
    return False


def exchange_mapping_knowledge(
    agents: Sequence[MappingAgent],
    channel: Optional[ChannelModel] = None,
    now: Time = 0,
) -> int:
    """Run phase-2 meetings for mapping agents; returns number of meetings.

    For every node holding two or more agents, the combined edge set and
    freshest visit map of the group is built from pre-exchange state and
    absorbed by every member as second-hand knowledge.  Over a lossy
    ``channel`` a member may miss the payload: it still participates in
    the meeting (its knowledge is in the broadcast) but absorbs nothing.
    """
    if _apart(agents):
        return 0
    meetings = 0
    for __, group in group_by_location(agents).items():
        if len(group) < 2:
            continue
        meetings += 1
        edges, visits = pool_knowledge(agent.knowledge for agent in group)
        payload = len(edges) + int(np.count_nonzero(visits > NEVER))
        for agent in group:
            agent.overhead.meetings += 1
            if not _payload_received(channel, agent, now):
                continue
            agent.knowledge.absorb(edges, visits)
            agent.overhead.items_received += payload
    return meetings


def exchange_routing_knowledge(
    agents: Sequence[RoutingAgent],
    channel: Optional[ChannelModel] = None,
    now: Time = 0,
) -> int:
    """Run visiting meetings for routing agents; returns number of meetings.

    Only agents with ``visiting`` enabled participate.  The group's best
    track per gateway and merged history are computed from pre-exchange
    snapshots, then written back to every participant — except members
    whose payload the lossy ``channel`` drops, who keep their own state.
    """
    if _apart(agents):
        return 0
    meetings = 0
    for __, group in group_by_location(agents).items():
        participants = [agent for agent in group if agent.visiting]
        if len(participants) < 2:
            continue
        meetings += 1
        best_tracks: Dict[NodeId, GatewayTrack] = {}
        for agent in participants:
            for gateway, track in agent.tracks.items():
                current = best_tracks.get(gateway)
                if current is None or track.better_than(current):
                    best_tracks[gateway] = track
        merged_history = _merged_history(participants)
        payload = len(best_tracks) + len(merged_history)
        for agent in participants:
            agent.overhead.meetings += 1
            if not _payload_received(channel, agent, now):
                continue
            agent.tracks = dict(best_tracks)
            agent.history.merge_from(merged_history)
            agent.overhead.items_received += payload
    return meetings


def _merged_history(participants: Iterable[RoutingAgent]) -> VisitHistory:
    """The union of participants' histories in one oversized history."""
    capacities = [agent.history.capacity for agent in participants]
    merged = VisitHistory(max(capacities) * max(2, len(capacities)))
    for agent in participants:
        for node, time in agent.history.items():
            if time > merged.last_visit(node):
                merged.record(node, time)
    return merged
