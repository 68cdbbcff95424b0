"""Mapping-scenario metrics.

The paper's headline metric is *finishing time*: "the simulation time
step where all agents have a perfect knowledge about the network
topology" — a team metric, reached only when the *worst-informed* agent
is complete.  Figures 3 and 4 also plot knowledge over time, so the
tracker records per-step average and minimum completeness.
"""

from __future__ import annotations

from typing import AbstractSet, List, Optional, Sequence

from repro.core.knowledge import EdgeBits
from repro.core.mapping_agents import MappingAgent
from repro.types import Edge, Time

__all__ = ["KnowledgeTracker"]


class KnowledgeTracker:
    """Records team knowledge over time and detects finishing.

    Completeness is normally the cheap count ``known / total``; when the
    world mutates the topology mid-run (link degradation) it must instead
    check coverage of the *live* edge set — an agent may "know" edges that
    no longer exist, and those must not count toward finishing.  The
    world switches modes by passing ``live_edges``, an
    :class:`~repro.core.knowledge.EdgeBits` mask on the agents' shared
    edge index, built once per topology change, so coverage is one
    popcount per agent.
    """

    def __init__(self, total_edges: int) -> None:
        self.total_edges = total_edges
        self.times: List[Time] = []
        self.average_knowledge: List[float] = []
        self.minimum_knowledge: List[float] = []
        self.finishing_time: Optional[Time] = None

    def record(
        self,
        time: Time,
        agents: Sequence[MappingAgent],
        live_edges: Optional[AbstractSet[Edge]] = None,
    ) -> bool:
        """Record one step; return True the first time the team finishes."""
        if live_edges is None:
            total = self.total_edges
            if total <= 0:
                fractions = [1.0] * len(agents)
            else:
                # TopologyKnowledge.completeness, with the counts read directly.
                fractions = [
                    min(1.0, agent.knowledge.known_edge_count / total)
                    for agent in agents
                ]
        else:
            fractions = _coverage(agents, live_edges)
        average = sum(fractions) / len(fractions)
        minimum = min(fractions)
        self.times.append(time)
        self.average_knowledge.append(average)
        self.minimum_knowledge.append(minimum)
        if self.finishing_time is None and minimum >= 1.0:
            self.finishing_time = time
            return True
        return False

    @property
    def finished(self) -> bool:
        """Whether the team has reached perfect knowledge."""
        return self.finishing_time is not None


def _coverage(
    agents: Sequence[MappingAgent], live_edges: AbstractSet[Edge]
) -> List[float]:
    """Per agent, the fraction of the currently existing edges it knows."""
    if not live_edges:
        return [1.0] * len(agents)
    if not isinstance(live_edges, EdgeBits):
        live_edges = EdgeBits.from_edges(live_edges, agents[0].knowledge.index)
    total = len(live_edges)
    return [agent.knowledge.count_known(live_edges) / total for agent in agents]
